"""Output checks run on every benchmark invocation.

A call passes when it exits with status 0 and its output is correct:

* the row count equals the requested points, every value is finite, the
  key rate is >= 0 and the rows are sorted by the swept value;
* ``key_rate_bps`` equals ``key_rate_per_pulse`` times the clock rate;
* for DV/MDI sweeps and noise breakdowns, the Raman columns of the first
  and last row match ``tests/oracles.raman_totals_oracle`` (an independent
  term-by-term summation) after a photon conversion derived here;
* the golden invocation is byte-identical to ``tests/data/golden_sweep.csv``;
* a call repeated within a run produces identical bytes.

Only ``tests/oracles.py`` is imported from the repository besides the
package's CLI; it is used read-only.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import oracles  # tests/oracles.py, put on sys.path by run.py

from workloads import Invocation

PLANCK = 6.62607015e-34
LIGHTSPEED = 299792458.0

# The nominal network and detector figures of the package defaults, restated
# so the oracle inputs do not come from the code under test.
N_USERS = 32
QUANTUM_START_NM = 1555.62
DATA_START_NM = 1585.2
SPACING_NM = 0.8
DEFAULT_FEEDER_KM = 10.0
DROP_KM = 0.5
ALPHA_DB_PER_KM = 0.2
AWG_DB = 2.0
RX_BANDWIDTH_NM = 0.8
SENSITIVITY_DBM = -38.5
ETA_TELECOM = 0.3
GATE_S = 100e-12
DV_CLOCK_HZ = 1e9
CV_CLOCK_HZ = 25e6
TABLE_REFERENCE_PUMP_NM = 1550.0

RAMAN_REL_TOL = 1e-9
GRID_REL_TOL = 1e-12

SWEEP_COLUMNS = ("key_rate_per_pulse", "key_rate_bps", "n_frs_per_pulse",
                 "n_brs_per_pulse", "n_bulb_per_pulse", "n_dark_per_pulse")
NOISE_HEADER = ("l0_km,n_frs_per_pulse,n_brs_per_pulse,n_bulb_per_pulse,"
                "n_dark_per_pulse,n_total_per_pulse")


class CheckError(Exception):
    """An invocation's output is wrong."""


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(got), abs(want))


class OutputChecker:
    """Checks invocation outputs; remembers digests to catch non-determinism."""

    Error = CheckError

    def __init__(self, root: Path):
        self._golden = (root / "tests" / "data" / "golden_sweep.csv").read_bytes()
        self._table = oracles.CsvRamanData(
            root / "src" / "qkd_access" / "data" / "raman_gamma_1550nm.csv",
            TABLE_REFERENCE_PUMP_NM,
        )
        self._digests: dict[Invocation, str] = {}
        self._raman: dict[tuple[int, float], tuple[float, float]] = {}

    def check(self, inv: Invocation, output: bytes) -> int:
        """Raise CheckError unless ``output`` is correct; return its row count."""
        digest = hashlib.sha256(output).hexdigest()
        first = self._digests.setdefault(inv, digest)
        if first != digest:
            raise CheckError("output differs from an earlier run of the same call")
        if inv.golden and output != self._golden:
            raise CheckError("golden invocation differs from tests/data/golden_sweep.csv")
        text = output.decode("utf-8")
        if inv.command == "crossover":
            return self._check_crossover(text)
        rows = self._parse(inv, text)
        if inv.command == "noise":
            self._check_noise(inv, rows)
        else:
            self._check_sweep(inv, rows)
        return len(rows)

    # ---- parsing ----------------------------------------------------------

    def _parse(self, inv: Invocation, text: str) -> list[list[float]]:
        lines = text.split("\n")
        if lines[-1] != "" or any(line.endswith("\r") for line in lines):
            raise CheckError("CSV must end with a newline and use LF line endings")
        body = [line for line in lines[:-1] if not line.startswith("#")]
        header = ",".join((inv.variable,) + SWEEP_COLUMNS) if inv.command == "sweep" else NOISE_HEADER
        if not body or body[0] != header:
            raise CheckError(f"unexpected CSV header {body[:1]!r}")
        rows = [[float(x) for x in line.split(",")] for line in body[1:]]
        if len(rows) != inv.points:
            raise CheckError(f"{len(rows)} rows for {inv.points} requested points")
        width = len(header.split(","))
        for row in rows:
            if len(row) != width or not all(math.isfinite(x) for x in row):
                raise CheckError(f"malformed or non-finite row {row!r}")
        values = [row[0] for row in rows]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise CheckError("rows are not sorted by the swept value")
        if not (_close(values[0], inv.start, GRID_REL_TOL)
                and _close(values[-1], inv.stop, GRID_REL_TOL)):
            raise CheckError(f"grid runs {values[0]}..{values[-1]}, asked {inv.start}..{inv.stop}")
        return rows

    # ---- per command ------------------------------------------------------

    def _check_sweep(self, inv: Invocation, rows: list[list[float]]) -> None:
        for value, rate, rate_bps, *_ in rows:
            if inv.variable == "clock_rate_hz":
                clock = value
            else:
                clock = CV_CLOCK_HZ if inv.protocol == "GG02" else DV_CLOCK_HZ
            if rate < 0.0:
                raise CheckError(f"negative key rate {rate} at {value}")
            if rate_bps != rate * clock:
                raise CheckError(f"key_rate_bps {rate_bps} != {rate} * {clock}")
        if inv.protocol != "GG02":
            for row in (rows[0], rows[-1]):
                self._check_raman(inv, row[0], row[3], row[4])

    def _check_noise(self, inv: Invocation, rows: list[list[float]]) -> None:
        for row in rows:
            l0, frs, brs, bulb, dark, total = row
            if min(row[1:]) < 0.0 or not _close(total, frs + brs + bulb + dark, GRID_REL_TOL):
                raise CheckError(f"noise components inconsistent at L0={l0}")
        for row in (rows[0], rows[-1]):
            self._check_raman(inv, row[0], row[1], row[2])

    def _check_crossover(self, text: str) -> int:
        line = text.strip()
        if line == "crossover: none within the searchable clock range":
            return 1
        prefix, suffix = "crossover clock: ", " Hz"
        if not (line.startswith(prefix) and line.endswith(suffix)):
            raise CheckError(f"unexpected crossover output {line!r}")
        clock = float(line[len(prefix):-len(suffix)])
        if not (math.isfinite(clock) and clock >= 0.0):
            raise CheckError(f"crossover clock {clock} is not a finite rate >= 0")
        return 1

    # ---- Raman oracle -----------------------------------------------------

    def _check_raman(self, inv: Invocation, value: float, frs: float, brs: float) -> None:
        if inv.variable == "background_noise" and inv.setup != 1:
            want = (0.0, 0.0)  # the swept count replaces the modelled noise
        else:
            feeder = value if inv.variable == "L0_km" else DEFAULT_FEEDER_KM
            want = self._raman_counts(inv.setup, feeder)
        for got, exp, name in ((frs, want[0], "frs"), (brs, want[1], "brs")):
            if not (got == exp or _close(got, exp, RAMAN_REL_TOL)):
                raise CheckError(f"{name} {got!r} != oracle {exp!r} at {inv.variable}={value}")

    def _raman_counts(self, setup: int, feeder_km: float) -> tuple[float, float]:
        """Detected forward/backward Raman photons per gate from the oracle."""
        key = (setup, feeder_km)
        if key not in self._raman:
            quantum = [QUANTUM_START_NM - SPACING_NM * k for k in range(N_USERS)]
            data = [DATA_START_NM - SPACING_NM * k for k in range(N_USERS)]
            fwd_mw, bwd_mw = oracles.raman_totals_oracle(
                1 if setup == 2 else setup, self._table, quantum, data, feeder_km,
                [DROP_KM] * N_USERS, ALPHA_DB_PER_KM, AWG_DB, RX_BANDWIDTH_NM, SENSITIVITY_DBM,
            )
            # half the telecom efficiency behind the passive decoder (setups
            # 1-2), a quarter for one polarization at the Bell measurement (3-4)
            efficiency = ETA_TELECOM / (2.0 if setup in (1, 2) else 4.0)
            photons_per_mw = 1e-3 * GATE_S * quantum[0] * 1e-9 / (PLANCK * LIGHTSPEED)
            self._raman[key] = (efficiency * photons_per_mw * fwd_mw,
                                efficiency * photons_per_mw * bwd_mw)
        return self._raman[key]
