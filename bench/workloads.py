"""Seeded CLI invocations for the three benchmark workloads.

Each workload is a fixed mix of (subcommand, setup, protocol, swept
variable) kinds that follows the paper's figure ranges; each kind runs twice per
pass.  The seed picks every grid's endpoints and point count and the order
of the mix; the program only ever sees the resulting command lines.

* ``reach``     -- ``L0_km`` sweeps for all eight DV/MDI pairs plus ``noise``
  on setups 1-4.  Every point changes the fiber plan, so the table load and
  the 32-channel Raman sums are redone per point and nothing is loop
  invariant.  No GG02.
* ``invariant`` -- sweeps whose variable leaves the fiber plan unchanged
  (coupling loss, clock rate, bulb PSD, background count) plus the golden
  invocation.  The Raman totals are loop invariant here; the background
  sweeps skip Raman altogether.
* ``cv``        -- GG02 on setups 1-2 over coupling loss and feeder length,
  plus ``crossover``.  The only traffic that runs the modulation-variance
  search.  No DV/MDI rate formula.

Out-of-regime inputs (bulb PSD 1e3 W/nm, MDI feeders of 1000 km, negative
clock rates) are robustness cases, not part of any timed mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("reach", "invariant", "cv")

DV_PAIRS = ((1, "DS-BB84"), (1, "SPP-BB84"), (2, "DS-BB84"), (2, "SPP-BB84"))
MDI_PAIRS = ((3, "MDI-DS"), (3, "MDI-SPP"), (4, "MDI-DS"), (4, "MDI-SPP"))

# Every grid kind runs twice per pass, with 50 - d and 50 + d points for a
# seeded d in 0..5, so every seed asks for the same number of points.  50 is
# the CLI's default ``--points``, i.e. the curve a user gets by default.
CLI_DEFAULT_POINTS = 50
MAX_COUNT_SHIFT = 5


def _point_counts(rng: random.Random) -> tuple[int, int]:
    shift = rng.randint(0, MAX_COUNT_SHIFT)
    return CLI_DEFAULT_POINTS - shift, CLI_DEFAULT_POINTS + shift

# The invocation that produced tests/data/golden_sweep.csv.
GOLDEN = dict(setup=2, protocol="DS-BB84", variable="coupling_loss_db",
              start=0.0, stop=30.0, points=4, log=False)


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``sweep``, ``noise`` or ``crossover``.

    ``variable`` is ``L0_km`` for ``noise``; ``coupling_loss_db`` holds the
    ``--set link.coupling_loss_db`` override of a ``crossover`` call, whose
    single reported clock rate counts as its one point.
    """

    command: str
    setup: int
    protocol: str = ""
    variable: str = ""
    start: float = 0.0
    stop: float = 0.0
    points: int = 1
    log: bool = False
    coupling_loss_db: float | None = None
    golden: bool = False

    def argv(self, out: str) -> list[str]:
        if self.command == "sweep":
            args = ["sweep", "--setup", str(self.setup), "--protocol", self.protocol,
                    "--var", self.variable, "--start", repr(self.start),
                    "--stop", repr(self.stop), "--points", str(self.points), "--out", out]
            return args + (["--log"] if self.log else [])
        if self.command == "noise":
            return ["noise", "--setup", str(self.setup), "--l0-start", repr(self.start),
                    "--l0-stop", repr(self.stop), "--points", str(self.points), "--out", out]
        return ["crossover", "--setup", str(self.setup),
                "--set", f"link.coupling_loss_db={self.coupling_loss_db!r}"]

    def label(self) -> str:
        if self.command == "crossover":
            return f"crossover/setup{self.setup}"
        if self.command == "noise":
            return f"noise/setup{self.setup}"
        return f"sweep/setup{self.setup}/{self.protocol}/{self.variable}"


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return float(f"{10.0 ** rng.uniform(lo_exp, hi_exp):.4e}")


def _sweeps(rng, pairs, variable, start, stop, log=False) -> list[Invocation]:
    """Two sweeps per (setup, protocol) pair; ``start`` and ``stop`` draw
    each grid's endpoints from ``rng``."""
    return [Invocation("sweep", s, p, variable, start(rng), stop(rng), n, log)
            for s, p in pairs for n in _point_counts(rng)]


def _reach(rng: random.Random) -> list[Invocation]:
    near, far = (lambda r: _uniform(r, 0.5, 2.0)), (lambda r: _uniform(r, 80.0, 100.0))
    mix = _sweeps(rng, DV_PAIRS + MDI_PAIRS, "L0_km", near, far)
    mix += [Invocation("noise", s, variable="L0_km", start=near(rng), stop=far(rng), points=n)
            for s in (1, 2, 3, 4) for n in _point_counts(rng)]
    return mix


def _invariant(rng: random.Random) -> list[Invocation]:
    return (
        _sweeps(rng, DV_PAIRS[2:] + MDI_PAIRS, "coupling_loss_db",
                lambda r: _uniform(r, 0.0, 2.0), lambda r: _uniform(r, 30.0, 50.0))
        + _sweeps(rng, DV_PAIRS[:2] + MDI_PAIRS[:2], "clock_rate_hz",
                  lambda r: _log_uniform(r, 5.5, 6.5), lambda r: _log_uniform(r, 9.5, 10.0), log=True)
        + _sweeps(rng, DV_PAIRS[2:] + MDI_PAIRS[2:], "psd_w_per_nm",
                  lambda r: _log_uniform(r, -8.0, -7.0), lambda r: _log_uniform(r, -2.5, -2.0), log=True)
        + _sweeps(rng, DV_PAIRS[2:], "background_noise",
                  lambda r: _log_uniform(r, -10.0, -9.0), lambda r: _log_uniform(r, -4.0, -3.0), log=True)
        + [Invocation("sweep", golden=True, **GOLDEN)]
    )


def _cv(rng: random.Random) -> list[Invocation]:
    gg02 = ((1, "GG02"), (2, "GG02"))
    return (
        _sweeps(rng, gg02, "coupling_loss_db",
                lambda r: _uniform(r, 0.0, 2.0), lambda r: _uniform(r, 20.0, 30.0))
        + _sweeps(rng, gg02, "L0_km", lambda r: _uniform(r, 0.5, 2.0), lambda r: _uniform(r, 60.0, 100.0))
        + [Invocation("crossover", s, coupling_loss_db=_uniform(rng, 0.0, 10.0))
           for s in (1, 2) for _ in range(2)]
    )


def build(workload: str, seed: int) -> list[Invocation]:
    """The workload's invocations for ``seed``, in the order they run."""
    generators = {"reach": _reach, "invariant": _invariant, "cv": _cv}
    rng = random.Random(f"{workload}:{seed}")
    mix = generators[workload](rng)
    rng.shuffle(mix)
    return mix
