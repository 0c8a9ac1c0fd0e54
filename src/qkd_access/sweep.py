"""Parameter sweeps, noise decomposition and CSV emission.

A sweep evaluates one (setup, protocol) pair over a grid of one variable,
holding everything else at the configured values.  Points are pure
evaluations made in grid order, and two runs of the same configuration
produce byte-identical CSV output.  What a point does not change, a run
evaluates once:

* the model objects (Raman table, fiber plan, detectors, protocol
  parameters) and the room's two numbers, its line-of-sight gain and the
  bulb background count, once per run, from the config as it is when the
  run starts; a point replaces only the object its value changes, so only
  ``L0_km`` points build a new plan, only ``psd_w_per_nm`` points count
  the bulb's photons again, and a clock only scales ``rate_bps``;
* a plan's Raman totals once, so only ``L0_km`` sweeps redo the 32-channel
  Raman pass;
* each link's rate once per distinct (link budget, protocol parameters)
  pair, so a ``clock_rate_hz`` sweep rates each link once, and setup 1's
  wireless link is rated once unless the swept variable is the bulb PSD or
  the background count.

Conventions used in the result rows:

* setup 1 combines its two links by XOR, so its key rate is the minimum of
  the wireless and fiber link rates; for every protocol the reported noise
  breakdown is that of the fiber link (the wireless link has no dependence
  on the swept fiber quantities).
* For the coherent protocol the frs/brs/bulb columns report the photon
  counts feeding the excess-noise mapping (the bulb count already filtered
  to the local oscillator's mode), and the dark column is zero because
  homodyne detection has no dark counts.
* In ``background_noise`` sweeps the swept count replaces the modelled
  bulb and Raman noise: it is the total background per detector for the
  direct-detection protocols and per spatio-temporal mode for the coherent
  one; it lands in the bulb column of the breakdown.  On setup 1 it
  replaces only the wireless link's noise; the fiber link, which the row
  reports, stays modelled.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .budget import (
    DetectorParams,
    DwdmPlan,
    budget_setup1_fiber,
    budget_setup1_wireless,
    budget_setup2,
    budget_setup3,
    budget_setup4,
    cv_budget,
)
from .config import SimulationConfig
from .owc import BulbNoiseModel, bulb_noise_count, los_dc_gain
from .protocols import (
    Bb84Params,
    Gg02Params,
    MdiParams,
    ds_bb84_rate,
    gg02_rate,
    mdi_rate_ds,
    mdi_rate_spp,
    spp_bb84_rate,
)
from .raman import RamanCrossSectionTable

__all__ = [
    "PROTOCOLS",
    "SWEEP_VARIABLES",
    "SweepSpec",
    "SweepPoint",
    "SweepResult",
    "NoiseBreakdownResult",
    "run_sweep",
    "noise_breakdown",
    "dv_cv_crossover",
    "emit_csv",
]

PROTOCOLS = ("DS-BB84", "SPP-BB84", "GG02", "MDI-DS", "MDI-SPP")
SWEEP_VARIABLES = ("coupling_loss_db", "L0_km", "psd_w_per_nm", "background_noise", "clock_rate_hz")

_SETUP_PROTOCOLS = {
    1: {"DS-BB84", "SPP-BB84", "GG02"},
    2: {"DS-BB84", "SPP-BB84", "GG02"},
    3: {"MDI-DS", "MDI-SPP"},
    4: {"MDI-DS", "MDI-SPP"},
}

CROSSOVER_CLOCK_RANGE_HZ = (1e6, 1e10)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: one protocol on one setup over one variable."""

    setup: int
    protocol: str
    case: int
    variable: str
    start: float
    stop: float
    points: int
    log_spacing: bool = False

    def __post_init__(self):
        if self.setup not in _SETUP_PROTOCOLS:
            raise ValueError(f"setup must be 1-4, got {self.setup}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; choose from {PROTOCOLS}")
        if self.protocol not in _SETUP_PROTOCOLS[self.setup]:
            raise ValueError(
                f"protocol {self.protocol} does not run on setup {self.setup}: "
                f"direct-detection/coherent protocols use setups 1-2, "
                f"untrusted-measurement protocols use setups 3-4"
            )
        if self.case not in (1, 2, 3):
            raise ValueError(f"case must be 1, 2 or 3, got {self.case}")
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        if self.points < 2:
            raise ValueError("a sweep needs at least 2 points")
        if not self.start < self.stop:
            raise ValueError("sweep range must satisfy start < stop")
        if self.log_spacing and self.start <= 0.0:
            raise ValueError("log spacing needs a positive start value")
        if not math.isfinite(self.stop):
            raise ValueError("sweep range must be finite")
        if self.variable == "clock_rate_hz" and self.start <= 0.0:
            raise ValueError(f"clock_rate_hz sweeps need start > 0, got {self.start}")
        if self.start < 0.0:
            raise ValueError(f"{self.variable} sweeps need start >= 0, got {self.start}")

    def values(self) -> list[float]:
        if self.log_spacing:
            grid = np.geomspace(self.start, self.stop, self.points)
        else:
            grid = np.linspace(self.start, self.stop, self.points)
        return [float(v) for v in grid]

    def as_dict(self) -> dict:
        return {
            "setup": self.setup,
            "protocol": self.protocol,
            "case": self.case,
            "variable": self.variable,
            "start": self.start,
            "stop": self.stop,
            "points": self.points,
            "log_spacing": self.log_spacing,
        }


@dataclass(frozen=True)
class SweepPoint:
    value: float
    rate_per_pulse: float
    rate_bps: float
    frs: float
    brs: float
    bulb: float
    dark: float


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepPoint, ...]
    config_sha256: str
    table_sha256: str

    def csv_text(self) -> str:
        lines = [
            f"# config_sha256={self.config_sha256}",
            f"# table_sha256={self.table_sha256}",
            f"# setup={self.spec.setup} protocol={self.spec.protocol} case={self.spec.case}",
            f"{self.spec.variable},key_rate_per_pulse,key_rate_bps,"
            "n_frs_per_pulse,n_brs_per_pulse,n_bulb_per_pulse,n_dark_per_pulse",
        ]
        for row in self.rows:
            lines.append(
                ",".join(
                    format(x, ".17e")
                    for x in (
                        row.value,
                        row.rate_per_pulse,
                        row.rate_bps,
                        row.frs,
                        row.brs,
                        row.bulb,
                        row.dark,
                    )
                )
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class NoiseBreakdownResult:
    setup: int
    rows: tuple[tuple[float, float, float, float, float, float], ...]  # l0, frs, brs, bulb, dark, total
    config_sha256: str
    table_sha256: str

    def csv_text(self) -> str:
        lines = [
            f"# config_sha256={self.config_sha256}",
            f"# table_sha256={self.table_sha256}",
            f"# setup={self.setup}",
            "l0_km,n_frs_per_pulse,n_brs_per_pulse,n_bulb_per_pulse,n_dark_per_pulse,n_total_per_pulse",
        ]
        for row in self.rows:
            lines.append(",".join(format(x, ".17e") for x in row))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _Model:
    """What user 1's links on one setup are built from, resolved once per run.

    ``h_dc`` is the room's line-of-sight gain and ``n_b1`` the bulb
    background per gate at the wavelength of the setup's room link;
    ``bulb`` is the light source behind ``n_b1``, None when the config
    fixes the count.  A sweep point replaces only the field its value
    changes.
    """

    setup: int
    h_dc: float
    n_b1: float
    bulb: BulbNoiseModel | None
    plan: DwdmPlan
    detectors: DetectorParams
    table: RamanCrossSectionTable
    coupling_loss_db: float
    polarization_factor: float
    rx_bandwidth_nm: float
    receiver_efficiency: float
    eps_receiver_measured: float
    bb84: Bb84Params
    mdi: MdiParams
    gg02: Gg02Params
    dv_clock_hz: float
    cv_clock_hz: float


def _model(config: SimulationConfig, setup: int, case: int) -> _Model:
    """``config``'s model objects for user 1 on ``setup``, with the room in ``case``."""
    data = config.data
    plan = config.plan()
    link = data["link"]
    room_nm = link["wireless_wavelength_nm"] if setup == 1 else plan.quantum_nm[0]
    fixed_n_b1 = data["bulb"]["n_b1_per_pulse"]
    bulb = None if fixed_n_b1 is not None else config.bulb_model(room_nm)
    return _Model(
        setup=setup,
        h_dc=los_dc_gain(config.scenario(case)),
        n_b1=fixed_n_b1 if bulb is None else bulb_noise_count(bulb),
        bulb=bulb,
        plan=plan,
        detectors=config.detectors(),
        table=config.raman_table(),
        coupling_loss_db=link["coupling_loss_db"],
        polarization_factor=link["polarization_factor"],
        rx_bandwidth_nm=data["network"]["rx_bandwidth_nm"],
        receiver_efficiency=data["cv"]["receiver_efficiency"],
        eps_receiver_measured=data["cv"]["eps_receiver_measured"],
        bb84=config.bb84_params(),
        mdi=config.mdi_params(),
        gg02=config.gg02_params(),
        dv_clock_hz=data["dv"]["clock_hz"],
        cv_clock_hz=data["cv"]["clock_hz"],
    )


def _links(m: _Model, coherent: bool = False) -> tuple:
    """User 1's link budgets: (wireless, fiber) on setup 1, else (link,).

    ``coherent`` selects the coherent-detection budgets of setups 1-2 over
    the direct-detection (setups 1-2) or MDI (setups 3-4) ones.
    """
    if coherent:
        common = dict(
            receiver_efficiency=m.receiver_efficiency,
            eps_receiver_measured=m.eps_receiver_measured,
            gate_s=m.detectors.gate_s,
            rx_bandwidth_nm=m.rx_bandwidth_nm,
        )
        if m.setup == 1:
            return (
                cv_budget("1-wireless", h_dc=m.h_dc, n_b1=m.n_b1, **common),
                cv_budget("1-fiber", plan=m.plan, table=m.table, **common),
            )
        return (
            cv_budget(str(m.setup), h_dc=m.h_dc, n_b1=m.n_b1, plan=m.plan, table=m.table,
                      coupling_loss_db=m.coupling_loss_db, **common),
        )
    if m.setup == 1:
        return (
            budget_setup1_wireless(m.h_dc, m.n_b1, m.detectors),
            budget_setup1_fiber(m.plan, m.detectors, m.table, m.rx_bandwidth_nm),
        )
    args = (m.h_dc, m.n_b1, m.plan, m.detectors, m.table)
    kwargs = dict(coupling_loss_db=m.coupling_loss_db, rx_bandwidth_nm=m.rx_bandwidth_nm)
    if m.setup == 2:
        return (budget_setup2(*args, **kwargs),)
    builder = budget_setup3 if m.setup == 3 else budget_setup4
    return (builder(*args, polarization_factor=m.polarization_factor, **kwargs),)


def _evaluate_point(
    spec: SweepSpec, model: _Model, value: float, rates: dict | None = None
) -> SweepPoint:
    """One row of ``spec`` at ``value``, on ``_model(config, spec.setup, spec.case)``.

    ``rates`` maps (link budget, protocol parameters) to the rate already
    evaluated for them in this sweep; it is filled as points are evaluated.
    """
    rates = {} if rates is None else rates
    if spec.protocol == "GG02":
        rate_fn, params, clock = gg02_rate, model.gg02, model.cv_clock_hz
    elif spec.protocol in ("MDI-DS", "MDI-SPP"):
        rate_fn = mdi_rate_ds if spec.protocol == "MDI-DS" else mdi_rate_spp
        params, clock = model.mdi, model.dv_clock_hz
    else:
        rate_fn = ds_bb84_rate if spec.protocol == "DS-BB84" else spp_bb84_rate
        params, clock = model.bb84, model.dv_clock_hz

    if spec.variable == "clock_rate_hz":
        clock = value
    elif spec.variable == "coupling_loss_db":
        model = replace(model, coupling_loss_db=value)
    elif spec.variable == "L0_km":
        # a new plan, so its Raman totals are computed afresh
        model = replace(model, plan=replace(model.plan, feeder_km=value))
    elif spec.variable == "psd_w_per_nm" and model.bulb is not None:
        # a count fixed by the config wins over the bulb's spectral density
        model = replace(model, n_b1=bulb_noise_count(replace(model.bulb, psd_w_per_nm=value)))

    links = _links(model, coherent=spec.protocol == "GG02")
    if spec.variable == "background_noise":
        noise = dict(frs=0.0, brs=0.0, bulb=value)
        if spec.protocol == "GG02":
            noise.update(eps_bulb=2.0 * value / links[0].transmissivity, eps_raman=0.0)
        links = (replace(links[0], **noise),) + links[1:]
    for link in links:
        if (link, params) not in rates:
            rates[link, params] = rate_fn(link, params)
    rate = min(rates[link, params] for link in links)
    report = links[-1]
    return SweepPoint(
        value=value,
        rate_per_pulse=rate,
        rate_bps=rate * clock,
        frs=report.frs,
        brs=report.brs,
        bulb=report.bulb,
        dark=report.dark,
    )


def run_sweep(spec: SweepSpec, config: SimulationConfig) -> SweepResult:
    """Evaluate the sweep point by point and return rows sorted by value."""
    model = _model(config, spec.setup, spec.case)
    rates: dict = {}
    rows = sorted(
        (_evaluate_point(spec, model, v, rates) for v in spec.values()), key=lambda r: r.value
    )
    run_hash = hashlib.sha256(
        (config.canonical_json + repr(sorted(spec.as_dict().items()))).encode()
    ).hexdigest()
    return SweepResult(
        spec=spec,
        rows=tuple(rows),
        config_sha256=run_hash,
        table_sha256=model.table.checksum,
    )


def noise_breakdown(
    setup: int, config: SimulationConfig, l0_values_km: list[float]
) -> NoiseBreakdownResult:
    """Noise components per detector versus feeder length for one setup.

    Setup 1 reports its fiber link (the wireless link does not depend on
    the feeder).
    """
    if setup not in (1, 2, 3, 4):
        raise ValueError(f"setup must be 1-4, got {setup}")
    model = _model(config, setup, config.data["case"])
    rows = []
    for l0 in sorted(l0_values_km):
        plan = replace(model.plan, feeder_km=float(l0))
        link = _links(replace(model, plan=plan))[-1]
        rows.append((float(l0), link.frs, link.brs, link.bulb, link.dark, link.noise_per_detector))
    return NoiseBreakdownResult(
        setup=setup,
        rows=tuple(rows),
        config_sha256=config.sha256,
        table_sha256=model.table.checksum,
    )


def dv_cv_crossover(config: SimulationConfig, setup: int = 2) -> float:
    """Clock rate at which the direct-detection link overtakes the coherent one.

    Both protocols are evaluated at the configured operating point on the
    given setup; the coherent clock stays fixed at its configured value
    while the direct-detection clock varies.  The rate gap is linear in
    that clock, so the crossover is ``cv_bps / dv_rate``.  Returns it in
    Hz, 0.0 when the coherent link yields no key at all, and ``math.inf``
    when the crossover lies above ``CROSSOVER_CLOCK_RANGE_HZ``.  A
    crossover below the range is returned as is.
    """
    if setup not in (1, 2):
        raise ValueError(f"the crossover compares links on setups 1-2, not {setup}")
    model = _model(config, setup, config.data["case"])
    dv_rate = min(ds_bb84_rate(link, model.bb84) for link in _links(model))
    cv_rate = min(gg02_rate(link, model.gg02) for link in _links(model, coherent=True))
    cv_bps = cv_rate * model.cv_clock_hz

    if cv_bps == 0.0:
        return 0.0
    if dv_rate == 0.0:
        return math.inf
    clock = cv_bps / dv_rate
    return math.inf if clock > CROSSOVER_CLOCK_RANGE_HZ[1] else clock


def emit_csv(result: SweepResult | NoiseBreakdownResult, path: str) -> None:
    """Write a result as CSV with LF endings, byte-deterministic per config."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(result.csv_text())
