"""Parameter sweeps, noise decomposition and CSV emission.

A sweep evaluates one (setup, protocol) pair over a grid of one variable,
holding everything else at the configured values.  Points are independent
pure evaluations made in grid order; every point shares the run's parsed
Raman table, and two runs of the same configuration produce byte-identical
CSV output.

Conventions used in the result rows:

* setup 1 combines its two links by XOR, so its key rate is the minimum of
  the wireless and fiber link rates; the reported noise breakdown is that
  of the fiber link (the wireless link has no dependence on the swept
  fiber quantities).
* For the coherent protocol the frs/brs/bulb columns report the photon
  counts feeding the excess-noise mapping (the bulb count already filtered
  to the local oscillator's mode), and the dark column is zero because
  homodyne detection has no dark counts.
* In ``background_noise`` sweeps the swept count replaces the modelled
  bulb and Raman noise: it is the total background per detector for the
  direct-detection protocols and per spatio-temporal mode for the coherent
  one; it lands in the bulb column of the breakdown.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as _lightspeed, h as _planck

from .budget import (
    CvLinkBudget,
    LinkBudget,
    MdiLinkBudget,
    budget_setup1_fiber,
    budget_setup1_wireless,
    budget_setup2,
    budget_setup3,
    budget_setup4,
    cv_budget,
    fiber_transmittance,
    raman_totals_setup1,
)
from .config import SimulationConfig
from .owc import bulb_noise_count, los_dc_gain
from .protocols import (
    ds_bb84_rate,
    gg02_rate,
    mdi_rate_ds,
    mdi_rate_spp,
    spp_bb84_rate,
)

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

# Config leaf each swept variable replaces; clock_rate_hz picks dv or cv by
# protocol, and background_noise replaces modelled noise instead of a leaf.
_SWEPT_LEAVES = {
    "coupling_loss_db": "link.coupling_loss_db",
    "L0_km": "network.feeder_km",
    "psd_w_per_nm": "bulb.psd_w_per_nm",
}


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


def _dv_budget(cfg: SimulationConfig, setup: int, background: float | None):
    """Link budget(s) for the direct-detection protocols.

    Returns a single budget for setup 2 and a (wireless, fiber) pair for
    setup 1.
    """
    det = cfg.detectors()
    dark = det.dark_count_per_pulse
    plan = cfg.plan()
    scenario = cfg.scenario()
    if setup == 1:
        if background is None:
            wireless = budget_setup1_wireless(
                scenario,
                cfg.bulb_model(cfg.data["link"]["wireless_wavelength_nm"]),
                det,
                n_b1_override=cfg.n_b1_override(),
            )
        else:
            wireless = LinkBudget(
                transmissivity=los_dc_gain(scenario) * det.eta_wireless / 2.0,
                bulb=background,
                dark=dark,
            )
        fiber = budget_setup1_fiber(plan, det, cfg.raman_table(), cfg.data["network"]["rx_bandwidth_nm"])
        return wireless, fiber
    if setup == 2:
        if background is None:
            return budget_setup2(
                scenario,
                cfg.bulb_model(plan.quantum_nm[0]),
                plan,
                det,
                cfg.raman_table(),
                coupling_loss_db=cfg.data["link"]["coupling_loss_db"],
                rx_bandwidth_nm=cfg.data["network"]["rx_bandwidth_nm"],
                n_b1_override=cfg.n_b1_override(),
            )
        eta_coup = 10.0 ** (-cfg.data["link"]["coupling_loss_db"] / 10.0)
        eta_fib = fiber_transmittance(
            plan.feeder_km, plan.drop_km[0], plan.attenuation.db_per_km, plan.awg_insertion_loss_db
        )
        return LinkBudget(
            transmissivity=los_dc_gain(scenario) * eta_coup * eta_fib * det.eta_telecom / 2.0,
            bulb=background,
            dark=dark,
        )
    raise ValueError(f"direct-detection budgets exist for setups 1-2, not {setup}")


def _mdi_budget(cfg: SimulationConfig, setup: int, background: float | None) -> MdiLinkBudget:
    det = cfg.detectors()
    plan = cfg.plan()
    scenario = cfg.scenario()
    builder = budget_setup3 if setup == 3 else budget_setup4
    link = builder(
        scenario,
        cfg.bulb_model(plan.quantum_nm[0]),
        plan,
        det,
        cfg.raman_table(),
        coupling_loss_db=cfg.data["link"]["coupling_loss_db"],
        rx_bandwidth_nm=cfg.data["network"]["rx_bandwidth_nm"],
        polarization_factor=cfg.data["link"]["polarization_factor"],
        n_b1_override=cfg.n_b1_override(),
    )
    if background is None:
        return link
    return MdiLinkBudget(
        eta_alice=link.eta_alice,
        eta_bob=link.eta_bob,
        bulb=background,
        dark=det.dark_count_per_pulse,
        polarization_factor=link.polarization_factor,
    )


def _cv_budget(cfg: SimulationConfig, setup: int, background: float | None):
    """CV budget(s): single for setup 2, (wireless, fiber) pair for setup 1."""
    cv = cfg.data["cv"]
    plan = cfg.plan()
    scenario = cfg.scenario()
    common = dict(
        receiver_efficiency=cv["receiver_efficiency"],
        eps_receiver_measured=cv["eps_receiver_measured"],
        gate_s=cfg.gate_s,
        rx_bandwidth_nm=cfg.data["network"]["rx_bandwidth_nm"],
    )
    if setup == 1:
        if background is None:
            wireless = cv_budget(
                "1-wireless",
                scenario=scenario,
                bulb=cfg.bulb_model(cfg.data["link"]["wireless_wavelength_nm"]),
                n_b1_override=cfg.n_b1_override(),
                **common,
            )
        else:
            h_dc = los_dc_gain(scenario)
            wireless = CvLinkBudget(
                transmissivity=h_dc,
                eps_bulb=2.0 * background / h_dc,
                eps_receiver=cv["eps_receiver_measured"] / (h_dc * cv["receiver_efficiency"]),
            )
        fiber = cv_budget("1-fiber", plan=plan, table=cfg.raman_table(), **common)
        return wireless, fiber
    if setup == 2:
        if background is None:
            return cv_budget(
                "2",
                scenario=scenario,
                bulb=cfg.bulb_model(plan.quantum_nm[0]),
                plan=plan,
                table=cfg.raman_table(),
                coupling_loss_db=cfg.data["link"]["coupling_loss_db"],
                n_b1_override=cfg.n_b1_override(),
                **common,
            )
        eta_coup = 10.0 ** (-cfg.data["link"]["coupling_loss_db"] / 10.0)
        eta_fib = fiber_transmittance(
            plan.feeder_km, plan.drop_km[0], plan.attenuation.db_per_km, plan.awg_insertion_loss_db
        )
        eta_ch = los_dc_gain(scenario) * eta_coup * eta_fib
        return CvLinkBudget(
            transmissivity=eta_ch,
            eps_bulb=2.0 * background / eta_ch,
            eps_receiver=cv["eps_receiver_measured"] / (eta_ch * cv["receiver_efficiency"]),
        )
    raise ValueError(f"the coherent protocol runs on setups 1-2, not {setup}")


def _cv_noise_counts(cfg: SimulationConfig, setup: int, background: float | None):
    """(frs, brs, bulb) photon counts reported for coherent-protocol rows."""
    if background is not None:
        return 0.0, 0.0, background
    plan = cfg.plan()
    fwd, bwd = raman_totals_setup1(plan, cfg.raman_table(), cfg.data["network"]["rx_bandwidth_nm"])
    per_mw = 1e-3 * cfg.gate_s * (plan.quantum_nm[0] * 1e-9) / (_planck * _lightspeed)
    n_b1 = cfg.n_b1_override()
    if n_b1 is None:
        wavelength = (
            cfg.data["link"]["wireless_wavelength_nm"] if setup == 1 else plan.quantum_nm[0]
        )
        n_b1 = bulb_noise_count(cfg.bulb_model(wavelength))
    return fwd * per_mw, bwd * per_mw, n_b1 / 2.0


def _evaluate_point(spec: SweepSpec, base_config: SimulationConfig, value: float) -> SweepPoint:
    changes = {"case": spec.case}
    background = value if spec.variable == "background_noise" else None
    if spec.variable == "clock_rate_hz":
        changes["cv.clock_hz" if spec.protocol == "GG02" else "dv.clock_hz"] = value
    elif background is None:
        changes[_SWEPT_LEAVES[spec.variable]] = value
    cfg = base_config.replaced(changes)

    if spec.protocol in ("DS-BB84", "SPP-BB84"):
        rate_fn = ds_bb84_rate if spec.protocol == "DS-BB84" else spp_bb84_rate
        params = cfg.bb84_params()
        clock = cfg.data["dv"]["clock_hz"]
        budget = _dv_budget(cfg, spec.setup, background)
        if spec.setup == 1:
            wireless, fiber = budget
            rate = min(rate_fn(wireless, params), rate_fn(fiber, params))
            report = fiber
        else:
            rate = rate_fn(budget, params)
            report = budget
        frs, brs, bulb, dark = report.frs, report.brs, report.bulb, report.dark
    elif spec.protocol == "GG02":
        params = cfg.gg02_params()
        clock = cfg.data["cv"]["clock_hz"]
        budget = _cv_budget(cfg, spec.setup, background)
        if spec.setup == 1:
            wireless, fiber = budget
            rate = min(gg02_rate(wireless, params), gg02_rate(fiber, params))
        else:
            rate = gg02_rate(budget, params)
        frs, brs, bulb = _cv_noise_counts(cfg, spec.setup, background)
        dark = 0.0
    else:  # MDI-DS / MDI-SPP
        rate_fn = mdi_rate_ds if spec.protocol == "MDI-DS" else mdi_rate_spp
        params = cfg.mdi_params()
        clock = cfg.data["dv"]["clock_hz"]
        link = _mdi_budget(cfg, spec.setup, background)
        rate = rate_fn(link, params)
        frs, brs, bulb, dark = link.frs, link.brs, link.bulb, link.dark

    return SweepPoint(
        value=value,
        rate_per_pulse=rate,
        rate_bps=rate * clock,
        frs=frs,
        brs=brs,
        bulb=bulb,
        dark=dark,
    )


def run_sweep(spec: SweepSpec, config: SimulationConfig) -> SweepResult:
    """Evaluate the sweep point by point and return rows sorted by value."""
    rows = sorted((_evaluate_point(spec, config, v) for v in spec.values()), key=lambda r: r.value)
    run_hash = hashlib.sha256(
        (config.canonical_json + repr(sorted(spec.as_dict().items()))).encode()
    ).hexdigest()
    return SweepResult(
        spec=spec,
        rows=tuple(rows),
        config_sha256=run_hash,
        table_sha256=config.raman_table().checksum,
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
    rows = []
    for l0 in sorted(l0_values_km):
        cfg = config.replaced({"network.feeder_km": float(l0)})
        if setup in (1, 2):
            link = _dv_budget(cfg, setup, None)
            if setup == 1:
                link = link[1]
        else:
            link = _mdi_budget(cfg, setup, None)
        rows.append((float(l0), link.frs, link.brs, link.bulb, link.dark, link.noise_per_detector))
    return NoiseBreakdownResult(
        setup=setup,
        rows=tuple(rows),
        config_sha256=config.sha256,
        table_sha256=config.raman_table().checksum,
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
    dv_links = _dv_budget(config, setup, None)
    params = config.bb84_params()
    if setup == 1:
        dv_rate = min(ds_bb84_rate(dv_links[0], params), ds_bb84_rate(dv_links[1], params))
    else:
        dv_rate = ds_bb84_rate(dv_links, params)
    cv_links = _cv_budget(config, setup, None)
    gg = config.gg02_params()
    if setup == 1:
        cv_rate = min(gg02_rate(cv_links[0], gg), gg02_rate(cv_links[1], gg))
    else:
        cv_rate = gg02_rate(cv_links, gg)
    cv_bps = cv_rate * config.data["cv"]["clock_hz"]

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
