"""Parameter sweeps, noise decomposition and CSV emission.

A sweep evaluates one (setup, protocol) pair over a grid of one variable,
holding everything else at the configured values.  Points are pure
evaluations made in grid order, and two runs of the same configuration
produce byte-identical CSV output.  What a point does not change, a run
evaluates once:

* the model objects (fiber plan with its Raman table, detectors,
  protocol parameters) and the room's two numbers, its line-of-sight gain
  and the bulb background count, each when the run first reads it;
* one point function, which fixes the protocol's rate function,
  parameters, clock and coherent flag and the swept variable's rule for
  user 1's links: an ``L0_km`` point builds them on its feeder's plan
  (``DwdmPlan.with_feeder``, which shares the run's grids, table and every
  feeder-independent Raman factor, so the point computes only its launch
  powers and feeder terms before the sums), a ``coupling_loss_db`` point
  at its loss, a ``psd_w_per_nm`` point at its bulb count, and a
  background point replaces the noise of the run's first link; every
  other point, whose value no budget reads, takes the run's own links (no
  setup-1 budget reads the coupling loss, and setup 1's room link is
  built once unless the point changes the bulb count);
* a plan's Raman totals, with one launch power per distinct drop length;
* each link's rate, once per distinct link budget, so a clock sweep rates
  each link once;
* each CSV cell's string: rows are formatted column by column, and a cell
  equal to the one above it reuses its string.

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
from collections import namedtuple
from functools import cached_property

from .budget import (
    DwdmPlan,
    budget_setup1_fiber,
    budget_setup1_wireless,
    budget_setup2,
    budget_setup3,
    budget_setup4,
    cv_budget,
)
from .config import SimulationConfig
from .numerics import geomspace, linspace
from .owc import CASE_PRESETS, BulbNoiseModel, bulb_noise_count, los_dc_gain
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

__all__ = [
    "PROTOCOLS",
    "SETUPS",
    "COHERENT_SETUPS",
    "SWEEP_VARIABLES",
    "MAX_POINTS",
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
SETUPS = tuple(_SETUP_PROTOCOLS)
COHERENT_SETUPS = tuple(setup for setup, names in _SETUP_PROTOCOLS.items() if "GG02" in names)

CROSSOVER_CLOCK_MAX_HZ = 1e10

# The most points a ``--points`` grid may have.  Each point is one CSV row
# and up to about a millisecond of work, so this is minutes of run time and
# about 10 MB of CSV, past any figure; an unbounded count would make the grid
# allocate gigabytes before its first point.
MAX_POINTS = 100_000


class SweepSpec(namedtuple(
    "SweepSpec", "setup protocol case variable start stop points log_spacing", defaults=(False,)
)):
    """What to sweep: one protocol on one setup over one variable."""

    __slots__ = ()

    def __init__(self, *_, **__):
        if self.setup not in SETUPS:
            raise ValueError(f"setup must be one of {list(SETUPS)}, got {self.setup}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; choose from {PROTOCOLS}")
        if self.protocol not in _SETUP_PROTOCOLS[self.setup]:
            raise ValueError(
                f"protocol {self.protocol} does not run on setup {self.setup}: "
                f"direct-detection/coherent protocols use setups 1-2, "
                f"untrusted-measurement protocols use setups 3-4"
            )
        if self.case not in CASE_PRESETS:
            raise ValueError(f"case must be one of {sorted(CASE_PRESETS)}, got {self.case}")
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        if not 2 <= self.points <= MAX_POINTS:
            raise ValueError(
                f"a sweep needs 2 to {MAX_POINTS} points (--points), got {self.points}")
        for option, value in (("--start", self.start), ("--stop", self.stop)):
            if not math.isfinite(value):
                raise ValueError(f"sweep range must be finite; {option} is {value}")
        if not self.start < self.stop:
            raise ValueError(f"sweep range must satisfy start < stop; --start is {self.start}, "
                             f"--stop is {self.stop}")
        if self.log_spacing and self.start <= 0.0:
            raise ValueError(f"log spacing needs a positive start value; --start is {self.start}")
        if self.variable == "clock_rate_hz" and self.start <= 0.0:
            raise ValueError(f"clock_rate_hz sweeps need start > 0; --start is {self.start}")
        if self.start < 0.0:
            raise ValueError(f"{self.variable} sweeps need start >= 0; --start is {self.start}")

    def values(self) -> list[float]:
        return (geomspace if self.log_spacing else linspace)(self.start, self.stop, self.points)


def _csv_text(result, title: str, header: str) -> str:
    """The CSV of ``result``: its two provenance lines, ``title``, ``header``, then its rows,
    every number in ``%.17e``, which round-trips a double.  A cell equal to the one above
    it, and of its sign if zero, reuses that string; NaN equals nothing, so it never does.
    """
    columns = []
    for column in zip(*result.rows):
        cells, last = [], None
        for x in column:
            if x != last or x == 0.0 and math.copysign(1.0, x) != math.copysign(1.0, last):
                text, last = "%.17e" % x, x
            cells.append(text)
        columns.append(cells)
    lines = [f"# config_sha256={result.config_sha256}", f"# table_sha256={result.table_sha256}",
             title, header, *map(",".join, zip(*columns))]
    return "\n".join(lines) + "\n"


class SweepPoint(namedtuple("SweepPoint", "value rate_per_pulse rate_bps frs brs bulb dark")):
    __slots__ = ()


class SweepResult(namedtuple("SweepResult", "spec rows config_sha256 table_sha256")):
    """A ``SweepSpec``'s rows, one ``SweepPoint`` each, and its provenance."""

    __slots__ = ()

    def csv_text(self) -> str:
        spec = self.spec
        return _csv_text(self, f"# setup={spec.setup} protocol={spec.protocol} case={spec.case}",
                         f"{spec.variable},key_rate_per_pulse,key_rate_bps,n_frs_per_pulse,"
                         "n_brs_per_pulse,n_bulb_per_pulse,n_dark_per_pulse")


class NoiseBreakdownResult(namedtuple(
    "NoiseBreakdownResult", "setup rows config_sha256 table_sha256"
)):
    """A setup's noise rows, each (l0, frs, brs, bulb, dark, total), and their provenance."""

    __slots__ = ()

    def csv_text(self) -> str:
        return _csv_text(self, f"# setup={self.setup}", "l0_km,n_frs_per_pulse,n_brs_per_pulse,"
                         "n_bulb_per_pulse,n_dark_per_pulse,n_total_per_pulse")


class _Model:
    """What user 1's links on one setup are built from, resolved once per run.

    ``h_dc`` is the room's line-of-sight gain and ``n_b1`` the bulb
    background per gate at the wavelength of the setup's room link;
    ``bulb`` is the light source behind ``n_b1``, None when the config
    fixes the count.  These and the protocol parameters are built on first
    read, so a run builds only what its command reads: no ``noise`` run
    builds protocol parameters, and a setup-1 one, which reports the fiber
    link, never resolves the room.  ``wireless`` holds setup 1's room link
    at these values by the coherent flag, built on first use (``_wireless``).
    """

    def __init__(self, config: SimulationConfig, setup: int, case: int):
        data = config.data
        link = data["link"]
        self.config, self.setup, self.case = config, setup, case
        self.plan = config.plan()
        self.detectors = config.detectors()
        self.coupling_loss_db = link["coupling_loss_db"]
        self.polarization_factor = link["polarization_factor"]
        self.eps_receiver_measured = data["cv"]["eps_receiver_measured"]
        self.dv_clock_hz = data["dv"]["clock_hz"]
        self.cv_clock_hz = data["cv"]["clock_hz"]
        self.wireless: dict = {}

    @cached_property
    def h_dc(self) -> float:
        return los_dc_gain(self.config.scenario(self.case))

    @cached_property
    def bulb(self) -> BulbNoiseModel | None:
        data = self.config.data
        if data["bulb"]["n_b1_per_pulse"] is not None:
            return None
        room_nm = (data["link"]["wireless_wavelength_nm"] if self.setup == 1
                   else self.plan.quantum_nm[0])
        return self.config.bulb_model(room_nm)

    @cached_property
    def n_b1(self) -> float:
        if self.bulb is None:
            return self.config.data["bulb"]["n_b1_per_pulse"]
        return bulb_noise_count(self.bulb)

    @cached_property
    def bb84(self) -> Bb84Params:
        return self.config.bb84_params()

    @cached_property
    def mdi(self) -> MdiParams:
        return self.config.mdi_params()

    @cached_property
    def gg02(self) -> Gg02Params:
        return self.config.gg02_params()


def _cv_receiver(m: _Model) -> dict:
    """The coherent receiver's arguments of ``cv_budget``."""
    return dict(receiver_efficiency=m.gg02.receiver_efficiency,
                eps_receiver_measured=m.eps_receiver_measured, gate_s=m.detectors.gate_s)


def _wireless(m: _Model, n_b1: float | None, coherent: bool):
    """Setup 1's room link at the bulb count ``n_b1``, or at the model's once per run for None."""
    if n_b1 is None:
        if coherent not in m.wireless:
            m.wireless[coherent] = _wireless(m, m.n_b1, coherent)
        return m.wireless[coherent]
    if coherent:
        return cv_budget("1-wireless", h_dc=m.h_dc, n_b1=n_b1, **_cv_receiver(m))
    return budget_setup1_wireless(m.h_dc, n_b1, m.detectors)


def _links(m: _Model, plan: DwdmPlan, coupling_loss_db: float, n_b1: float | None = None,
           coherent: bool = False) -> tuple:
    """User 1's links on ``plan``: (wireless, fiber) on setup 1, else (link,).

    ``coupling_loss_db`` and ``n_b1`` (the bulb background; None for the
    model's) stand in for the model's, so a point passes what its value
    changes.  ``coherent`` selects the coherent-detection budgets of setups
    1-2 over the direct-detection (setups 1-2) or MDI (setups 3-4) ones.
    """
    if m.setup == 1:
        wireless = _wireless(m, n_b1, coherent)
        return wireless, (cv_budget("1-fiber", plan=plan, **_cv_receiver(m)) if coherent
                          else budget_setup1_fiber(plan, m.detectors))
    n_b1 = m.n_b1 if n_b1 is None else n_b1
    if coherent:
        return (cv_budget(str(m.setup), h_dc=m.h_dc, n_b1=n_b1, plan=plan,
                          coupling_loss_db=coupling_loss_db, **_cv_receiver(m)),)
    args = (m.h_dc, n_b1, plan, m.detectors, coupling_loss_db)
    if m.setup == 2:
        return (budget_setup2(*args),)
    builder = budget_setup3 if m.setup == 3 else budget_setup4
    return (builder(*args, polarization_factor=m.polarization_factor),)


def _point_function(spec: SweepSpec, model: _Model, rates: dict):
    """The function from a value to its row of ``spec``, with what the points share
    resolved once: the rate function, parameters, clock and coherent flag of the
    protocol, and the swept variable's rule for user 1's links.  ``rates`` maps each
    link budget to its rate in this run and is filled as points are evaluated.
    """
    coherent = spec.protocol == "GG02"
    rate_fn, param_set = {"DS-BB84": (ds_bb84_rate, "bb84"), "SPP-BB84": (spp_bb84_rate, "bb84"),
                          "GG02": (gg02_rate, "gg02"), "MDI-DS": (mdi_rate_ds, "mdi"),
                          "MDI-SPP": (mdi_rate_spp, "mdi")}[spec.protocol]
    params = getattr(model, param_set)
    clock = model.cv_clock_hz if coherent else model.dv_clock_hz
    variable, plan, loss = spec.variable, model.plan, model.coupling_loss_db
    if variable == "coupling_loss_db" and model.setup != 1:
        def links_at(value):
            return _links(model, plan, value, coherent=coherent)
    elif variable == "L0_km":
        def links_at(value):  # a new plan, so its Raman totals are computed afresh
            return _links(model, plan.with_feeder(value), loss, coherent=coherent)
    elif variable == "psd_w_per_nm" and model.bulb is not None:
        bulb = model.bulb._asdict()  # a count fixed by the config wins over the bulb's density

        def links_at(value):
            n_b1 = bulb_noise_count(BulbNoiseModel(**{**bulb, "psd_w_per_nm": value}))
            return _links(model, plan, loss, n_b1, coherent)
    elif variable == "background_noise":
        first, *rest = _links(model, plan, loss, coherent=coherent)
        fields = first._asdict()

        def links_at(value):
            noise = dict(frs=0.0, brs=0.0, bulb=value)
            if coherent:
                noise.update(eps_bulb=2.0 * value / first.transmissivity, eps_raman=0.0)
            # built through the class so the noise check runs; ``_replace`` would skip it
            return (type(first)(**{**fields, **noise}), *rest)
    else:  # a clock, a PSD under a fixed count or a setup-1 coupling loss: no budget reads it
        links = _links(model, plan, loss, coherent=coherent)

        def links_at(value):
            return links
    clock_swept = variable == "clock_rate_hz"

    def point(value: float) -> SweepPoint:
        rate = None
        for link in links_at(value):
            link_rate = rates.get(link)
            if link_rate is None:
                link_rate = rates[link] = rate_fn(link, params)
            if rate is None or link_rate < rate:
                rate = link_rate
        # ``link`` is the last link, whose noise the row reports
        return SweepPoint(value, rate, rate * (value if clock_swept else clock),
                          link.frs, link.brs, link.bulb, link.dark)

    return point


def _evaluate_point(spec: SweepSpec, model: _Model, value: float) -> SweepPoint:
    """One row of ``spec`` at ``value``, from a fresh point function."""
    return _point_function(spec, model, {})(value)


def run_sweep(spec: SweepSpec, config: SimulationConfig) -> SweepResult:
    """Evaluate the sweep point by point and return rows sorted by value: both grids are
    non-decreasing, so grid order is that order."""
    model = _Model(config, spec.setup, spec.case)
    rows = map(_point_function(spec, model, {}), spec.values())
    run_hash = hashlib.sha256(
        (config.canonical_json + repr(sorted(spec._asdict().items()))).encode()
    ).hexdigest()
    return SweepResult(
        spec=spec,
        rows=tuple(rows),
        config_sha256=run_hash,
        table_sha256=model.plan.raman_table.checksum,
    )


def noise_breakdown(
    setup: int, config: SimulationConfig, l0_values_km: list[float]
) -> NoiseBreakdownResult:
    """Noise components per detector versus feeder length for one setup.

    Setup 1 reports its fiber link (the wireless link does not depend on
    the feeder).
    """
    if setup not in SETUPS:
        raise ValueError(f"setup must be one of {list(SETUPS)}, got {setup}")
    model = _Model(config, setup, config.data["case"])
    rows = []
    for l0 in sorted(l0_values_km):
        plan = model.plan.with_feeder(float(l0))
        link = (budget_setup1_fiber(plan, model.detectors) if setup == 1
                else _links(model, plan, model.coupling_loss_db)[0])
        rows.append((float(l0), link.frs, link.brs, link.bulb, link.dark, link.noise_per_detector))
    return NoiseBreakdownResult(
        setup=setup,
        rows=tuple(rows),
        config_sha256=config.sha256,
        table_sha256=model.plan.raman_table.checksum,
    )


def dv_cv_crossover(config: SimulationConfig, setup: int = 2) -> float:
    """Clock rate at which the direct-detection link overtakes the coherent one.

    Both protocols are evaluated at the configured operating point on the
    given setup; the coherent clock stays fixed at its configured value
    while the direct-detection clock varies.  The rate gap is linear in
    that clock, so the crossover is ``cv_bps / dv_rate``.  Returns it in
    Hz, 0.0 when the coherent link yields no key at all, and ``math.inf``
    when the crossover lies above ``CROSSOVER_CLOCK_MAX_HZ``.
    """
    if setup not in COHERENT_SETUPS:
        raise ValueError(f"the crossover compares setups {list(COHERENT_SETUPS)}, not {setup}")
    model = _Model(config, setup, config.data["case"])
    plan, loss = model.plan, model.coupling_loss_db
    dv_rate = min(ds_bb84_rate(link, model.bb84) for link in _links(model, plan, loss))
    cv_rate = min(gg02_rate(link, model.gg02) for link in _links(model, plan, loss, coherent=True))
    cv_bps = cv_rate * model.cv_clock_hz

    if cv_bps == 0.0:
        return 0.0
    if dv_rate == 0.0:
        return math.inf
    clock = cv_bps / dv_rate
    return math.inf if clock > CROSSOVER_CLOCK_MAX_HZ else clock


def emit_csv(result: SweepResult | NoiseBreakdownResult, path: str) -> None:
    """Write a result as CSV with LF endings, byte-deterministic per config."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(result.csv_text())
