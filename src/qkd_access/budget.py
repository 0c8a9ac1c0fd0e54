"""Per-setup link budgets: transmissivity and background noise for user 1.

Four network setups are modelled:

* setup 1 -- trusted relay on the ceiling; independent wireless (880 nm
  band) and fiber (telecom band) links whose keys are combined by XOR;
* setup 2 -- wireless signal coupled straight into the feeder fiber and
  measured at the central office;
* setup 3 -- untrusted Bell-state measurement at the user's end;
* setup 4 -- untrusted Bell-state measurement at the PON splitting point.

Each budget folds the wireless transmittance, fiber/AWG losses, Raman
scattering from the other users' classical channels, the bulb background
and detector dark counts into either (transmissivity, noise per detector)
for direct-detection protocols or (transmissivity, excess noise) for the
coherent-detection one.  The room enters as two numbers: its line-of-sight
gain ``h_dc`` and the bulb background ``n_b1`` in photons per gate at the
room link's wavelength, as ``los_dc_gain`` and ``bulb_noise_count`` of the
room model compute them.  Key-rate formulas live in ``protocols``.

The classical launch power follows a fixed receiver-sensitivity rule: each
data transmitter raises its power with path loss so the received power
stays constant, which is why Raman noise grows with fiber length.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .defaults import DEFAULTS, GATE_S, KeyTable, keyed_record
from .numerics import AttenuationCoefficient, db_to_linear
from .raman import backward_length_km, photons_per_gate

__all__ = [
    "DetectorParams",
    "DwdmPlan",
    "LinkBudget",
    "CvLinkBudget",
    "MdiLinkBudget",
    "launch_power",
    "fiber_transmittance",
    "raman_totals_setup1",
    "raman_totals_setup3",
    "raman_totals_setup4",
    "budget_setup1_wireless",
    "budget_setup1_fiber",
    "budget_setup2",
    "budget_setup3",
    "budget_setup4",
    "cv_budget",
]

_LINK = DEFAULTS["link"]


class DetectorParams(keyed_record("DetectorParams", KeyTable(
    eta_wireless="dv.eta_wireless", eta_telecom="dv.eta_telecom",
    dark_count_per_pulse="dv.dark_count_per_pulse", gate_s=GATE_S,
))):
    """Single-photon detector parameters for the DV receivers.

    ``eta_wireless`` is the Si APD efficiency in the 880 nm band and
    ``eta_telecom`` the InGaAs APD efficiency in the 1550 nm band.
    """

    __slots__ = ()

    def __init__(self, *_, **__):
        for name in ("eta_wireless", "eta_telecom"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0.0 <= self.dark_count_per_pulse < 1.0:
            raise ValueError("dark count per pulse must be in [0, 1)")
        if self.gate_s <= 0.0:
            raise ValueError("gate duration must be > 0")


class DwdmPlan(namedtuple(
    "DwdmPlan",
    "quantum_nm data_nm raman_table rx_bandwidth_nm feeder_km drop_km awg_insertion_loss_db "
    "attenuation sensitivity_dbm",
)):
    """Wavelength plan, fiber layout and quantum receiver of the access network.

    ``quantum_nm[0]`` / ``data_nm[0]`` belong to user 1, the user whose key
    rate is evaluated.  ``raman_table`` is the fiber's Raman cross section
    and ``rx_bandwidth_nm`` the quantum receiver's filter width, so the plan
    fixes everything the Raman background depends on; a grid the table does
    not cover is rejected where the plan is built.  ``drop_km[k]`` is the
    distance of user k+1 from the splitting point, the nominal drop for
    every user when empty; ``feeder_km`` is the shared feeder to the central
    office.  ``KEYS`` and ``GRID_KEYS`` map the fields and ``from_grid``'s
    grid arguments to their config keys and give their defaults.

    ``with_feeder`` gives a sibling plan for another feeder length.  A plan
    and its siblings form a family that shares one set of feeder-independent
    Raman inputs, computed once when the first plan is built: the attenuation
    per km, the two-multiplexer transmittance, the length and attenuation
    exp(-alpha L) of each distinct drop, user 1's cross section, and each
    other user's drop index and cross section.  A sibling computes only
    what its feeder changes.  ``raman_totals`` computes each kind of Raman
    totals once per plan.  The memo and the shared inputs are attributes, not
    fields, so they take no part in equality, hashing or the repr.
    """

    KEYS = KeyTable(
        rx_bandwidth_nm="network.rx_bandwidth_nm", feeder_km="network.feeder_km",
        drop_km="network.drop_km", awg_insertion_loss_db="network.awg_insertion_loss_db",
        attenuation=("network.attenuation_db_per_km", AttenuationCoefficient),
        sensitivity_dbm="network.sensitivity_dbm",
    )
    GRID_KEYS = KeyTable(n_users="network.n_users", quantum_start_nm="network.quantum_start_nm",
                         data_start_nm="network.data_start_nm",
                         spacing_nm="network.channel_spacing_nm")

    def __new__(cls, quantum_nm, data_nm, raman_table, rx_bandwidth_nm,
                feeder_km=KEYS.nominal["feeder_km"], drop_km=(),
                awg_insertion_loss_db=KEYS.nominal["awg_insertion_loss_db"],
                attenuation=KEYS.nominal["attenuation"],
                sensitivity_dbm=KEYS.nominal["sensitivity_dbm"]):
        drop_km = drop_km or (cls.KEYS.nominal["drop_km"],) * len(quantum_nm)
        return super().__new__(cls, quantum_nm, data_nm, raman_table, rx_bandwidth_nm, feeder_km,
                               drop_km, awg_insertion_loss_db, attenuation, sensitivity_dbm)

    def __init__(self, *_, **__):
        if len(self.quantum_nm) != len(self.data_nm) or not self.quantum_nm:
            raise ValueError("quantum and data grids must be non-empty and equally sized")
        if set(self.quantum_nm) & set(self.data_nm):
            raise ValueError("quantum and data grids must be disjoint")
        if min(self.quantum_nm) <= 0.0 or min(self.data_nm) <= 0.0:
            raise ValueError("grid wavelengths must be > 0")
        if len(self.drop_km) != len(self.quantum_nm):
            raise ValueError("need one drop length per user")
        if self.feeder_km < 0.0 or min(self.drop_km) < 0.0:
            raise ValueError("fiber lengths must be >= 0")
        if self.awg_insertion_loss_db < 0.0:
            raise ValueError("AWG insertion loss must be >= 0")
        if self.rx_bandwidth_nm <= 0.0:
            raise ValueError(f"receiver bandwidth must be > 0, got {self.rx_bandwidth_nm}")
        # The feeder-independent inputs of the Raman sums (see ``_drop_terms``);
        # ``slot`` keys each distinct drop length, as its first user gives it.
        slot: dict = {}
        for km in self.drop_km:
            slot.setdefault(km, len(slot))
        gamma = self.raman_table.grid_gammas(self.data_nm, self.quantum_nm[0])
        alpha = self.attenuation.per_km
        self._inputs = (alpha, 10.0 ** (-2.0 * self.awg_insertion_loss_db / 10.0), tuple(slot),
                        tuple([math.exp(-alpha * km) for km in slot]), gamma[0],
                        tuple(zip(map(slot.__getitem__, self.drop_km[1:]), gamma[1:])))
        self._raman = {}

    @classmethod
    def from_grid(cls, n_users: int = GRID_KEYS.nominal["n_users"],
                  quantum_start_nm: float = GRID_KEYS.nominal["quantum_start_nm"],
                  data_start_nm: float = GRID_KEYS.nominal["data_start_nm"],
                  spacing_nm: float = GRID_KEYS.nominal["spacing_nm"], **kwargs) -> "DwdmPlan":
        """Build the grids from user 1's wavelengths on a fixed spacing.

        User 1 takes the top wavelength of each band (the quantum channel
        closest to the data band); the remaining users step down from it.
        ``kwargs`` are the other fields, the table and bandwidth among them.
        """
        if n_users < 1:
            raise ValueError("need at least one user")
        quantum = tuple(quantum_start_nm - spacing_nm * k for k in range(n_users))
        data = tuple(data_start_nm - spacing_nm * k for k in range(n_users))
        return cls(quantum_nm=quantum, data_nm=data, **kwargs)

    def with_feeder(self, feeder_km: float) -> "DwdmPlan":
        """This plan with a ``feeder_km`` feeder, rejected as ``DwdmPlan(...)`` rejects it.

        The grids, drops and bandwidth were checked when this plan was built,
        so only the feeder is checked here.  The new plan starts its own
        totals memo and shares this plan's feeder-independent Raman inputs.
        """
        if feeder_km < 0.0:
            raise ValueError("fiber lengths must be >= 0")
        quantum, data, table, bandwidth, _, drop, awg, attenuation, sensitivity = self
        # tuple.__new__ runs neither this class's __new__ nor its checks in __init__
        plan = tuple.__new__(type(self), (quantum, data, table, bandwidth, feeder_km, drop, awg,
                                          attenuation, sensitivity))
        plan._raman, plan._inputs = {}, self._inputs
        return plan

    @property
    def transmittance(self) -> float:
        """User 1's fiber transmittance: feeder, drop and two multiplexer passes."""
        return fiber_transmittance(
            self.feeder_km, self.drop_km[0], self.attenuation.db_per_km, self.awg_insertion_loss_db
        )

    def raman_totals(self, totals) -> tuple[float, float]:
        """``totals(self)``, computed once per plan and totals function."""
        if totals not in self._raman:
            self._raman[totals] = totals(self)
        return self._raman[totals]


class _DetectorNoise:
    """The per-detector counts ``frs``, ``brs``, ``bulb`` and ``dark`` of a budget.

    Each count is >= 0 and their sum stays below one count per pulse.
    """

    __slots__ = ()

    @property
    def noise_per_detector(self) -> float:
        """Background plus dark counts per detector per pulse."""
        return self.frs + self.brs + self.bulb + self.dark


def _check_noise(frs: float, brs: float, bulb: float, dark: float):
    if min(frs, brs, bulb, dark) < 0.0:
        raise ValueError("noise components must be >= 0")
    if frs + brs + bulb + dark >= 1.0:
        raise ValueError("total noise per detector must stay below one count per pulse")


# The link budgets are built once or more per sweep point, so each checks its
# fields in ``__new__``, ahead of building the tuple, rather than in a second
# ``__init__`` call.  ``_make`` and ``_replace`` build the tuple directly and
# skip the checks, as for every record.


class LinkBudget(namedtuple("LinkBudget", "transmissivity frs brs bulb dark"), _DetectorNoise):
    """Transmissivity and per-detector noise consumed by the BB84 formulas."""

    __slots__ = ()

    def __new__(cls, transmissivity, frs=0.0, brs=0.0, bulb=0.0, dark=0.0):
        if not 0.0 <= transmissivity <= 1.0:
            raise ValueError(f"transmissivity must be in [0, 1], got {transmissivity}")
        _check_noise(frs, brs, bulb, dark)
        return tuple.__new__(cls, (transmissivity, frs, brs, bulb, dark))


class MdiLinkBudget(namedtuple(
    "MdiLinkBudget", "eta_alice eta_bob frs brs bulb dark polarization_factor"
), _DetectorNoise):
    """Two-sided budget for the untrusted-measurement setups."""

    __slots__ = ()

    def __new__(cls, eta_alice, eta_bob, frs=0.0, brs=0.0, bulb=0.0, dark=0.0,
                polarization_factor=_LINK["polarization_factor"]):
        for name, value in (("polarization_factor", polarization_factor),
                            ("eta_alice", eta_alice), ("eta_bob", eta_bob)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        _check_noise(frs, brs, bulb, dark)
        return tuple.__new__(cls, (eta_alice, eta_bob, frs, brs, bulb, dark, polarization_factor))


class CvLinkBudget(namedtuple(
    "CvLinkBudget", "transmissivity eps_bulb eps_raman eps_receiver frs brs bulb"
)):
    """Channel transmissivity and input-referred excess noise (shot-noise units).

    ``frs``, ``brs`` and ``bulb`` are the photon counts per gate behind the
    Raman and bulb terms, the bulb count already filtered to the local
    oscillator's mode.
    """

    __slots__ = ()

    def __new__(cls, transmissivity, eps_bulb=0.0, eps_raman=0.0, eps_receiver=0.0, frs=0.0,
                brs=0.0, bulb=0.0):
        if not 0.0 < transmissivity <= 1.0:
            raise ValueError("CV budget needs transmissivity in (0, 1]")
        if min(eps_bulb, eps_raman, eps_receiver) < 0.0:
            raise ValueError("excess-noise components must be >= 0")
        return tuple.__new__(cls, (transmissivity, eps_bulb, eps_raman, eps_receiver, frs, brs,
                                   bulb))

    @property
    def excess_noise(self) -> float:
        return self.eps_bulb + self.eps_raman + self.eps_receiver

    @property
    def dark(self) -> float:
        """Homodyne detection has no dark counts."""
        return 0.0


def launch_power(length_km: float, alpha_db_per_km: float, awg_db: float,
                 sensitivity_dbm: float = DEFAULTS["network"]["sensitivity_dbm"]) -> float:
    """Classical launch power (mW) that meets the receiver sensitivity.

    The transmitter compensates the fiber loss over the full path plus two
    multiplexer passes, so received power is constant regardless of reach.
    """
    if length_km < 0.0:
        raise ValueError(f"path length must be >= 0, got {length_km}")
    exponent = (sensitivity_dbm + alpha_db_per_km * length_km + 2.0 * awg_db) / 10.0
    try:
        return 10.0 ** exponent
    except OverflowError:
        raise OverflowError(
            f"classical launch power 10^{exponent:.6g} mW overflows: lower "
            "network.sensitivity_dbm, network.attenuation_db_per_km, "
            f"network.awg_insertion_loss_db or the {length_km:g} km path length"
        ) from None


def fiber_transmittance(
    feeder_km: float, drop_km: float, alpha_db_per_km: float, awg_db: float
) -> float:
    """End-to-end fiber transmittance including two multiplexer passes."""
    if feeder_km < 0.0 or drop_km < 0.0:
        raise ValueError("fiber lengths must be >= 0")
    return 10.0 ** (-(alpha_db_per_km * (feeder_km + drop_km) + 2.0 * awg_db) / 10.0)


def _drop_terms(plan: DwdmPlan):
    """The inputs of the Raman sums at this plan's feeder.

    Returns (alpha per km; the feeder factors: two-multiplexer transmittance,
    feeder attenuation exp(-alpha L0) and feeder backscatter length; launch
    power in mW and drop attenuation exp(-alpha L) of each distinct drop
    length, user 1's first; user 1's cross section; and (index into those,
    cross section) of every other user, both into user 1's quantum channel).
    Launch power and drop attenuation depend on a user only through its drop
    length, so each is computed once per distinct drop.  Only the launch
    powers and the two feeder terms depend on the feeder; the rest is the
    plan family's, computed once when its first plan was built.
    """
    alpha, awg, drops, drop_att, gamma_own, others = plan._inputs
    feeder, awg_db = plan.feeder_km, plan.awg_insertion_loss_db
    power = [launch_power(feeder + km, plan.attenuation.db_per_km, awg_db, plan.sensitivity_dbm)
             for km in drops]
    return (alpha, awg, math.exp(-alpha * feeder), backward_length_km(alpha, feeder), power,
            drop_att, gamma_own, others)


# The sums below run left to right over the channels with scalar libm
# calls, so each total keeps its last bit.  A forward term is
# P*exp(-alpha L)*L*Gamma*bw and a backward one P*L_eff*Gamma*bw (L_eff from
# ``backward_length_km``), multiplied in that order.  ``_drop_terms`` gives
# the feeder factors (multiplexer transmittance, the feeder's exp(-alpha L0)
# and L_eff) with the per-drop ones.  Within a term the factors before
# Gamma depend on the channel only through its drop length, so their
# product is formed once per distinct drop (``fwd_pre``, ``bwd_pre``) and
# each term is (prefix*Gamma)*bw: the same operations in the same order as
# the whole product, hence the same bits.  Reordering the factors or the
# channels would round differently.  ``sum()`` is not used: from Python
# 3.12 it compensates, which would move the last bit.


def raman_totals_setup1(plan: DwdmPlan) -> tuple[float, float]:
    """Total forward/backward Raman power (mW) at user 1's receiver wavelength,
    for a receiver at the central office (setups 1-fiber and 2).

    Forward noise from user 1 accumulates over its whole path; the other
    users' contributions only count over the shared feeder because the
    multiplexer filters what they generate on their own drops.  Backward
    noise comes from the downstream transmitters at the central office,
    whose light enters the feeder unattenuated.
    """
    alpha, awg, e_feeder, eff_feeder, power, drop_att, gamma_own, others = _drop_terms(plan)
    feeder, own_km, bw = plan.feeder_km, plan.feeder_km + plan.drop_km[0], plan.rx_bandwidth_nm
    fwd = power[0] * math.exp(-alpha * own_km) * own_km * gamma_own * bw
    bwd = power[0] * backward_length_km(alpha, own_km) * gamma_own * bw
    fwd_pre = [p * att * e_feeder * feeder for p, att in zip(power, drop_att)]
    bwd_pre = [p * eff_feeder for p in power]
    for k, g in others:
        fwd += fwd_pre[k] * g * bw
        bwd += bwd_pre[k] * g * bw
    return fwd * awg, bwd * awg


def raman_totals_setup3(plan: DwdmPlan) -> tuple[float, float]:
    """Raman power totals for a measurement module at user 1's premises.

    The other users' noise is generated along the feeder and then crosses
    user 1's drop, hence the common exp(-alpha L_1) attenuation; backward
    contributions start from launch powers already attenuated over the
    contributing user's drop.
    """
    alpha, awg, e_feeder, eff_feeder, power, drop_att, gamma_own, others = _drop_terms(plan)
    feeder, own_km, bw = plan.feeder_km, plan.feeder_km + plan.drop_km[0], plan.rx_bandwidth_nm
    fwd = power[0] * math.exp(-alpha * own_km) * own_km * gamma_own * bw
    bwd = power[0] * backward_length_km(alpha, own_km) * gamma_own * bw
    fwd_pre = [p * e_feeder * feeder for p in power]
    bwd_pre = [p * att * eff_feeder for p, att in zip(power, drop_att)]
    # -0.0 is the exact additive identity; with no other users the sums are 0.0
    fwd_rest = bwd_rest = -0.0 if others else 0.0
    for k, g in others:
        fwd_rest += fwd_pre[k] * g * bw
        bwd_rest += bwd_pre[k] * g * bw
    return (fwd + drop_att[0] * fwd_rest) * awg, (bwd + drop_att[0] * bwd_rest) * awg


def raman_totals_setup4(plan: DwdmPlan) -> tuple[float, float]:
    """Raman power totals for a measurement module at the splitting point.

    Forward noise comes from all downstream channels over the feeder plus
    user 1's upstream channel over its drop (the latter reaches the module
    without passing the multiplexers).  Backward noise comes from the
    upstream channels' backscatter over the feeder and the downstream
    user-1 channel's backscatter over the drop.
    """
    alpha, awg, e_feeder, eff_feeder, power, drop_att, gamma_own, others = _drop_terms(plan)
    feeder, drop, bw = plan.feeder_km, plan.drop_km[0], plan.rx_bandwidth_nm
    fwd_pre = [p * e_feeder * feeder for p in power]
    bwd_pre = [p * att * eff_feeder for p, att in zip(power, drop_att)]
    # user 1's terms first: -0.0 + x is x, so starting from them is the sum from -0.0
    fwd_mux = fwd_pre[0] * gamma_own * bw
    bwd = bwd_pre[0] * gamma_own * bw
    for k, g in others:
        fwd_mux += fwd_pre[k] * g * bw
        bwd += bwd_pre[k] * g * bw
    bwd += power[0] * e_feeder * backward_length_km(alpha, drop) * gamma_own * bw
    fwd_direct = power[0] * drop_att[0] * drop * gamma_own * bw
    return fwd_mux * awg + fwd_direct, bwd * awg


def budget_setup1_wireless(h_dc: float, n_b1: float, det: DetectorParams) -> LinkBudget:
    """Budget of the indoor link between the user and the ceiling relay.

    The factor 1/2 is the loss of the passive time-bin decoder.
    """
    half_det = det.eta_wireless / 2.0
    return LinkBudget(
        transmissivity=h_dc * half_det,
        bulb=n_b1 * half_det,
        dark=det.dark_count_per_pulse,
    )


def budget_setup1_fiber(plan: DwdmPlan, det: DetectorParams) -> LinkBudget:
    """Budget of the relay-to-central-office fiber link."""
    fwd, bwd = plan.raman_totals(raman_totals_setup1)
    count = det.eta_telecom / 2.0 * photons_per_gate(1.0, plan.quantum_nm[0], det.gate_s)
    return LinkBudget(
        transmissivity=plan.transmittance * det.eta_telecom / 2.0,
        frs=count * fwd,
        brs=count * bwd,
        dark=det.dark_count_per_pulse,
    )


def budget_setup2(h_dc: float, n_b1: float, plan: DwdmPlan, det: DetectorParams,
                  coupling_loss_db: float = _LINK["coupling_loss_db"]) -> LinkBudget:
    """Budget of the relay-free link: room, coupling lens, fiber, office.

    Bulb photons ride down the same fiber as the signal, so they see the
    air-to-fiber coupling loss and the full fiber attenuation before the
    receiver.
    """
    # same totals as setup 1
    fwd, bwd = plan.raman_totals(raman_totals_setup1)
    eta_coup = db_to_linear(-coupling_loss_db)
    eta_fib = plan.transmittance
    half_det = det.eta_telecom / 2.0
    count = half_det * photons_per_gate(1.0, plan.quantum_nm[0], det.gate_s)
    return LinkBudget(
        transmissivity=h_dc * eta_coup * eta_fib * half_det,
        frs=count * fwd,
        brs=count * bwd,
        bulb=half_det * n_b1 * eta_fib * eta_coup,
        dark=det.dark_count_per_pulse,
    )


def budget_setup3(h_dc: float, n_b1: float, plan: DwdmPlan, det: DetectorParams,
                  coupling_loss_db: float = _LINK["coupling_loss_db"],
                  polarization_factor: float = _LINK["polarization_factor"]) -> MdiLinkBudget:
    """Budget for the measurement module at the user's end.

    The quarter factor on the noise reflects that only one polarization
    enters the measurement; ``polarization_factor`` models the matching
    loss (0.5 for passive filtering, 1.0 for active stabilization).
    """
    fwd, bwd = plan.raman_totals(raman_totals_setup3)
    eta_coup = db_to_linear(-coupling_loss_db)
    quarter = det.eta_telecom / 4.0
    count = quarter * photons_per_gate(1.0, plan.quantum_nm[0], det.gate_s)
    return MdiLinkBudget(
        eta_alice=h_dc * det.eta_telecom * eta_coup * polarization_factor,
        eta_bob=det.eta_telecom * plan.transmittance * polarization_factor,
        frs=count * fwd,
        brs=count * bwd,
        bulb=quarter * n_b1 * eta_coup,
        dark=det.dark_count_per_pulse,
        polarization_factor=polarization_factor,
    )


def budget_setup4(h_dc: float, n_b1: float, plan: DwdmPlan, det: DetectorParams,
                  coupling_loss_db: float = _LINK["coupling_loss_db"],
                  polarization_factor: float = _LINK["polarization_factor"]) -> MdiLinkBudget:
    """Budget for the measurement module at the splitting point.

    Relative to setup 3, everything coming from the room additionally
    crosses user 1's drop fiber, and the office side is one drop shorter.
    """
    fwd, bwd = plan.raman_totals(raman_totals_setup4)
    alpha_db = plan.attenuation.db_per_km
    drop_loss = fiber_transmittance(0.0, plan.drop_km[0], alpha_db, 0.0)
    eta_coup = db_to_linear(-coupling_loss_db)
    quarter = det.eta_telecom / 4.0
    count = quarter * photons_per_gate(1.0, plan.quantum_nm[0], det.gate_s)
    eta_bob = fiber_transmittance(plan.feeder_km, 0.0, alpha_db, plan.awg_insertion_loss_db)
    return MdiLinkBudget(
        eta_alice=h_dc * det.eta_telecom * eta_coup * drop_loss * polarization_factor,
        eta_bob=det.eta_telecom * eta_bob * polarization_factor,
        frs=count * fwd,
        brs=count * bwd,
        bulb=quarter * n_b1 * eta_coup * drop_loss,
        dark=det.dark_count_per_pulse,
        polarization_factor=polarization_factor,
    )


def cv_budget(setup: str, h_dc: float | None = None, n_b1: float | None = None,
              plan: DwdmPlan | None = None, coupling_loss_db: float = _LINK["coupling_loss_db"],
              receiver_efficiency: float = DEFAULTS["cv"]["receiver_efficiency"],
              eps_receiver_measured: float = DEFAULTS["cv"]["eps_receiver_measured"],
              gate_s: float = DetectorParams.KEYS.nominal["gate_s"]) -> CvLinkBudget:
    """Channel budget for the coherent-detection protocol.

    ``setup`` is one of ``"1-wireless"``, ``"1-fiber"`` or ``"2"``; all but
    ``"1-fiber"`` need the room's ``h_dc`` and ``n_b1``.  Noise
    counts are referred to the channel input with the chaotic-light rule
    (input excess = 2n / transmissivity); the local oscillator already
    filters the background to a single matched mode, which takes half the
    raw count, so the bulb term comes out as n_B / H_dc.  The residual
    receiver noise measured at the detector is referred back through both
    the channel and the receiver efficiency.  The budget also carries the
    photon counts behind these terms.
    """
    if setup not in ("1-wireless", "1-fiber", "2"):
        raise ValueError(f"coherent detection applies to setups 1 and 2 only, got {setup!r}")

    eps_bulb = eps_raman = frs = brs = bulb_count = 0.0
    if setup != "1-fiber":
        if h_dc <= 0.0:
            raise ValueError("channel transmissivity is zero; budget undefined")
        eps_bulb = n_b1 / h_dc
        bulb_count = n_b1 / 2.0
    if setup == "1-wireless":
        transmissivity = h_dc
    else:
        fwd, bwd = plan.raman_totals(raman_totals_setup1)
        count = photons_per_gate(1.0, plan.quantum_nm[0], gate_s)
        frs, brs = count * fwd, count * bwd
        transmissivity = plan.transmittance
        if setup == "2":
            transmissivity = h_dc * db_to_linear(-coupling_loss_db) * transmissivity
        if transmissivity <= 0.0:
            raise ValueError("channel transmissivity is zero; budget undefined")
        eps_raman = count * (fwd + bwd) / transmissivity

    eps_receiver = eps_receiver_measured / (transmissivity * receiver_efficiency)
    return CvLinkBudget(
        transmissivity=transmissivity,
        eps_bulb=eps_bulb,
        eps_raman=eps_raman,
        eps_receiver=eps_receiver,
        frs=frs,
        brs=brs,
        bulb=bulb_count,
    )
