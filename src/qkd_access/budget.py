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
from dataclasses import dataclass, field

import numpy as np

from .numerics import AttenuationCoefficient
from .raman import RamanCrossSectionTable, backward_power, forward_power, photons_per_gate

__all__ = [
    "DEFAULT_SENSITIVITY_DBM",
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

# Receiver sensitivity (dBm) guaranteeing the classical channels' target BER.
DEFAULT_SENSITIVITY_DBM = -38.5

DEFAULT_CHANNEL_SPACING_NM = 0.8  # 100 GHz in the C band


@dataclass(frozen=True)
class DetectorParams:
    """Single-photon detector parameters for the DV receivers."""

    eta_wireless: float = 0.6  # Si APD efficiency, 880 nm band
    eta_telecom: float = 0.3  # InGaAs APD efficiency, 1550 nm band
    dark_count_per_pulse: float = 1e-7
    gate_s: float = 100e-12

    def __post_init__(self):
        for name in ("eta_wireless", "eta_telecom"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0.0 <= self.dark_count_per_pulse < 1.0:
            raise ValueError("dark count per pulse must be in [0, 1)")
        if self.gate_s <= 0.0:
            raise ValueError("gate duration must be > 0")


@dataclass(frozen=True)
class DwdmPlan:
    """Wavelength plan and fiber layout of the access network.

    ``quantum_nm[0]`` / ``data_nm[0]`` belong to user 1, the user whose key
    rate is evaluated.  ``drop_km[k]`` is the distance of user k+1 from the
    splitting point; ``feeder_km`` is the shared feeder to the central
    office.  ``raman_totals`` computes each kind of Raman totals once per plan.
    """

    quantum_nm: tuple[float, ...]
    data_nm: tuple[float, ...]
    feeder_km: float = 10.0
    drop_km: tuple[float, ...] = ()
    awg_insertion_loss_db: float = 2.0
    attenuation: AttenuationCoefficient = AttenuationCoefficient(0.2)
    sensitivity_dbm: float = DEFAULT_SENSITIVITY_DBM
    _raman: dict = field(default_factory=dict, init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        if len(self.quantum_nm) != len(self.data_nm) or not self.quantum_nm:
            raise ValueError("quantum and data grids must be non-empty and equally sized")
        if set(self.quantum_nm) & set(self.data_nm):
            raise ValueError("quantum and data grids must be disjoint")
        if not self.drop_km:
            object.__setattr__(self, "drop_km", (0.5,) * len(self.quantum_nm))
        if len(self.drop_km) != len(self.quantum_nm):
            raise ValueError("need one drop length per user")
        if self.feeder_km < 0.0 or min(self.drop_km) < 0.0:
            raise ValueError("fiber lengths must be >= 0")
        if self.awg_insertion_loss_db < 0.0:
            raise ValueError("AWG insertion loss must be >= 0")

    @classmethod
    def from_grid(
        cls,
        n_users: int = 32,
        quantum_start_nm: float = 1555.62,
        data_start_nm: float = 1585.2,
        spacing_nm: float = DEFAULT_CHANNEL_SPACING_NM,
        **kwargs,
    ) -> "DwdmPlan":
        """Build the grids from user 1's wavelengths on a fixed spacing.

        User 1 takes the top wavelength of each band (the quantum channel
        closest to the data band); the remaining users step down from it.
        """
        if n_users < 1:
            raise ValueError("need at least one user")
        quantum = tuple(quantum_start_nm - spacing_nm * k for k in range(n_users))
        data = tuple(data_start_nm - spacing_nm * k for k in range(n_users))
        return cls(quantum_nm=quantum, data_nm=data, **kwargs)

    @property
    def n_users(self) -> int:
        return len(self.quantum_nm)

    @property
    def transmittance(self) -> float:
        """User 1's fiber transmittance: feeder, drop and two multiplexer passes."""
        return fiber_transmittance(
            self.feeder_km, self.drop_km[0], self.attenuation.db_per_km, self.awg_insertion_loss_db
        )

    def raman_totals(self, totals, table: RamanCrossSectionTable,
                     rx_bandwidth_nm: float) -> tuple[float, float]:
        """``totals(self, table, rx_bandwidth_nm)``, computed once per plan and arguments."""
        key = (totals, table, rx_bandwidth_nm)
        if key not in self._raman:
            self._raman[key] = totals(self, table, rx_bandwidth_nm)
        return self._raman[key]

    def launch_power_mw(self, user: int) -> float:
        """Launch power of a user's data transmitter under the sensitivity rule."""
        total_km = self.feeder_km + self.drop_km[user]
        return launch_power(
            total_km,
            self.attenuation.db_per_km,
            self.awg_insertion_loss_db,
            self.sensitivity_dbm,
        )


@dataclass(frozen=True)
class LinkBudget:
    """Transmissivity and per-detector noise consumed by the BB84 formulas."""

    transmissivity: float
    frs: float = 0.0
    brs: float = 0.0
    bulb: float = 0.0
    dark: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.transmissivity <= 1.0:
            raise ValueError(f"transmissivity must be in [0, 1], got {self.transmissivity}")
        if min(self.frs, self.brs, self.bulb, self.dark) < 0.0:
            raise ValueError("noise components must be >= 0")
        if self.noise_per_detector >= 1.0:
            raise ValueError("total noise per detector must stay below one count per pulse")

    @property
    def noise_per_detector(self) -> float:
        """Background plus dark counts per detector per pulse."""
        return self.frs + self.brs + self.bulb + self.dark


@dataclass(frozen=True)
class MdiLinkBudget:
    """Two-sided budget for the untrusted-measurement setups."""

    eta_alice: float
    eta_bob: float
    frs: float = 0.0
    brs: float = 0.0
    bulb: float = 0.0
    dark: float = 0.0
    polarization_factor: float = 0.5

    def __post_init__(self):
        for name in ("eta_alice", "eta_bob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if min(self.frs, self.brs, self.bulb, self.dark) < 0.0:
            raise ValueError("noise components must be >= 0")
        if self.noise_per_detector >= 1.0:
            raise ValueError("total noise per detector must stay below one count per pulse")

    @property
    def noise_per_detector(self) -> float:
        return self.frs + self.brs + self.bulb + self.dark


@dataclass(frozen=True)
class CvLinkBudget:
    """Channel transmissivity and input-referred excess noise (shot-noise units).

    ``frs``, ``brs`` and ``bulb`` are the photon counts per gate behind the
    Raman and bulb terms, the bulb count already filtered to the local
    oscillator's mode.
    """

    transmissivity: float
    eps_bulb: float = 0.0
    eps_raman: float = 0.0
    eps_receiver: float = 0.0
    frs: float = 0.0
    brs: float = 0.0
    bulb: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.transmissivity <= 1.0:
            raise ValueError("CV budget needs transmissivity in (0, 1]")
        if min(self.eps_bulb, self.eps_raman, self.eps_receiver) < 0.0:
            raise ValueError("excess-noise components must be >= 0")

    @property
    def excess_noise(self) -> float:
        return self.eps_bulb + self.eps_raman + self.eps_receiver

    @property
    def dark(self) -> float:
        """Homodyne detection has no dark counts."""
        return 0.0


def launch_power(
    length_km: float,
    alpha_db_per_km: float,
    awg_db: float,
    sensitivity_dbm: float = DEFAULT_SENSITIVITY_DBM,
) -> float:
    """Classical launch power (mW) that meets the receiver sensitivity.

    The transmitter compensates the fiber loss over the full path plus two
    multiplexer passes, so received power is constant regardless of reach.
    """
    if length_km < 0.0:
        raise ValueError(f"path length must be >= 0, got {length_km}")
    return 10.0 ** ((sensitivity_dbm + alpha_db_per_km * length_km + 2.0 * awg_db) / 10.0)


def fiber_transmittance(
    feeder_km: float, drop_km: float, alpha_db_per_km: float, awg_db: float
) -> float:
    """End-to-end fiber transmittance including two multiplexer passes."""
    if feeder_km < 0.0 or drop_km < 0.0:
        raise ValueError("fiber lengths must be >= 0")
    return 10.0 ** (-(alpha_db_per_km * (feeder_km + drop_km) + 2.0 * awg_db) / 10.0)


def _channels(plan: DwdmPlan, table: RamanCrossSectionTable, rx_bandwidth_nm: float):
    """Per-channel inputs of the Raman sums, one entry per data channel.

    Returns (alpha per km, launch powers in mW, drop attenuations
    exp(-alpha L_k), cross sections into user 1's quantum channel).  The
    transcendentals are scalar libm calls so the sums keep their last bit.
    Launch power and drop attenuation depend on a user only through its
    drop length, so each is computed once per distinct drop; the cross
    sections depend only on the wavelength grid and come from the table's
    per-grid lookup.
    """
    if rx_bandwidth_nm <= 0.0:
        raise ValueError(f"receiver bandwidth must be > 0, got {rx_bandwidth_nm}")
    alpha = plan.attenuation.per_km
    per_drop = {}
    for user, km in enumerate(plan.drop_km):
        if km not in per_drop:
            per_drop[km] = (plan.launch_power_mw(user), math.exp(-alpha * km))
    power = np.array([per_drop[km][0] for km in plan.drop_km], dtype=float)
    drop_att = np.array([per_drop[km][1] for km in plan.drop_km], dtype=float)
    return alpha, power, drop_att, table.grid_gammas(plan.data_nm, plan.quantum_nm[0])


def _running_sum(*parts) -> float:
    """Left-to-right sum of the concatenated terms (0.0 when there are none)."""
    terms = np.concatenate([np.atleast_1d(part) for part in parts])
    return float(np.add.accumulate(terms)[-1]) if terms.size else 0.0


def raman_totals_setup1(
    plan: DwdmPlan,
    table: RamanCrossSectionTable,
    rx_bandwidth_nm: float = 0.8,
) -> tuple[float, float]:
    """Total forward/backward Raman power (mW) at user 1's receiver wavelength,
    for a receiver at the central office (setups 1-fiber and 2).

    Forward noise from user 1 accumulates over its whole path; the other
    users' contributions only count over the shared feeder because the
    multiplexer filters what they generate on their own drops.  Backward
    noise comes from the downstream transmitters at the central office,
    whose light enters the feeder unattenuated.
    """
    alpha, power, drop_att, gamma = _channels(plan, table, rx_bandwidth_nm)
    feeder, own_km, bw = plan.feeder_km, plan.feeder_km + plan.drop_km[0], rx_bandwidth_nm
    awg = 10.0 ** (-2.0 * plan.awg_insertion_loss_db / 10.0)
    fwd = _running_sum(
        forward_power(power[0], own_km, alpha, gamma[0], bw),
        forward_power(power[1:] * drop_att[1:], feeder, alpha, gamma[1:], bw),
    )
    bwd = _running_sum(
        backward_power(power[0], own_km, alpha, gamma[0], bw),
        backward_power(power[1:], feeder, alpha, gamma[1:], bw),
    )
    return fwd * awg, bwd * awg


def raman_totals_setup3(
    plan: DwdmPlan,
    table: RamanCrossSectionTable,
    rx_bandwidth_nm: float = 0.8,
) -> tuple[float, float]:
    """Raman power totals for a measurement module at user 1's premises.

    The other users' noise is generated along the feeder and then crosses
    user 1's drop, hence the common exp(-alpha L_1) attenuation; backward
    contributions start from launch powers already attenuated over the
    contributing user's drop.
    """
    alpha, power, drop_att, gamma = _channels(plan, table, rx_bandwidth_nm)
    feeder, own_km, bw = plan.feeder_km, plan.feeder_km + plan.drop_km[0], rx_bandwidth_nm
    awg = 10.0 ** (-2.0 * plan.awg_insertion_loss_db / 10.0)
    fwd = forward_power(power[0], own_km, alpha, gamma[0], bw)
    bwd = backward_power(power[0], own_km, alpha, gamma[0], bw)
    fwd_rest = _running_sum(forward_power(power[1:], feeder, alpha, gamma[1:], bw))
    bwd_rest = _running_sum(backward_power(power[1:] * drop_att[1:], feeder, alpha, gamma[1:], bw))
    return (
        float((fwd + drop_att[0] * fwd_rest) * awg),
        float((bwd + drop_att[0] * bwd_rest) * awg),
    )


def raman_totals_setup4(
    plan: DwdmPlan,
    table: RamanCrossSectionTable,
    rx_bandwidth_nm: float = 0.8,
) -> tuple[float, float]:
    """Raman power totals for a measurement module at the splitting point.

    Forward noise comes from all downstream channels over the feeder plus
    user 1's upstream channel over its drop (the latter reaches the module
    without passing the multiplexers).  Backward noise comes from the
    upstream channels' backscatter over the feeder and the downstream
    user-1 channel's backscatter over the drop.
    """
    alpha, power, drop_att, gamma = _channels(plan, table, rx_bandwidth_nm)
    feeder, drop, bw = plan.feeder_km, plan.drop_km[0], rx_bandwidth_nm
    awg = 10.0 ** (-2.0 * plan.awg_insertion_loss_db / 10.0)
    fwd_mux = _running_sum(forward_power(power, feeder, alpha, gamma, bw))
    bwd = _running_sum(
        backward_power(power * drop_att, feeder, alpha, gamma, bw),
        backward_power(power[0] * math.exp(-alpha * feeder), drop, alpha, gamma[0], bw),
    )
    fwd_direct = forward_power(power[0], drop, alpha, gamma[0], bw)
    return float(fwd_mux * awg + fwd_direct), bwd * awg


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


def budget_setup1_fiber(
    plan: DwdmPlan,
    det: DetectorParams,
    table: RamanCrossSectionTable,
    rx_bandwidth_nm: float = 0.8,
) -> LinkBudget:
    """Budget of the relay-to-central-office fiber link."""
    fwd, bwd = plan.raman_totals(raman_totals_setup1, table, rx_bandwidth_nm)
    count = det.eta_telecom / 2.0 * photons_per_gate(1.0, plan.quantum_nm[0], det.gate_s)
    return LinkBudget(
        transmissivity=plan.transmittance * det.eta_telecom / 2.0,
        frs=count * fwd,
        brs=count * bwd,
        dark=det.dark_count_per_pulse,
    )


def budget_setup2(
    h_dc: float,
    n_b1: float,
    plan: DwdmPlan,
    det: DetectorParams,
    table: RamanCrossSectionTable,
    coupling_loss_db: float = 10.0,
    rx_bandwidth_nm: float = 0.8,
) -> LinkBudget:
    """Budget of the relay-free link: room, coupling lens, fiber, office.

    Bulb photons ride down the same fiber as the signal, so they see the
    air-to-fiber coupling loss and the full fiber attenuation before the
    receiver.
    """
    # same totals as setup 1
    fwd, bwd = plan.raman_totals(raman_totals_setup1, table, rx_bandwidth_nm)
    eta_coup = 10.0 ** (-coupling_loss_db / 10.0)
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


def budget_setup3(
    h_dc: float,
    n_b1: float,
    plan: DwdmPlan,
    det: DetectorParams,
    table: RamanCrossSectionTable,
    coupling_loss_db: float = 10.0,
    rx_bandwidth_nm: float = 0.8,
    polarization_factor: float = 0.5,
) -> MdiLinkBudget:
    """Budget for the measurement module at the user's end.

    The quarter factor on the noise reflects that only one polarization
    enters the measurement; ``polarization_factor`` models the matching
    loss (0.5 for passive filtering, 1.0 for active stabilization).
    """
    fwd, bwd = plan.raman_totals(raman_totals_setup3, table, rx_bandwidth_nm)
    eta_coup = 10.0 ** (-coupling_loss_db / 10.0)
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


def budget_setup4(
    h_dc: float,
    n_b1: float,
    plan: DwdmPlan,
    det: DetectorParams,
    table: RamanCrossSectionTable,
    coupling_loss_db: float = 10.0,
    rx_bandwidth_nm: float = 0.8,
    polarization_factor: float = 0.5,
) -> MdiLinkBudget:
    """Budget for the measurement module at the splitting point.

    Relative to setup 3, everything coming from the room additionally
    crosses user 1's drop fiber, and the office side is one drop shorter.
    """
    fwd, bwd = plan.raman_totals(raman_totals_setup4, table, rx_bandwidth_nm)
    alpha_db = plan.attenuation.db_per_km
    drop_loss = 10.0 ** (-alpha_db * plan.drop_km[0] / 10.0)
    eta_coup = 10.0 ** (-coupling_loss_db / 10.0)
    quarter = det.eta_telecom / 4.0
    count = quarter * photons_per_gate(1.0, plan.quantum_nm[0], det.gate_s)
    eta_bob = 10.0 ** (-(alpha_db * plan.feeder_km + 2.0 * plan.awg_insertion_loss_db) / 10.0)
    return MdiLinkBudget(
        eta_alice=h_dc * det.eta_telecom * eta_coup * drop_loss * polarization_factor,
        eta_bob=det.eta_telecom * eta_bob * polarization_factor,
        frs=count * fwd,
        brs=count * bwd,
        bulb=quarter * n_b1 * eta_coup * drop_loss,
        dark=det.dark_count_per_pulse,
        polarization_factor=polarization_factor,
    )


def cv_budget(
    setup: str,
    h_dc: float | None = None,
    n_b1: float | None = None,
    plan: DwdmPlan | None = None,
    table: RamanCrossSectionTable | None = None,
    coupling_loss_db: float = 10.0,
    rx_bandwidth_nm: float = 0.8,
    receiver_efficiency: float = 0.6,
    eps_receiver_measured: float = 0.002,
    gate_s: float = 100e-12,
) -> CvLinkBudget:
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
        fwd, bwd = plan.raman_totals(raman_totals_setup1, table, rx_bandwidth_nm)
        count = photons_per_gate(1.0, plan.quantum_nm[0], gate_s)
        frs, brs = count * fwd, count * bwd
        transmissivity = plan.transmittance
        if setup == "2":
            transmissivity = h_dc * 10.0 ** (-coupling_loss_db / 10.0) * transmissivity
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
