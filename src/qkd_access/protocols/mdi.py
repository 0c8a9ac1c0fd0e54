"""Measurement-device-independent QKD key rate.

Both parties send time-bin encoded states to an untrusted relay that
performs a Bell-state measurement with a 50:50 coupler and two
single-photon detectors (one measurement per bin when fast detectors are
available).  The channel enters through the one-sided transmissivities
``eta_a``/``eta_b`` and the per-detector background count ``noise``.

Two source models are provided: ideal single-photon sources (SPP) and
phase-randomized weak pulses with exact decoy-state estimation (DS).
"""

from __future__ import annotations

import math
from collections import namedtuple

from ..budget import MdiLinkBudget
from ..defaults import KeyTable, keyed_record
from ..numerics import bessel_i0, binary_entropy
from .bb84 import check_post_processing

__all__ = [
    "MdiParams",
    "MdiGains",
    "single_photon_yield",
    "single_photon_errors",
    "decoy_gains",
    "mdi_rate_spp",
    "mdi_rate_spp_at",
    "mdi_rate_ds",
    "mdi_rate_ds_at",
]


class MdiParams(keyed_record("MdiParams", KeyTable(
    mu="dv.mu", nu="dv.nu", sift_factor="dv.sift_factor", ec_inefficiency="dv.ec_inefficiency",
    misalignment="dv.misalignment", fast_detectors="dv.fast_detectors",
))):
    """Source and post-processing parameters for the MDI protocol.

    ``mu`` and ``nu`` are Alice's and Bob's mean photon numbers per signal
    pulse; without ``fast_detectors`` all gains are halved.
    """

    __slots__ = ()

    def __init__(self, *_, **__):
        if self.mu <= 0.0 or self.nu <= 0.0:
            raise ValueError("signal intensities must be > 0")
        check_post_processing(self)


class MdiGains(namedtuple(
    "MdiGains", "single_photon_gain correct_gain erroneous_gain gain_z qber_z"
)):
    """Gains and error rates of the decoy-state variant.

    ``single_photon_gain`` is Q_11; ``correct_gain`` is Q_C, the clicks
    driven by both signals; ``erroneous_gain`` is Q_E, the clicks involving
    background; ``gain_z`` is Q_C + Q_E and ``qber_z`` is E_{mu nu; Z}.
    """

    __slots__ = ()


def _check(eta_a: float, eta_b: float, noise: float):
    if not (0.0 <= eta_a <= 1.0 and 0.0 <= eta_b <= 1.0):
        raise ValueError("one-sided transmissivities must be in [0, 1]")
    if not 0.0 <= noise < 1.0:
        raise ValueError(f"noise per detector must be in [0, 1), got {noise}")


def single_photon_yield(eta_a: float, eta_b: float, noise: float) -> float:
    """Probability that a single photon pair produces an accepted measurement.

    Counts genuine two-photon interference (the eta_a*eta_b/2 term) plus
    the patterns where background clicks complete or fake the signature.
    """
    _check(eta_a, eta_b, noise)
    quiet = (1.0 - noise) ** 2
    return quiet * (
        eta_a * eta_b / 2.0
        + (2.0 * eta_a + 2.0 * eta_b - 3.0 * eta_a * eta_b) * noise
        + 4.0 * (1.0 - eta_a) * (1.0 - eta_b) * noise**2
    )


def single_photon_errors(
    eta_a: float, eta_b: float, noise: float, misalignment: float
) -> tuple[float, float]:
    """(X-basis, Z-basis) error rates of accepted single-photon events.

    Only the genuine interference events carry the encoded correlation
    (up to the misalignment error); every background-assisted acceptance
    is a coin flip.  Returns (0, 0) when the yield itself vanishes.
    """
    return _errors(eta_a, eta_b, noise, misalignment, single_photon_yield(eta_a, eta_b, noise))


def decoy_gains(
    eta_a: float, eta_b: float, noise: float, mu: float, nu: float, misalignment: float
) -> MdiGains:
    """Gains and Z-basis QBER for phase-randomized weak-pulse sources."""
    y11 = single_photon_yield(eta_a, eta_b, noise)
    return MdiGains._make(_gains(eta_a, eta_b, noise, mu, nu, misalignment, y11))


# The errors and the gains take the yield Y_11 that ``single_photon_yield``
# gave, and with it checked inputs, so a rate checks its inputs and
# evaluates Y_11 once.  ``_gains`` returns the fields of ``MdiGains``.


def _errors(eta_a: float, eta_b: float, noise: float, misalignment: float, y: float):
    if y <= 0.0:
        return 0.0, 0.0
    quiet = (1.0 - noise) ** 2
    interference = quiet * eta_a * eta_b / 2.0
    e_x = 0.5 - (0.5 - misalignment) * interference / y
    e_z = 0.5 - (0.5 - misalignment) * (1.0 - 2.0 * noise) * interference / y
    # e_x is 0.5 less a product >= 0, so it needs no upper clamp
    return max(e_x, 0.0), min(max(e_z, 0.0), 1.0)


def _gains(eta_a: float, eta_b: float, noise: float, mu: float, nu: float, misalignment: float,
           y11: float) -> tuple:
    q11 = mu * nu * math.exp(-mu - nu) * y11

    quiet = (1.0 - noise) ** 2
    mu_arrived = eta_a * mu + eta_b * nu
    damp = math.exp(-mu_arrived / 2.0)
    q_correct = (
        2.0
        * quiet
        * damp
        * (1.0 - (1.0 - noise) * math.exp(-eta_a * mu / 2.0))
        * (1.0 - (1.0 - noise) * math.exp(-eta_b * nu / 2.0))
    )
    x = math.sqrt(eta_a * mu * eta_b * nu) / 2.0
    q_error = 2.0 * noise * quiet * damp * (bessel_i0(2.0 * x) - (1.0 - noise) * damp)
    gain_z = q_correct + q_error
    if gain_z > 0.0:
        qber_z = (misalignment * q_correct + (1.0 - misalignment) * q_error) / gain_z
    else:
        qber_z = 0.0
    return q11, q_correct, q_error, gain_z, qber_z


def mdi_rate_spp_at(eta_a: float, eta_b: float, noise: float, params: MdiParams) -> float:
    """Key rate per pulse with ideal single-photon sources."""
    gain_factor = 1.0 if params.fast_detectors else 0.5
    y11 = single_photon_yield(eta_a, eta_b, noise)
    e_x, e_z = _errors(eta_a, eta_b, noise, params.misalignment, y11)
    rate = params.sift_factor * gain_factor * y11 * (
        1.0 - binary_entropy(e_x) - params.ec_inefficiency * binary_entropy(e_z)
    )
    return max(0.0, rate)


def mdi_rate_spp(link: MdiLinkBudget, params: MdiParams) -> float:
    return mdi_rate_spp_at(link.eta_alice, link.eta_bob, link.noise_per_detector, params)


def mdi_rate_ds_at(eta_a: float, eta_b: float, noise: float, params: MdiParams) -> float:
    """Key rate per pulse with weak pulses and exact decoy estimation."""
    gain_factor = 1.0 if params.fast_detectors else 0.5
    y11 = single_photon_yield(eta_a, eta_b, noise)
    q11, _, _, gain_z, qber_z = _gains(eta_a, eta_b, noise, params.mu, params.nu,
                                       params.misalignment, y11)
    e_x, _ = _errors(eta_a, eta_b, noise, params.misalignment, y11)
    rate = params.sift_factor * gain_factor * (
        q11 * (1.0 - binary_entropy(e_x))
        - params.ec_inefficiency * gain_z * binary_entropy(qber_z)
    )
    return max(0.0, rate)


def mdi_rate_ds(link: MdiLinkBudget, params: MdiParams) -> float:
    return mdi_rate_ds_at(link.eta_alice, link.eta_bob, link.noise_per_detector, params)
