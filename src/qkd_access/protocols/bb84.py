"""Decoy-state BB84 key rate for a lossy, background-noise-limited link.

The channel is summarised by two numbers: total transmissivity ``eta`` and
background-plus-dark count probability per detector per pulse ``noise``.
With a signal intensity mu the observable gain/error quantities are

    Q_mu = 1 - exp(-eta*mu) (1-noise)^2
    E_mu = [Q_mu/2 - (1/2 - e_d)(1 - exp(-eta*mu))(1-noise)] / Q_mu
    Y_1  = 1 - (1-eta)(1-noise)^2
    Q_1  = Y_1 mu exp(-mu)
    e_1  = [Y_1/2 - (1/2 - e_d) eta (1-noise)] / Y_1

and the asymptotic secret fraction (decoy estimation taken as exact) is

    R = q { -Q_mu f h(E_mu) + Q_1 [1 - h(e_1)] },

clamped at zero, since a negative lower bound simply means no key.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ..budget import LinkBudget
from ..defaults import KeyTable, keyed_record
from ..numerics import binary_entropy

__all__ = [
    "Bb84Params",
    "Bb84Gains",
    "gain_and_qber",
    "ds_bb84_rate",
    "ds_bb84_rate_at",
    "spp_bb84_rate",
    "spp_bb84_rate_at",
]

# Error probability of a background click: a noise photon carries no bit
# correlation, so it lands on the wrong detector half the time.
ERRONEOUS_CLICK_ERROR = 0.5


class Bb84Params(keyed_record("Bb84Params", KeyTable(
    mu="dv.mu", sift_factor="dv.sift_factor", ec_inefficiency="dv.ec_inefficiency",
    misalignment="dv.misalignment",
))):
    """Source and post-processing parameters for (decoy-state) BB84.

    ``mu`` is the mean photon number per signal pulse, ``sift_factor`` is q
    (~1 for the efficient protocol variant), ``ec_inefficiency`` is f >= 1
    and ``misalignment`` is e_d, the relative-phase error probability.
    """

    __slots__ = ()

    def __init__(self, *_, **__):
        if self.mu <= 0.0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        check_post_processing(self)


def check_post_processing(params) -> None:
    """Check the sift factor, error-correction inefficiency and misalignment of ``params``."""
    if not 0.0 < params.sift_factor <= 1.0:
        raise ValueError(f"sift factor must be in (0, 1], got {params.sift_factor}")
    if params.ec_inefficiency < 1.0:
        raise ValueError(f"error-correction inefficiency must be >= 1, got {params.ec_inefficiency}")
    if not 0.0 <= params.misalignment < 0.5:
        raise ValueError(f"misalignment must be in [0, 0.5), got {params.misalignment}")


class Bb84Gains(namedtuple(
    "Bb84Gains", "gain qber single_photon_gain single_photon_error single_photon_yield"
)):
    """Observable gains and error rates entering the rate formula.

    In the module's notation: Q_mu, E_mu, Q_1, e_1 and Y_1.
    """

    __slots__ = ()


def _check_channel(eta: float, noise: float):
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must be in [0, 1], got {eta}")
    if not 0.0 <= noise < 1.0:
        raise ValueError(f"noise per detector must be in [0, 1), got {noise}")


def gain_and_qber(eta: float, noise: float, params: Bb84Params) -> Bb84Gains:
    """Gain, QBER and single-photon statistics for a given channel."""
    _check_channel(eta, noise)
    e0, ed = ERRONEOUS_CLICK_ERROR, params.misalignment
    quiet = (1.0 - noise) ** 2
    signal = -math.expm1(-eta * params.mu)  # 1 - exp(-eta mu)

    gain = 1.0 - (1.0 - signal) * quiet
    if gain > 0.0:
        qber = (e0 * gain - (e0 - ed) * signal * (1.0 - noise)) / gain
    else:
        qber = 0.0

    yield_1 = 1.0 - (1.0 - eta) * quiet
    gain_1 = yield_1 * params.mu * math.exp(-params.mu)
    if yield_1 > 0.0:
        error_1 = (e0 * yield_1 - (e0 - ed) * eta * (1.0 - noise)) / yield_1
    else:
        error_1 = 0.0
    return Bb84Gains(gain, qber, gain_1, error_1, yield_1)


def ds_bb84_rate_at(eta: float, noise: float, params: Bb84Params) -> float:
    """Decoy-state BB84 key rate per pulse for explicit channel numbers."""
    g = gain_and_qber(eta, noise, params)
    rate = params.sift_factor * (
        -g.gain * params.ec_inefficiency * binary_entropy(g.qber)
        + g.single_photon_gain * (1.0 - binary_entropy(g.single_photon_error))
    )
    return max(0.0, rate)


def ds_bb84_rate(link: LinkBudget, params: Bb84Params) -> float:
    """Decoy-state BB84 key rate per pulse for a link budget."""
    return ds_bb84_rate_at(link.transmissivity, link.noise_per_detector, params)


def spp_bb84_rate_at(eta: float, noise: float, params: Bb84Params) -> float:
    """BB84 key rate per pulse with an ideal single-photon source.

    Every pulse is a single photon, so the gain is the single-photon yield
    and both the privacy term and the error correction run on e_1.
    """
    g = gain_and_qber(eta, noise, params)
    h1 = binary_entropy(g.single_photon_error)
    rate = params.sift_factor * g.single_photon_yield * (
        1.0 - h1 - params.ec_inefficiency * h1
    )
    return max(0.0, rate)


def spp_bb84_rate(link: LinkBudget, params: Bb84Params) -> float:
    return spp_bb84_rate_at(link.transmissivity, link.noise_per_detector, params)

