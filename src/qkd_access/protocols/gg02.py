"""Coherent-state CV-QKD key rate (reverse reconciliation, collective attacks).

Alice Gaussian-modulates coherent states with variance ``V_A`` (shot-noise
units); Bob homodynes one quadrature.  With channel transmissivity T and
input-referred excess noise eps the secret fraction is

    K = beta * I_AB - chi_BE,

I_AB being the Shannon information of the Gaussian channel and chi_BE the
Holevo bound on the eavesdropper's information about Bob's data, obtained
from the symplectic eigenvalues of the shared state before and after Bob's
measurement.  Detection is trusted: receiver efficiency and electronic
noise enter through the homodyne noise term only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..budget import CvLinkBudget
from ..numerics import holevo_g

__all__ = [
    "Gg02Params",
    "mutual_information",
    "holevo_bound",
    "gg02_rate",
    "gg02_rate_at",
    "optimal_modulation_variance",
]

MODULATION_SEARCH_RANGE = (0.1, 100.0)  # shot-noise units
MODULATION_SEARCH_TOL = 1e-4
DISCRIMINANT_TOL = 1e-9


@dataclass(frozen=True)
class Gg02Params:
    """Receiver and post-processing parameters for the CV protocol.

    ``modulation_variance`` of ``None`` means "optimize per operating
    point", which is how the curves in this package are produced.
    """

    modulation_variance: float | None = None  # V_A in SNU, None -> optimize
    beta: float = 0.95  # reconciliation efficiency
    receiver_efficiency: float = 0.6  # eta_B, Bob's overall efficiency
    electronic_noise: float = 0.015  # v_elec in SNU

    def __post_init__(self):
        if self.modulation_variance is not None and self.modulation_variance <= 0.0:
            raise ValueError("modulation variance must be > 0 when fixed")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 < self.receiver_efficiency <= 1.0:
            raise ValueError("receiver efficiency must be in (0, 1]")
        if self.electronic_noise < 0.0:
            raise ValueError("electronic noise must be >= 0")


def _noise_terms(transmissivity, excess, receiver_eff, electronic):
    if not 0.0 < transmissivity <= 1.0:
        raise ValueError(f"channel transmissivity must be in (0, 1], got {transmissivity}")
    chi_line = (1.0 - transmissivity) / transmissivity + excess
    chi_hom = (1.0 - receiver_eff) / receiver_eff + electronic / receiver_eff
    chi_tot = chi_line + chi_hom / transmissivity
    return chi_line, chi_hom, chi_tot


def mutual_information(
    v_a: float,
    transmissivity: float,
    excess: float,
    receiver_eff: float = 0.6,
    electronic: float = 0.015,
) -> float:
    """Alice-Bob mutual information in bits per pulse (homodyne detection)."""
    _, _, chi_tot = _noise_terms(transmissivity, excess, receiver_eff, electronic)
    v = v_a + 1.0
    return 0.5 * math.log2((v + chi_tot) / (1.0 + chi_tot))


def _sym_eigs(a: float, b: float) -> tuple[float, float]:
    """Symplectic eigenvalue pair from invariants (sum-square a, det b)."""
    disc = a * a - 4.0 * b
    if disc < 0.0:
        if disc < -DISCRIMINANT_TOL * max(1.0, a * a):
            raise ValueError(f"negative symplectic discriminant: {disc}")
        disc = 0.0
    root = math.sqrt(disc)
    return math.sqrt((a + root) / 2.0), math.sqrt(max((a - root) / 2.0, 0.0))


def holevo_bound(
    v_a: float,
    transmissivity: float,
    excess: float,
    receiver_eff: float = 0.6,
    electronic: float = 0.015,
) -> float:
    """Holevo information of the eavesdropper about Bob's measurement, bits/pulse."""
    chi_line, chi_hom, chi_tot = _noise_terms(transmissivity, excess, receiver_eff, electronic)
    v = v_a + 1.0
    t = transmissivity

    a_inv = v * v * (1.0 - 2.0 * t) + 2.0 * t + t * t * (v + chi_line) ** 2
    b_inv = (t * (v * chi_line + 1.0)) ** 2
    root_b = math.sqrt(b_inv)
    denom = t * (v + chi_tot)
    c_inv = (v * root_b + t * (v + chi_line) + a_inv * chi_hom) / denom
    d_inv = root_b * (v + root_b * chi_hom) / denom

    lam1, lam2 = _sym_eigs(a_inv, b_inv)
    lam3, lam4 = _sym_eigs(c_inv, d_inv)
    return holevo_g(lam1) + holevo_g(lam2) - holevo_g(lam3) - holevo_g(lam4)


def _secret_fraction(v_a, transmissivity, excess, params: Gg02Params) -> float:
    return params.beta * mutual_information(
        v_a, transmissivity, excess, params.receiver_efficiency, params.electronic_noise
    ) - holevo_bound(
        v_a, transmissivity, excess, params.receiver_efficiency, params.electronic_noise
    )


def _golden_max(fn, lo: float, hi: float, tol: float) -> float:
    """Argmax of a unimodal function by golden-section search."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def optimal_modulation_variance(
    transmissivity: float, excess: float, params: Gg02Params
) -> float:
    """Modulation variance maximizing the secret fraction at this operating point."""
    lo, hi = MODULATION_SEARCH_RANGE
    return _golden_max(
        lambda v_a: _secret_fraction(v_a, transmissivity, excess, params),
        lo,
        hi,
        MODULATION_SEARCH_TOL,
    )


def gg02_rate_at(transmissivity: float, excess: float, params: Gg02Params) -> float:
    """Key rate per pulse for explicit channel numbers."""
    v_a = params.modulation_variance
    if v_a is None:
        v_a = optimal_modulation_variance(transmissivity, excess, params)
    return max(0.0, _secret_fraction(v_a, transmissivity, excess, params))


def gg02_rate(link: CvLinkBudget, params: Gg02Params) -> float:
    """Key rate per pulse for a CV link budget."""
    return gg02_rate_at(link.transmissivity, link.excess_noise, params)
