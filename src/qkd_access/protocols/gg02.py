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

Unless fixed in ``Gg02Params``, V_A is chosen per operating point by
maximizing K over ``MODULATION_SEARCH_RANGE`` with Brent's method.  The
terms of K that do not depend on V_A are computed once per operating point
(``_fraction_terms``), and ``mutual_information`` and ``holevo_bound``
evaluate the same two formulas.
"""

from __future__ import annotations

import math
import sys
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

# The V_A search: its range in shot-noise units and its absolute tolerance
# on V_A.  K is flat at an interior maximum, so a V_A within ~1e-6 leaves K
# within float noise (~1e-12 absolute) of it; where K still rises at the top
# of the range, the search stops within a few 1e-6 of it.  About 19
# evaluations of K per search.
MODULATION_SEARCH_RANGE = (0.1, 100.0)
MODULATION_SEARCH_TOL = 1e-6
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section fraction of a bracket
_SQRT_EPS = math.sqrt(sys.float_info.epsilon)  # relative resolution of an argmax
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


def _fraction_terms(transmissivity, excess, receiver_eff, electronic):
    """I_AB(V_A) and chi_BE(V_A) at one operating point, as two functions of V_A.

    The terms that do not depend on V_A are computed here, once, so a
    modulation-variance search pays for them once per operating point.
    """
    chi_line, chi_hom, chi_tot = _noise_terms(transmissivity, excess, receiver_eff, electronic)
    t = transmissivity
    one_minus_2t, two_t, t_sq, info_den = 1.0 - 2.0 * t, 2.0 * t, t * t, 1.0 + chi_tot

    def information(v_a: float) -> float:
        v = v_a + 1.0
        return 0.5 * math.log2((v + chi_tot) / info_den)

    def holevo(v_a: float) -> float:
        v = v_a + 1.0
        a_inv = v * v * one_minus_2t + two_t + t_sq * (v + chi_line) ** 2
        b_inv = (t * (v * chi_line + 1.0)) ** 2
        root_b = math.sqrt(b_inv)
        denom = t * (v + chi_tot)
        c_inv = (v * root_b + t * (v + chi_line) + a_inv * chi_hom) / denom
        d_inv = root_b * (v + root_b * chi_hom) / denom

        lam1, lam2 = _sym_eigs(a_inv, b_inv)
        lam3, lam4 = _sym_eigs(c_inv, d_inv)
        return holevo_g(lam1) + holevo_g(lam2) - holevo_g(lam3) - holevo_g(lam4)

    return information, holevo


def mutual_information(
    v_a: float,
    transmissivity: float,
    excess: float,
    receiver_eff: float = 0.6,
    electronic: float = 0.015,
) -> float:
    """Alice-Bob mutual information in bits per pulse (homodyne detection)."""
    return _fraction_terms(transmissivity, excess, receiver_eff, electronic)[0](v_a)


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
    return _fraction_terms(transmissivity, excess, receiver_eff, electronic)[1](v_a)


def _secret_fraction(transmissivity, excess, params: Gg02Params):
    """K(V_A) = beta * I_AB - chi_BE at one operating point, as a function of V_A."""
    information, holevo = _fraction_terms(
        transmissivity, excess, params.receiver_efficiency, params.electronic_noise
    )
    beta = params.beta

    def secret_fraction(v_a: float) -> float:
        return beta * information(v_a) - holevo(v_a)

    return secret_fraction


def _brent_max(fn, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Argmax of a unimodal function on [lo, hi] by Brent's method.

    Each step moves to the vertex of the parabola through the three best
    points so far, or takes a golden-section step into the larger side of
    the bracket when that parabola is unusable or shrinks the bracket too
    slowly (R. P. Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 5).  Returns the best point evaluated x and fn(x), once both
    ends of the bracket around it lie within 2 * (tol + sqrt(eps) * |x|) of
    it.
    """
    a, b = lo, hi
    x = w = v = a + _GOLDEN_STEP * (b - a)
    fx = fw = fv = fn(x)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x, fx
        p = q = r = 0.0
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if x + d - a < tol2 or b - (x + d) < tol2:
                d = tol1 if x < m else -tol1
        else:
            e = (b if x < m else a) - x
            d = _GOLDEN_STEP * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = fn(u)
        if fu >= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def _best_modulation(
    transmissivity: float, excess: float, params: Gg02Params
) -> tuple[float, float]:
    """(V_A, K(V_A)) at the secret fraction's maximum found by the V_A search."""
    lo, hi = MODULATION_SEARCH_RANGE
    return _brent_max(_secret_fraction(transmissivity, excess, params), lo, hi,
                      MODULATION_SEARCH_TOL)


def optimal_modulation_variance(
    transmissivity: float, excess: float, params: Gg02Params
) -> float:
    """Modulation variance maximizing the secret fraction at this operating point."""
    return _best_modulation(transmissivity, excess, params)[0]


def gg02_rate_at(transmissivity: float, excess: float, params: Gg02Params) -> float:
    """Key rate per pulse for explicit channel numbers.

    With an optimized V_A this is the search's own best K, the value K takes
    when evaluated again at that V_A.
    """
    v_a = params.modulation_variance
    if v_a is None:
        return max(0.0, _best_modulation(transmissivity, excess, params)[1])
    return max(0.0, _secret_fraction(transmissivity, excess, params)(v_a))


def gg02_rate(link: CvLinkBudget, params: Gg02Params) -> float:
    """Key rate per pulse for a CV link budget."""
    return gg02_rate_at(link.transmissivity, link.excess_noise, params)
