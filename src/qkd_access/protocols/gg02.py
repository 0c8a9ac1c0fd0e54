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

Each eigenvalue is computed as its excess over 1 from the sum and product
of its pair, written without cancellation, so chi_BE keeps its precision
and K stays defined up to a lossless, noiseless channel.

Unless fixed in ``Gg02Params``, V_A is chosen per operating point by
maximizing K over ``MODULATION_SEARCH_RANGE``: a bracketed secant search
for the root of dK/dV_A, which the same arithmetic gives in closed form.
The terms of K that do not depend on V_A are computed once per operating
point (``_fraction_terms``), and the search, ``mutual_information`` and
``holevo_bound`` evaluate the same closure.

A key rate needs only max(0, K), so its search also stops as soon as the
points it has seen prove K < 0 for every V_A in the range: with the
maximum bracketed in [a, b], no K there exceeds beta I_AB(b) - chi_BE(a),
since I_AB rises with V_A and chi_BE, whose slope changes sign at most
once and only from - to +, does not fall past an a where its slope is
>= 0.  The rate is that of the full search, to the bit; the full search
still gives ``optimal_modulation_variance``.
"""

from __future__ import annotations

import math

from ..budget import CvLinkBudget
from ..defaults import KeyTable, keyed_record
from ..numerics import holevo_g_excess

__all__ = [
    "Gg02Params",
    "mutual_information",
    "holevo_bound",
    "gg02_rate",
    "gg02_rate_at",
    "optimal_modulation_variance",
]

# The V_A search: its range in shot-noise units, its first two points and its
# relative tolerance on V_A.  It stops once a secant step would move V_A by
# less than MODULATION_SEARCH_TOL * V_A, which leaves K within float noise
# of an interior maximum; where K still rises at the top of the range, it
# stops at the top.  About 7 evaluations of K and dK/dV_A per search.
MODULATION_SEARCH_RANGE = (0.1, 100.0)
MODULATION_SEARCH_TOL = 1e-6
_SEARCH_START = (3.5, 5.0)  # near most optima of the package's links, 3.6-5.8 SNU
_MAX_EVALUATIONS = 100  # a guard: accepted steps halve at least every other evaluation
# On the rate path the search stops once K's bound over the remaining bracket
# is below 0 by this much, in bits: far above K's float noise (~1e-13) and
# far below where the package's no-key searches end (-3e-3 to -9e-3 bits).
NO_KEY_MARGIN = 1e-9
# (lambda3 - lambda4)^2 below 0 by at most this much times lambda3 + lambda4 - 2
# is treated as rounding in a degenerate pair.
DISCRIMINANT_TOL = 1e-9


class Gg02Params(keyed_record("Gg02Params", KeyTable(
    modulation_variance="cv.modulation_variance_snu", beta="cv.beta",
    receiver_efficiency="cv.receiver_efficiency", electronic_noise="cv.electronic_noise",
))):
    """Receiver and post-processing parameters for the CV protocol.

    ``modulation_variance`` is V_A in SNU; ``None`` means "optimize per
    operating point", which is how the curves in this package are produced.
    ``beta`` is the reconciliation efficiency, ``receiver_efficiency`` is
    eta_B, Bob's overall efficiency, and ``electronic_noise`` is v_elec in
    SNU.
    """

    __slots__ = ()

    def __init__(self, *_, **__):
        if self.modulation_variance is not None and self.modulation_variance <= 0.0:
            raise ValueError("modulation variance must be > 0 when fixed")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 < self.receiver_efficiency <= 1.0:
            raise ValueError("receiver efficiency must be in (0, 1]")
        if self.electronic_noise < 0.0:
            raise ValueError("electronic noise must be >= 0")


def _fraction_terms(transmissivity, excess, receiver_eff, electronic):
    """I_AB, chi_BE and their slopes at one operating point, as one function of V_A.

    With v = V_A + 1, u = 1 - T, chi_line = u/T + eps and the homodyne noise
    chi_hom, the pairs of symplectic eigenvalues have the invariants
    (Lodewyck et al., PRA 76, 042305, 2007)

        A = (v u)^2 + 2T + T^2 chi_line (2v + chi_line),  sqrt(B) = T (v chi_line + 1),
        C = [v sqrt(B) + T (v + chi_line) + A chi_hom] / den,
        D = sqrt(B) [v + sqrt(B) chi_hom] / den,  den = T (v + chi_line) + chi_hom,

    and lambda1 - lambda2 = |v u - T chi_line|.  Their distances from a
    lossless, noiseless channel are sums of non-negative terms:

        A - 2 = u V_A (u V_A + 2) + T eps (2u + 2vT + T eps),
        sqrt(B) - 1 = u V_A + v T eps,
        C - 2 = [T chi_line V_A (v + 1) + (A - 2) chi_hom] / den,
        D - 1 = [T chi_line V_A (v + 1) + (B - 1) chi_hom] / den,

    so each lambda - 1 follows without cancellation from the sum of its
    pair, sqrt(A + 2 sqrt(B)) or sqrt(C + 2 sqrt(D)), and from that gap or
    the product sqrt(D).  The terms that do not depend on V_A are computed
    here, once, so a modulation-variance search pays for them once per
    operating point.
    """
    if not 0.0 < transmissivity <= 1.0:
        raise ValueError(f"channel transmissivity must be in (0, 1], got {transmissivity}")
    t = transmissivity
    u = 1.0 - t
    chi_line = u / t + excess
    chi_hom = (1.0 - receiver_eff) / receiver_eff + electronic / receiver_eff
    chi_tot = chi_line + chi_hom / t
    t_chi, t_eps, info_den = t * chi_line, t * excess, 1.0 + chi_tot
    info_slope = 0.5 / math.log(2.0)

    def terms(v_a: float) -> tuple[float, float, float, float]:
        """(I_AB, chi_BE, dI_AB/dV_A, dchi_BE/dV_A) in bits per pulse.

        ``d1`` to ``d4`` are lambda1 - 1 to lambda4 - 1; a ``_v`` suffix
        marks a derivative by V_A.
        """
        v = v_a + 1.0
        u_a = u * v_a
        # first pair: A - 2, sqrt(B) - 1, then lambda1 + lambda2 - 2
        a_m2 = u_a * (u_a + 2.0) + t_eps * (2.0 * (u + v * t) + t_eps)
        a_m2_v = 2.0 * (u * (u_a + 1.0) + t * t_eps)
        rb_m1 = u_a + v * t_eps
        rb_m1_v = u + t_eps
        sum_m4 = a_m2 + 2.0 * rb_m1
        root = math.sqrt(4.0 + sum_m4)
        sum12 = sum_m4 / (root + 2.0)
        sum12_v = (a_m2_v + 2.0 * rb_m1_v) / (2.0 * root)
        gap = v * u - t_chi
        gap_v = u if gap >= 0.0 else -u
        d1 = 0.5 * (sum12 + abs(gap))
        d2 = (rb_m1 - d1) / (1.0 + d1)
        # second pair: C - 2, D - 1, sqrt(D) - 1, then lambda3 + lambda4 - 2
        # and (lambda3 - 1)(lambda4 - 1)
        den = t * v + t_chi + chi_hom
        shared = t_chi * v_a * (v + 1.0)
        shared_v = 2.0 * v * t_chi
        c_m2 = (shared + a_m2 * chi_hom) / den
        c_m2_v = (shared_v + a_m2_v * chi_hom - t * c_m2) / den
        d_m1 = (shared + rb_m1 * (rb_m1 + 2.0) * chi_hom) / den
        d_m1_v = (shared_v + 2.0 * (rb_m1 + 1.0) * rb_m1_v * chi_hom - t * d_m1) / den
        root = math.sqrt(1.0 + d_m1)
        rd_m1 = d_m1 / (root + 1.0)
        rd_m1_v = d_m1_v / (2.0 * root)
        sum_m4 = c_m2 + 2.0 * rd_m1
        root = math.sqrt(4.0 + sum_m4)
        sum34 = sum_m4 / (root + 2.0)
        sum34_v = (c_m2_v + 2.0 * rd_m1_v) / (2.0 * root)
        prod34 = rd_m1 - sum34
        prod34_v = rd_m1_v - sum34_v
        disc = sum34 * sum34 - 4.0 * prod34  # (lambda3 - lambda4)^2
        if disc < 0.0:
            if disc < -DISCRIMINANT_TOL * sum34:
                raise ValueError(f"negative symplectic discriminant: {disc}")
            disc = 0.0
        split = math.sqrt(disc)
        d3 = 0.5 * (sum34 + split)
        d4 = prod34 / d3 if d3 > 0.0 else 0.0

        g1, g1_v = holevo_g_excess(d1)
        g2, g2_v = holevo_g_excess(d2)
        g3, g3_v = holevo_g_excess(d3)
        g4, g4_v = holevo_g_excess(d4)
        # g'(l1) l1' + g'(l2) l2' with l1,2' = (sum12' +- gap') / 2, and
        # likewise for the second pair, whose split' = (sum34 sum34' -
        # 2 prod34') / split carries g'(l3) - g'(l4), 0 when split is 0
        chi_v = 0.5 * (sum12_v * (g1_v + g2_v) + gap_v * (g1_v - g2_v)
                       - sum34_v * (g3_v + g4_v))
        if split > 0.0:
            chi_v -= (sum34 * sum34_v - 2.0 * prod34_v) * (g3_v - g4_v) / (2.0 * split)
        return (0.5 * math.log2((v + chi_tot) / info_den), g1 + g2 - g3 - g4,
                info_slope / (v + chi_tot), chi_v)

    return terms


def mutual_information(v_a: float, transmissivity: float, excess: float,
                       receiver_eff: float = Gg02Params.KEYS.nominal["receiver_efficiency"],
                       electronic: float = Gg02Params.KEYS.nominal["electronic_noise"]) -> float:
    """Alice-Bob mutual information in bits per pulse (homodyne detection)."""
    return _fraction_terms(transmissivity, excess, receiver_eff, electronic)(v_a)[0]


def holevo_bound(v_a: float, transmissivity: float, excess: float,
                 receiver_eff: float = Gg02Params.KEYS.nominal["receiver_efficiency"],
                 electronic: float = Gg02Params.KEYS.nominal["electronic_noise"]) -> float:
    """Holevo information of the eavesdropper about Bob's measurement, bits/pulse."""
    return _fraction_terms(transmissivity, excess, receiver_eff, electronic)(v_a)[1]


def _secret_fraction(transmissivity, excess, params: Gg02Params):
    """V_A -> (K, dK/dV_A, beta * I_AB, chi_BE, dchi_BE/dV_A) at one operating point.

    K = beta * I_AB - chi_BE; its two terms and chi_BE's slope come along
    for the V_A search's no-key certificate.
    """
    terms = _fraction_terms(
        transmissivity, excess, params.receiver_efficiency, params.electronic_noise
    )
    beta = params.beta

    def secret_fraction(v_a: float) -> tuple[float, float, float, float, float]:
        info, chi, info_v, chi_v = terms(v_a)
        gain = beta * info
        return gain - chi, beta * info_v - chi_v, gain, chi, chi_v

    return secret_fraction


def _best_modulation(
    transmissivity: float, excess: float, params: Gg02Params, floor: float = -math.inf
) -> tuple[float, float]:
    """(V_A, K(V_A)) at the secret fraction's maximum found by the V_A search.

    Secant steps on dK/dV_A from ``_SEARCH_START``, inside the bracket [a, b]
    that the slopes seen so far leave for the maximum.  A step that leaves
    the bracket, or that is not shorter than half the step before last,
    bisects the bracket instead, except that a step past a range end whose
    slope is not yet known evaluates that end.  K is taken to be unimodal,
    so a range end where K still rises towards the end is the maximum.
    Returns the evaluated V_A with the largest K, and that K.

    With a finite ``floor`` the search also stops, at a K below ``floor``,
    once the points it has evaluated prove that no V_A in the range gives
    K >= ``floor`` (the no-key certificate).  Once a and b are both
    evaluated, the maximum lies in [a, b], and every K there is at most
    beta I_AB(b) - chi_BE(a): I_AB rises with V_A, and chi_BE does not
    fall on [a, b] if its slope at a is >= 0.  That rests on a second
    premise, next to unimodality: chi_BE's slope changes sign at most once,
    and only from - to +.  chi_BE does fall with V_A at small V_A behind a
    near-ideal receiver (in random draws: V_A <= 0.17, eta_B >= 0.94,
    v_el <= 0.06, eps >= 1e-3), so chi_BE(a) serves only where its slope
    is >= 0.  The search stops once the bound is below ``floor`` by
    ``NO_KEY_MARGIN``, far more than K's float noise.
    """
    fraction = _secret_fraction(transmissivity, excess, params)
    lo, hi = MODULATION_SEARCH_RANGE
    a, b = lo, hi
    a_seen = b_seen = False  # whether a and b are evaluated points
    cut = floor - NO_KEY_MARGIN
    gain_b, chi_a = math.inf, None  # beta I_AB(b); chi_BE(a) if its slope there is >= 0
    x, x_old, s_old = _SEARCH_START[0], None, None
    step = step_old = math.inf
    best_x, best_k = x, -math.inf
    for _ in range(_MAX_EVALUATIONS):
        k, s, gain, chi, chi_v = fraction(x)
        if k > best_k:
            best_x, best_k = x, k
        if s > 0.0:
            if x == hi:
                break
            if x >= a:
                a, a_seen, chi_a = x, True, chi if chi_v >= 0.0 else None
        elif s < 0.0:
            if x == lo:
                break
            if x <= b:
                b, b_seen, gain_b = x, True, gain
        else:
            break
        if chi_a is not None and gain_b - chi_a < cut:
            break
        if x_old is None:
            x_next = _SEARCH_START[1]
        else:
            x_next = x - s * (x - x_old) / (s - s_old) if s != s_old else 0.5 * (a + b)
            if not a < x_next < b:
                if x_next >= b and not b_seen:
                    x_next = hi
                elif x_next <= a and not a_seen:
                    x_next = lo
                else:
                    x_next = 0.5 * (a + b)
            elif abs(x_next - x) >= 0.5 * step_old:
                x_next = 0.5 * (a + b)
            step, step_old = abs(x_next - x), step
            if step <= MODULATION_SEARCH_TOL * x:
                break
        x_old, s_old, x = x, s, x_next
    return best_x, best_k


def optimal_modulation_variance(
    transmissivity: float, excess: float, params: Gg02Params
) -> float:
    """Modulation variance maximizing the secret fraction at this operating point."""
    return _best_modulation(transmissivity, excess, params)[0]


def gg02_rate_at(transmissivity: float, excess: float, params: Gg02Params) -> float:
    """Key rate per pulse for explicit channel numbers.

    With an optimized V_A this is the search's own best K, the value K takes
    when evaluated again at that V_A, or 0 as soon as the search has proved
    that no V_A gives K >= 0.
    """
    v_a = params.modulation_variance
    if v_a is None:
        return max(0.0, _best_modulation(transmissivity, excess, params, floor=0.0)[1])
    return max(0.0, _secret_fraction(transmissivity, excess, params)(v_a)[0])


def gg02_rate(link: CvLinkBudget, params: Gg02Params) -> float:
    """Key rate per pulse for a CV link budget."""
    return gg02_rate_at(link.transmissivity, link.excess_noise, params)
