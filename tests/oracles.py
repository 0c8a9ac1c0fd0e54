"""Independent oracles used by the test suite.

Everything in here re-derives expected values without calling the package
code under test: Monte-Carlo click simulations for the BB84 and MDI
acceptance formulas, a covariance-matrix computation of the CV Holevo
bound and one from its invariants in exact arithmetic, a golden-section
search for the CV modulation variance, a 30-term Bessel series, and a
from-scratch summation of the per-channel Raman noise totals.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left

import numpy as np

PLANCK = 6.62607015e-34
LIGHTSPEED = 299792458.0


# ---------------------------------------------------------------------------
# special functions


def bessel_i0_series(x: float, terms: int = 30) -> float:
    """Truncated power series for I0, the stated reference for the package."""
    total = 0.0
    for k in range(terms):
        total += (x / 2.0) ** (2 * k) / math.factorial(k) ** 2
    return total


# ---------------------------------------------------------------------------
# BB84 Monte Carlo


def simulate_bb84(eta, noise, mu, e_d, n_pulses, seed):
    """Photon-level simulation of the gated two-detector receiver.

    Poisson source, per-photon Bernoulli transmission, one noise draw per
    detector per gate.  A pulse whose signal arrives with the opposite
    detector silent errs with the misalignment probability; every other
    click is assigned a random bit.

    Returns (empirical gain, empirical QBER, number of clicks).
    """
    rng = np.random.default_rng(seed)
    photons = rng.poisson(mu, n_pulses)
    arrived = rng.binomial(photons, eta) > 0
    opposite = rng.random(n_pulses) < noise  # noise on the detector opposite the signal
    second = rng.random(n_pulses) < noise  # second detector (noise-only clicks)
    click = arrived | opposite | second
    u = rng.random(n_pulses)
    clean_signal = arrived & ~opposite
    errors = (clean_signal & (u < e_d)) | (click & ~clean_signal & (u < 0.5))
    clicks = int(click.sum())
    qber = errors.sum() / clicks if clicks else 0.0
    return click.mean(), qber, clicks


def simulate_bb84_single_photon(eta, noise, e_d, n_pulses, seed):
    """Same receiver model with exactly one photon per pulse (yield/error oracle)."""
    rng = np.random.default_rng(seed)
    arrived = rng.random(n_pulses) < eta
    opposite = rng.random(n_pulses) < noise
    second = rng.random(n_pulses) < noise
    click = arrived | opposite | second
    u = rng.random(n_pulses)
    clean_signal = arrived & ~opposite
    errors = (clean_signal & (u < e_d)) | (click & ~clean_signal & (u < 0.5))
    clicks = int(click.sum())
    qber = errors.sum() / clicks if clicks else 0.0
    return click.mean(), qber, clicks


# ---------------------------------------------------------------------------
# MDI Monte Carlo


def simulate_mdi_single_photon(eta_a, eta_b, noise, e_d, n_trials, seed):
    """Slot-level simulation of the time-bin Bell-state measurement.

    Four detection slots (two detectors x two bins).  When both photons
    arrive they either interfere into one click per bin (probability 1/2)
    or bunch into a single slot; a lone photon clicks one random slot.
    Each slot also fires on background with the given probability.  An
    event is accepted when each bin shows exactly one clicking detector;
    only the genuine interference acceptances carry the encoded bit (up to
    the misalignment error), everything else is a coin flip.

    Returns (empirical yield, empirical X error, number of acceptances).
    """
    rng = np.random.default_rng(seed)
    arr_a = rng.random(n_trials, dtype=np.float32) < eta_a
    arr_b = rng.random(n_trials, dtype=np.float32) < eta_b
    both = arr_a & arr_b
    lone = arr_a ^ arr_b

    # five fair coins per trial from one integer draw: HOM split/bunch,
    # detector choice per bin for split events, bin and detector for the
    # single-slot events
    coins = rng.integers(0, 32, n_trials, dtype=np.uint8)
    split = both & ((coins & 1).astype(bool))
    single_slot = (both & ~split) | lone
    det_bin0 = (coins & 2).astype(bool)
    det_bin1 = (coins & 4).astype(bool)
    rand_bin = (coins & 8).astype(bool)
    rand_det = (coins & 16).astype(bool)

    # slot click flags (slot = 2*bin + detector) from noise plus signals
    slot = [rng.random(n_trials, dtype=np.float32) < noise for _ in range(4)]
    slot[0] |= (split & ~det_bin0) | (single_slot & ~rand_bin & ~rand_det)
    slot[1] |= (split & det_bin0) | (single_slot & ~rand_bin & rand_det)
    slot[2] |= (split & ~det_bin1) | (single_slot & rand_bin & ~rand_det)
    slot[3] |= (split & det_bin1) | (single_slot & rand_bin & rand_det)

    success = (slot[0] ^ slot[1]) & (slot[2] ^ slot[3])
    u = rng.random(n_trials, dtype=np.float32)
    errors = np.where(split, u < e_d, u < 0.5) & success
    accepted = int(success.sum())
    e_x = errors.sum() / accepted if accepted else 0.0
    return success.mean(), e_x, accepted


def enumerate_mdi_single_photon(eta_a, eta_b, noise, e_d):
    """Exact success/error probabilities of the slot model by enumeration.

    Walks all 2^7 discrete signal configurations x 2^4 noise patterns with
    exact rational arithmetic, so the result carries no sampling error at
    all.  Inputs must be Fractions (or ints).

    Returns (P[success], P[success and error]) as Fractions.
    """
    from fractions import Fraction
    from itertools import product

    ea, eb, nn, ed = (Fraction(x) for x in (eta_a, eta_b, noise, e_d))
    p_success = Fraction(0)
    p_error = Fraction(0)
    for arr_a, arr_b, split_coin, d0, d1, rbin, rdet in product((0, 1), repeat=7):
        p_arr = (ea if arr_a else 1 - ea) * (eb if arr_b else 1 - eb) * Fraction(1, 2**5)
        both = arr_a and arr_b
        lone = arr_a != arr_b
        split = both and split_coin
        single = (both and not split_coin) or lone
        signal = [0, 0, 0, 0]
        if split:
            signal[d0] = 1
            signal[2 + d1] = 1
        if single:
            signal[2 * rbin + rdet] = 1
        for pattern in product((0, 1), repeat=4):
            p_noise = Fraction(1)
            for bit in pattern:
                p_noise *= nn if bit else 1 - nn
            clicks = [s or m for s, m in zip(signal, pattern)]
            if (clicks[0] != clicks[1]) and (clicks[2] != clicks[3]):
                p = p_arr * p_noise
                p_success += p
                p_error += p * (ed if split else Fraction(1, 2))
    return p_success, p_error


# ---------------------------------------------------------------------------
# CV Holevo bound via covariance matrices


def _symplectic_eigerrvalues(sigma: np.ndarray) -> np.ndarray:
    n = sigma.shape[0] // 2
    omega = np.zeros((2 * n, 2 * n))
    for i in range(n):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    eig = np.abs(np.linalg.eigvals(1j * omega @ sigma))
    return np.sort(eig)[::2]  # eigenvalues come in +/- pairs


def _g_entropy(x: float) -> float:
    if x <= 1.0 + 1e-12:
        return 0.0
    return (x + 1) / 2 * np.log2((x + 1) / 2) - (x - 1) / 2 * np.log2((x - 1) / 2)


def holevo_bound_cm(v_a, transmissivity, excess, receiver_eff, electronic):
    """Eve's information from an explicit Gaussian-state model.

    Entangled-source picture: Eve purifies the channel; the trusted
    detector is a beam splitter fed by an EPR state whose variance
    reproduces the electronic noise.  Eve's conditional entropy after
    Bob's homodyne is the entropy of the remaining pure-state partners.
    """
    z = np.diag([1.0, -1.0])
    i2 = np.eye(2)
    v = v_a + 1.0
    t = transmissivity
    chi_line = (1.0 - t) / t + excess
    b = t * (v + chi_line)
    c_ab = math.sqrt(t * (v * v - 1.0))

    sigma_ab = np.zeros((4, 4))
    sigma_ab[0:2, 0:2] = v * i2
    sigma_ab[2:4, 2:4] = b * i2
    sigma_ab[0:2, 2:4] = c_ab * z
    sigma_ab[2:4, 0:2] = c_ab * z
    entropy_e = sum(_g_entropy(x) for x in _symplectic_eigerrvalues(sigma_ab))

    # modes (A, B, F0, G); detector = BS(eta_B) on (B, F0) with EPR(F0, G)
    v_epr = 1.0 + electronic / (1.0 - receiver_eff) if receiver_eff < 1.0 else 1.0
    sigma = np.zeros((8, 8))
    sigma[0:4, 0:4] = sigma_ab
    sigma[4:6, 4:6] = v_epr * i2
    sigma[6:8, 6:8] = v_epr * i2
    c_fg = math.sqrt(max(v_epr * v_epr - 1.0, 0.0))
    sigma[4:6, 6:8] = c_fg * z
    sigma[6:8, 4:6] = c_fg * z

    mix = np.eye(8)
    tr, rf = math.sqrt(receiver_eff), math.sqrt(1.0 - receiver_eff)
    mix[2:4, 2:4] = tr * i2
    mix[2:4, 4:6] = rf * i2
    mix[4:6, 2:4] = -rf * i2
    mix[4:6, 4:6] = tr * i2
    sigma = mix @ sigma @ mix.T

    keep = [0, 1, 4, 5, 6, 7]
    sigma_keep = sigma[np.ix_(keep, keep)]
    cross = sigma[np.ix_(keep, [2, 3])]
    pseudo = np.zeros((2, 2))
    pseudo[0, 0] = 1.0 / sigma[2, 2]  # homodyne of the x quadrature
    conditional = sigma_keep - cross @ pseudo @ cross.T
    entropy_cond = sum(_g_entropy(x) for x in _symplectic_eigerrvalues(conditional))
    return entropy_e - entropy_cond


def holevo_bound_mp(v_a, transmissivity, excess, receiver_eff, electronic, digits=50):
    """Eve's information in bits from the invariant formulas, exact but for roots and logs.

    The textbook route (Lodewyck et al., PRA 76, 042305, 2007): each pair of
    symplectic eigenvalues from its invariants, lambda^2 = (A +- sqrt(A^2 -
    4B)) / 2.  At T = 1 each discriminant A^2 - 4B is about 4 eps^2 against
    A^2 = 4, so its cancellation costs about 2 log10(1/eps) digits: over
    600 for the smallest floats, and at T = 1, eps = 0 it is exactly 0.  No
    fixed precision resolves that, so the invariants and discriminants are
    computed exactly, as rationals of the inputs' exact values (a float or
    an mpf), and never clamped; only the square roots and logarithms round,
    at ``digits`` digits.

    Nor is lambda - 1 taken as a difference, which would cost -log10(lambda
    - 1) digits: at T = 1 and eps ~ 1e-48 every lambda - 1 is ~ eps, and the
    bound ~ 4e-48 bits would carry an error of ~ 1e-48 at 50 digits.  With
    the pair's sum s = lambda1^2 + lambda2^2 and product p = lambda1^2
    lambda2^2, lambda^2 - 1 is (s - 2 + sqrt(s^2 - 4p)) / 2 for the larger
    and 2 (p - s + 1) / (s - 2 + sqrt(s^2 - 4p)) for the smaller, where s - 2
    and p - s + 1 = (lambda1^2 - 1)(lambda2^2 - 1) are exact.  So each g
    term is good to about ``digits`` digits relative to itself.
    """
    from fractions import Fraction

    import mpmath  # here, not at the top: bench/checks.py imports this module

    def exact(x):
        if isinstance(x, mpmath.mpf):  # as it is: mpmath.mpf(x) would round it
            man, exp = x.man_exp
            return Fraction(man) * Fraction(2) ** exp
        return Fraction(x)

    v_a, t, eps, eta, v_el = map(exact, (v_a, transmissivity, excess, receiver_eff, electronic))
    v = v_a + 1
    chi_line = (1 - t) / t + eps
    chi_hom = (1 - eta) / eta + v_el / eta
    a = v * v * (1 - 2 * t) + 2 * t + t * t * (v + chi_line) ** 2
    root_b = t * (v * chi_line + 1)
    den = t * (v + chi_line) + chi_hom
    c = (v * root_b + t * (v + chi_line) + a * chi_hom) / den
    d = root_b * (v + root_b * chi_hom) / den

    with mpmath.workdps(digits):
        def to_mp(x):
            return mpmath.mpf(x.numerator) / x.denominator

        def excesses(s, p_squared):
            """lambda - 1 for the pair with invariants s and p_squared."""
            big = to_mp(s - 2) + mpmath.sqrt(to_mp(s * s - 4 * p_squared))  # complex if < 0
            small = to_mp(2 * (p_squared - s + 1)) / big if big != 0 else mpmath.mpf(0)
            return [x / (mpmath.sqrt(1 + x) + 1) for x in (big / 2, small)]

        def g(delta):
            """g(1 + delta)."""
            if delta <= 0:
                return mpmath.mpf(0)
            h = delta / 2
            return ((1 + h) * mpmath.log1p(h) - h * mpmath.log(h)) / mpmath.log(2)

        d1, d2 = excesses(a, root_b * root_b)
        d3, d4 = excesses(c, d)
        return g(d1) + g(d2) - g(d3) - g(d4)


def secret_fraction_mp(v_a, transmissivity, excess, beta, receiver_eff, electronic, digits=50):
    """beta * I_AB - chi_BE in bits, in ``digits``-digit arithmetic; V_A may be an mpf."""
    import mpmath

    with mpmath.workdps(digits):
        t, eps, eta, v_el = (mpmath.mpf(x) for x in (transmissivity, excess, receiver_eff,
                                                     electronic))
        chi_tot = (1 - t) / t + eps + ((1 - eta) / eta + v_el / eta) / t
        info = mpmath.log((mpmath.mpf(v_a) + 1 + chi_tot) / (1 + chi_tot), 2) / 2
        return beta * info - holevo_bound_mp(v_a, t, eps, eta, v_el, digits)


def golden_section_max(fn, lo: float, hi: float, tol: float) -> float:
    """Argmax of a unimodal function on [lo, hi] by golden-section search.

    Shrinks the bracket by the golden ratio per evaluation until it is
    narrower than ``tol`` and returns its midpoint.
    """
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


# ---------------------------------------------------------------------------
# Raman totals by direct term-by-term summation


class FlatRamanData:
    """Stand-in for a cross-section file: one constant value everywhere."""

    def __init__(self, gamma: float):
        self.gamma_value = gamma

    def lookup(self, pump_nm: float, rx_nm: float) -> float:
        return self.gamma_value


class CsvRamanData:
    """Re-implementation of the table lookup straight from the CSV bytes."""

    def __init__(self, path, reference_pump_nm: float):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lambda_q_nm", "gamma_per_km_nm"]
        wavelengths = [float(r[0]) for r in rows[1:]]
        gammas = [float(r[1]) for r in rows[1:]]
        nu_ref = LIGHTSPEED / (reference_pump_nm * 1e-9)
        pairs = sorted(
            (LIGHTSPEED / (wl * 1e-9) - nu_ref, g) for wl, g in zip(wavelengths, gammas)
        )
        self.detunings = [p[0] for p in pairs]
        self.gammas = [p[1] for p in pairs]

    def lookup(self, pump_nm: float, rx_nm: float) -> float:
        detuning = LIGHTSPEED / (rx_nm * 1e-9) - LIGHTSPEED / (pump_nm * 1e-9)
        i = bisect_left(self.detunings, detuning)
        if i == 0 or i == len(self.detunings):
            raise ValueError("detuning out of table range")
        x0, x1 = self.detunings[i - 1], self.detunings[i]
        y0, y1 = self.gammas[i - 1], self.gammas[i]
        return y0 + (y1 - y0) * (detuning - x0) / (x1 - x0)


def _fwd(intensity, length, alpha, gamma, bandwidth):
    return intensity * math.exp(-alpha * length) * length * gamma * bandwidth


def _bwd(intensity, length, alpha, gamma, bandwidth):
    if alpha == 0.0:
        return intensity * length * gamma * bandwidth
    return intensity * (1.0 - math.exp(-2.0 * alpha * length)) / (2.0 * alpha) * gamma * bandwidth


def raman_totals_oracle(
    setup: int,
    data,
    quantum_nm,
    data_nm,
    feeder_km,
    drop_km,
    alpha_db_per_km,
    awg_db,
    bandwidth_nm,
    sensitivity_dbm=-38.5,
):
    """Term-by-term evaluation of the three setups' noise-power sums."""
    alpha = alpha_db_per_km * math.log(10.0) / 10.0
    awg = 10.0 ** (-2.0 * awg_db / 10.0)
    rx = quantum_nm[0]
    n = len(data_nm)

    def launch(k):
        total = feeder_km + drop_km[k]
        return 10.0 ** ((sensitivity_dbm + alpha_db_per_km * total + 2.0 * awg_db) / 10.0)

    if setup == 1:
        fwd = _fwd(launch(0), feeder_km + drop_km[0], alpha, data.lookup(data_nm[0], rx), bandwidth_nm)
        bwd = _bwd(launch(0), feeder_km + drop_km[0], alpha, data.lookup(data_nm[0], rx), bandwidth_nm)
        for k in range(1, n):
            gamma = data.lookup(data_nm[k], rx)
            fwd += _fwd(launch(k) * math.exp(-alpha * drop_km[k]), feeder_km, alpha, gamma, bandwidth_nm)
            bwd += _bwd(launch(k), feeder_km, alpha, gamma, bandwidth_nm)
        return fwd * awg, bwd * awg

    if setup == 3:
        gamma0 = data.lookup(data_nm[0], rx)
        fwd = _fwd(launch(0), feeder_km + drop_km[0], alpha, gamma0, bandwidth_nm)
        bwd = _bwd(launch(0), feeder_km + drop_km[0], alpha, gamma0, bandwidth_nm)
        fwd_rest = bwd_rest = 0.0
        for k in range(1, n):
            gamma = data.lookup(data_nm[k], rx)
            fwd_rest += _fwd(launch(k), feeder_km, alpha, gamma, bandwidth_nm)
            bwd_rest += _bwd(launch(k) * math.exp(-alpha * drop_km[k]), feeder_km, alpha, gamma, bandwidth_nm)
        factor = math.exp(-alpha * drop_km[0])
        return (fwd + factor * fwd_rest) * awg, (bwd + factor * bwd_rest) * awg

    if setup == 4:
        gamma0 = data.lookup(data_nm[0], rx)
        fwd_mux = _fwd(launch(0), feeder_km, alpha, gamma0, bandwidth_nm)
        bwd = _bwd(launch(0) * math.exp(-alpha * drop_km[0]), feeder_km, alpha, gamma0, bandwidth_nm)
        for k in range(1, n):
            gamma = data.lookup(data_nm[k], rx)
            fwd_mux += _fwd(launch(k), feeder_km, alpha, gamma, bandwidth_nm)
            bwd += _bwd(launch(k) * math.exp(-alpha * drop_km[k]), feeder_km, alpha, gamma, bandwidth_nm)
        bwd += _bwd(launch(0) * math.exp(-alpha * feeder_km), drop_km[0], alpha, gamma0, bandwidth_nm)
        fwd_direct = _fwd(launch(0), drop_km[0], alpha, gamma0, bandwidth_nm)
        return fwd_mux * awg + fwd_direct, bwd * awg

    raise ValueError(setup)
