"""MDI key rate: yields, error rates, decoy gains."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkd_access.budget import MdiLinkBudget
from qkd_access.numerics import binary_entropy
from qkd_access.protocols import (
    MdiParams,
    decoy_gains,
    mdi_rate_ds,
    mdi_rate_ds_at,
    mdi_rate_spp,
    mdi_rate_spp_at,
    single_photon_errors,
    single_photon_yield,
)

from oracles import enumerate_mdi_single_photon, simulate_mdi_single_photon

NOMINAL = MdiParams()


class TestExactEnumeration:
    """The closed forms equal the four-slot click model with zero sampling error."""

    @pytest.mark.parametrize(
        "ea,eb,nn,ed",
        [
            (Fraction(1, 20), Fraction(1, 100), Fraction(1, 2000), Fraction(1, 20)),
            (Fraction(1, 10), Fraction(1, 5), Fraction(1, 1000), Fraction(33, 1000)),
            (Fraction(9, 10), Fraction(3, 4), Fraction(1, 10), Fraction(0)),
            (Fraction(1), Fraction(1), Fraction(0), Fraction(0)),
        ],
    )
    def test_yield_and_error_match(self, ea, eb, nn, ed):
        p_success, p_error = enumerate_mdi_single_photon(ea, eb, nn, ed)
        quiet = (1 - nn) ** 2
        y_closed = quiet * (
            ea * eb / 2 + (2 * ea + 2 * eb - 3 * ea * eb) * nn + 4 * (1 - ea) * (1 - eb) * nn**2
        )
        ex_y_closed = y_closed / 2 - (Fraction(1, 2) - ed) * quiet * ea * eb / 2
        assert p_success == y_closed
        assert p_error == ex_y_closed
        got = single_photon_yield(float(ea), float(eb), float(nn))
        assert got == pytest.approx(float(y_closed), rel=1e-12, abs=0.0)


class TestSinglePhotonYield:
    def test_perfect_channels(self):
        assert single_photon_yield(1.0, 1.0, 0.0) == 0.5

    def test_nothing_arrives(self):
        assert single_photon_yield(0.0, 0.0, 0.0) == 0.0

    def test_reference_value(self):
        got = single_photon_yield(0.01, 0.1, 1e-5)
        assert got == pytest.approx(5.0216031304308904e-4, rel=1e-12, abs=0.0)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            ea, eb, n = rng.random(), rng.random(), rng.random() * 0.3
            assert single_photon_yield(ea, eb, n) == pytest.approx(
                single_photon_yield(eb, ea, n), rel=1e-14, abs=0.0
            )

    def test_monte_carlo_agreement(self):
        ea, eb, n, trials = 0.05, 0.2, 1e-3, 2_000_000
        y_emp, _, _ = simulate_mdi_single_photon(ea, eb, n, 0.033, trials, seed=13)
        y = single_photon_yield(ea, eb, n)
        se = math.sqrt(y * (1 - y) / trials)
        assert abs(y_emp - y) < 3 * se


class TestSinglePhotonErrors:
    def test_perfect_interference(self):
        assert single_photon_errors(1.0, 1.0, 0.0, 0.0) == (0.0, 0.0)

    def test_noise_only_is_random(self):
        e_x, e_z = single_photon_errors(0.0, 0.0, 1e-3, 0.033)
        assert e_x == pytest.approx(0.5, rel=1e-12, abs=0.0)
        assert e_z == pytest.approx(0.5, rel=1e-12, abs=0.0)

    def test_reference_values(self):
        e_x, e_z = single_photon_errors(0.05, 0.2, 1e-4, 0.033)
        assert e_x == pytest.approx(0.037351706857164958, rel=1e-12, abs=0.0)
        assert e_z == pytest.approx(0.037444236515793525, rel=1e-12, abs=0.0)

    def test_zero_yield_marker(self):
        assert single_photon_errors(0.0, 0.0, 0.0, 0.033) == (0.0, 0.0)

    def test_monte_carlo_agreement(self):
        ea, eb, n, ed, trials = 0.3, 0.2, 0.01, 0.05, 2_000_000
        _, e_emp, accepted = simulate_mdi_single_photon(ea, eb, n, ed, trials, seed=14)
        _, _ = single_photon_errors(ea, eb, n, ed)
        e_x = single_photon_errors(ea, eb, n, ed)[0]
        se = math.sqrt(e_x * (1 - e_x) / accepted)
        assert abs(e_emp - e_x) < 3 * se


class TestDecoyGains:
    def test_noise_free_error_floor(self):
        g = decoy_gains(0.3, 0.2, 0.0, 0.5, 0.5, 0.033)
        assert g.erroneous_gain == 0.0
        assert g.qber_z == pytest.approx(0.033, rel=1e-12, abs=0.0)

    def test_reference_correct_gain(self):
        g = decoy_gains(1.0, 1.0, 0.0, 0.5, 0.5, 0.0)
        assert g.correct_gain == pytest.approx(0.059353990804092662, rel=1e-12, abs=0.0)

    def test_reference_noisy_gains(self):
        g = decoy_gains(0.1, 0.2, 1e-3, 0.5, 0.5, 0.033)
        assert g.correct_gain == pytest.approx(2.3631091006123829e-3, rel=1e-11, abs=0.0)
        assert g.erroneous_gain == pytest.approx(1.3783643244970234e-4, rel=1e-11, abs=0.0)

    def test_single_photon_gain_below_yield(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            ea, eb, n = rng.random(), rng.random(), rng.random() * 0.2
            g = decoy_gains(ea, eb, n, 0.5, 0.5, 0.033)
            assert g.single_photon_gain <= single_photon_yield(ea, eb, n)

    def test_swap_symmetry(self):
        g1 = decoy_gains(0.3, 0.05, 2e-3, 0.7, 0.4, 0.033)
        g2 = decoy_gains(0.05, 0.3, 2e-3, 0.4, 0.7, 0.033)
        assert g1.correct_gain == pytest.approx(g2.correct_gain, rel=1e-12, abs=0.0)
        assert g1.erroneous_gain == pytest.approx(g2.erroneous_gain, rel=1e-12, abs=0.0)
        assert g1.gain_z == pytest.approx(g2.gain_z, rel=1e-12, abs=0.0)


class TestRates:
    def test_spp_perfect_anchor(self):
        params = MdiParams(misalignment=0.0)
        assert mdi_rate_spp_at(1.0, 1.0, 0.0, params) == 0.5

    def test_heavy_noise_clamps(self):
        assert mdi_rate_spp_at(1e-4, 1e-4, 0.1, NOMINAL) == 0.0
        assert mdi_rate_ds_at(1e-4, 1e-4, 0.1, NOMINAL) == 0.0

    def test_ds_below_spp(self):
        assert mdi_rate_ds_at(0.1, 0.1, 1e-6, NOMINAL) < mdi_rate_spp_at(0.1, 0.1, 1e-6, NOMINAL)

    def test_slow_detectors_halve_the_rate(self):
        fast = MdiParams(misalignment=0.0)
        slow = MdiParams(misalignment=0.0, fast_detectors=False)
        assert mdi_rate_spp_at(0.2, 0.3, 0.0, slow) == pytest.approx(
            0.5 * mdi_rate_spp_at(0.2, 0.3, 0.0, fast), rel=1e-12, abs=0.0
        )
        assert mdi_rate_ds_at(0.2, 0.3, 0.0, slow) == pytest.approx(
            0.5 * mdi_rate_ds_at(0.2, 0.3, 0.0, fast), rel=1e-12, abs=0.0
        )

    def test_swap_symmetry(self):
        a = mdi_rate_ds_at(0.2, 0.05, 1e-4, MdiParams(mu=0.7, nu=0.3))
        b = mdi_rate_ds_at(0.05, 0.2, 1e-4, MdiParams(mu=0.3, nu=0.7))
        assert a == pytest.approx(b, rel=1e-12, abs=0.0)

    def test_monotone_in_noise(self):
        grid = np.linspace(0.0, 5e-3, 100)
        spp = [mdi_rate_spp_at(0.01, 0.03, float(n), NOMINAL) for n in grid]
        ds = [mdi_rate_ds_at(0.01, 0.03, float(n), NOMINAL) for n in grid]
        assert all(b <= a + 1e-15 for a, b in zip(spp, spp[1:]))
        assert all(b <= a + 1e-15 for a, b in zip(ds, ds[1:]))

    def test_budget_wrapper(self):
        link = MdiLinkBudget(eta_alice=0.01, eta_bob=0.03, bulb=1e-5, dark=1e-7)
        assert mdi_rate_spp(link, NOMINAL) == pytest.approx(
            mdi_rate_spp_at(0.01, 0.03, 1.01e-5, NOMINAL), rel=1e-12, abs=0.0
        )
        assert mdi_rate_ds(link, NOMINAL) == pytest.approx(
            mdi_rate_ds_at(0.01, 0.03, 1.01e-5, NOMINAL), rel=1e-12, abs=0.0
        )


def _composed_ds(eta_a, eta_b, noise, params):
    """The MDI-DS rate as the two public calls compose it, each evaluating Y_11."""
    gain_factor = 1.0 if params.fast_detectors else 0.5
    g = decoy_gains(eta_a, eta_b, noise, params.mu, params.nu, params.misalignment)
    e_x, _ = single_photon_errors(eta_a, eta_b, noise, params.misalignment)
    return max(0.0, params.sift_factor * gain_factor * (
        g.single_photon_gain * (1.0 - binary_entropy(e_x))
        - params.ec_inefficiency * g.gain_z * binary_entropy(g.qber_z)))


def _composed_spp(eta_a, eta_b, noise, params):
    """The MDI-SPP rate as the public yield and errors compose it."""
    gain_factor = 1.0 if params.fast_detectors else 0.5
    y11 = single_photon_yield(eta_a, eta_b, noise)
    e_x, e_z = single_photon_errors(eta_a, eta_b, noise, params.misalignment)
    return max(0.0, params.sift_factor * gain_factor * y11 * (
        1.0 - binary_entropy(e_x) - params.ec_inefficiency * binary_entropy(e_z)))


def _outcome(fn, *args):
    try:
        return fn(*args).hex()
    except ValueError as exc:
        return str(exc)


ETA = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, -1e-300, 1.5, math.nan]))
NOISE = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                  st.floats(1e-16, 1e-2),
                  st.sampled_from([0.0, 1.0, -1e-300, math.nan]))
PARAMS = st.builds(MdiParams, mu=st.floats(1e-3, 2.0), nu=st.floats(1e-3, 2.0),
                   sift_factor=st.floats(0.01, 1.0), ec_inefficiency=st.floats(1.0, 2.0),
                   misalignment=st.floats(0.0, 0.5, exclude_max=True),
                   fast_detectors=st.booleans())


class TestOneYieldPerRate:
    """Each rate evaluates Y_11 once and checks its inputs once, with the bits and
    errors of the public pieces composed as before."""

    @settings(max_examples=400, deadline=None)
    @given(eta_a=ETA, eta_b=ETA, noise=NOISE, params=PARAMS)
    def test_ds_equals_the_two_call_composition(self, eta_a, eta_b, noise, params):
        assert (_outcome(mdi_rate_ds_at, eta_a, eta_b, noise, params)
                == _outcome(_composed_ds, eta_a, eta_b, noise, params))

    @settings(max_examples=400, deadline=None)
    @given(eta_a=ETA, eta_b=ETA, noise=NOISE, params=PARAMS)
    def test_spp_equals_the_two_call_composition(self, eta_a, eta_b, noise, params):
        assert (_outcome(mdi_rate_spp_at, eta_a, eta_b, noise, params)
                == _outcome(_composed_spp, eta_a, eta_b, noise, params))

    def test_positive_rates_at_the_nominal_point(self):
        for rate, composed in ((mdi_rate_ds_at, _composed_ds), (mdi_rate_spp_at, _composed_spp)):
            got = rate(0.01, 0.03, 1e-6, NOMINAL)
            assert got > 0.0 and got.hex() == composed(0.01, 0.03, 1e-6, NOMINAL).hex()


class TestParamsValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            MdiParams(mu=0.0)
        with pytest.raises(ValueError):
            MdiParams(nu=-0.5)
        with pytest.raises(ValueError):
            MdiParams(misalignment=0.6)
