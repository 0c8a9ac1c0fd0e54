"""Coherent-state CV-QKD rate: mutual information, Holevo bound, optimizer."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkd_access import SimulationConfig, SweepSpec, run_sweep
from qkd_access.budget import CvLinkBudget
from qkd_access.protocols import (
    Gg02Params,
    gg02_rate,
    gg02_rate_at,
    holevo_bound,
    mutual_information,
)
from qkd_access.protocols import gg02
from qkd_access.protocols.gg02 import (
    MODULATION_SEARCH_RANGE,
    _secret_fraction,
    optimal_modulation_variance,
)

from oracles import golden_section_max, holevo_bound_cm, holevo_bound_mp, secret_fraction_mp

NOMINAL = Gg02Params()
RECEIVER = dict(receiver_eff=0.6, electronic=0.015)

# T over the whole range and down to 1 - 1e-16 (the float below 1), eps over
# the whole range and down to 1e-12, and both exactly 1 and 0
TRANSMISSIVITIES = st.one_of(st.floats(1e-3, 1.0), st.just(1.0),
                             st.floats(-16.0, -1.0).map(lambda x: 1.0 - 10.0 ** x))
EXCESS_NOISES = st.one_of(st.floats(0.0, 0.2), st.just(0.0),
                          st.floats(-12.0, -1.0).map(lambda x: 10.0 ** x))


class TestMutualInformation:
    def test_identity_channel(self):
        assert mutual_information(3.0, 1.0, 0.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_modulation(self):
        assert mutual_information(1e-9, 0.5, 0.01, **RECEIVER) == pytest.approx(0.0, abs=1e-8)

    def test_reference_value(self):
        got = mutual_information(4.0, 0.25, 0.01, **RECEIVER)
        assert got == pytest.approx(0.3346316461406765, rel=1e-12, abs=0.0)

    def test_rejects_zero_transmissivity(self):
        with pytest.raises(ValueError):
            mutual_information(4.0, 0.0, 0.01, **RECEIVER)


class TestHolevoBound:
    def test_identity_channel_leaks_nothing(self):
        assert holevo_bound(3.0, 1.0, 0.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_reference_value(self):
        got = holevo_bound(4.0, 0.25, 0.05, **RECEIVER)
        assert got == pytest.approx(0.275078944615, abs=1e-9)

    def test_matches_covariance_matrix_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v_a = rng.uniform(0.5, 30.0)
            t = rng.uniform(0.01, 1.0)
            eps = rng.uniform(0.0, 0.3)
            closed = holevo_bound(v_a, t, eps, **RECEIVER)
            oracle = holevo_bound_cm(v_a, t, eps, 0.6, 0.015)
            assert closed == pytest.approx(oracle, abs=1e-8)

    @settings(max_examples=300, deadline=None)
    @given(t=TRANSMISSIVITIES, eps=EXCESS_NOISES, v_a=st.floats(0.1, 100.0))
    # at T = 1 the reference's discriminants are about 4 eps^2, which 50-digit
    # arithmetic rounded below zero for these
    @example(t=1.0, eps=1.943769120764836e-53, v_a=68.0)
    @example(t=1.0, eps=2.392921929322477e-31, v_a=1.25)
    @example(t=1.0, eps=6.62607015e-34, v_a=16.0)
    def test_matches_50_digit_reference(self, t, eps, v_a):
        # the bound is below 1e-9 bits and below the worst error of the former
        # discriminant forms in every band of T: 7e-13 bits for T <= 0.9, 8e-10
        # up to 1 - 1e-6 and 1.9e-7 above, where they also raised
        got = holevo_bound(v_a, t, eps, **RECEIVER)
        assert abs(got - float(holevo_bound_mp(v_a, t, eps, 0.6, 0.015))) <= 5e-13
        k, slope = _secret_fraction(t, eps, NOMINAL)(v_a)[:2]
        assert math.isfinite(k) and math.isfinite(slope)

    def test_non_negative(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            got = holevo_bound(
                rng.uniform(0.2, 50.0), rng.uniform(1e-3, 1.0), rng.uniform(0.0, 0.5), **RECEIVER
            )
            assert got >= -1e-10


class TestKeyRate:
    def test_identity_channel_anchor(self):
        params = Gg02Params(modulation_variance=3.0, beta=0.95,
                            receiver_efficiency=1.0, electronic_noise=0.0)
        assert gg02_rate_at(1.0, 0.0, params) == pytest.approx(0.95, abs=1e-9)

    def test_noise_dominated_clamp(self):
        params = Gg02Params(modulation_variance=4.0)
        assert gg02_rate_at(0.5, 1.0, params) == 0.0

    def test_total_loss_gives_no_key(self):
        # the receiver's residual noise referred to the channel input blows
        # up as the transmissivity vanishes, killing the key
        link = CvLinkBudget(
            transmissivity=1e-6, eps_bulb=0.0, eps_raman=0.0,
            eps_receiver=0.002 / (1e-6 * 0.6),
        )
        assert gg02_rate(link, Gg02Params(modulation_variance=4.0)) == 0.0
        assert gg02_rate(link, NOMINAL) == 0.0

    def test_zero_reconciliation_gives_no_key(self):
        params = Gg02Params(modulation_variance=4.0, beta=0.0)
        assert gg02_rate_at(0.5, 0.01, params) == 0.0

    def test_monotone_in_excess_noise(self):
        params = Gg02Params(modulation_variance=5.0)
        grid = np.linspace(0.0, 0.3, 100)
        rates = [gg02_rate_at(0.25, float(e), params) for e in grid]
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_budget_wrapper(self):
        link = CvLinkBudget(transmissivity=0.25, eps_bulb=0.01, eps_raman=0.02, eps_receiver=0.005)
        assert gg02_rate(link, NOMINAL) == pytest.approx(
            gg02_rate_at(0.25, 0.035, NOMINAL), rel=1e-12, abs=0.0
        )


class TestLongFeeder:
    @pytest.mark.parametrize("setup", [1, 2])
    def test_no_key_from_1000_km(self, setup):
        # the launch-power rule drives eps to ~1e54 at 1500 km, where the
        # cancelling form of g once wrote 0.91 bits per pulse on setup 1 and up
        # to 3.5e100 on setup 2; the 50-digit K is below 0 at every such point
        spec = SweepSpec(setup=setup, protocol="GG02", case=3, variable="L0_km",
                         start=1.0, stop=8000.0, points=17)
        rows = run_sweep(spec, SimulationConfig.from_dict({})).rows
        assert [row.rate_per_pulse for row in rows if row.value >= 1000.0] == [0.0] * 15


class TestOptimizer:
    def test_beats_fixed_choices(self):
        for t, eps in [(0.25, 0.01), (0.05, 0.05), (0.5, 0.002)]:
            optimized = gg02_rate_at(t, eps, Gg02Params())
            for v_a in (1.0, 3.0, 10.0, 30.0):
                fixed = gg02_rate_at(t, eps, Gg02Params(modulation_variance=v_a))
                assert optimized >= fixed - 1e-6

    def test_agrees_with_dense_grid(self):
        t, eps = 0.1, 0.03
        best = optimal_modulation_variance(t, eps, NOMINAL)
        grid = np.linspace(0.1, 100.0, 20001)
        rates = [gg02_rate_at(t, eps, Gg02Params(modulation_variance=float(v))) for v in grid]
        v_grid = float(grid[int(np.argmax(rates))])
        k_best = gg02_rate_at(t, eps, Gg02Params(modulation_variance=best))
        k_grid = gg02_rate_at(t, eps, Gg02Params(modulation_variance=v_grid))
        assert k_best == pytest.approx(k_grid, abs=1e-7)


    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(1e-3, 1.0), eps=st.floats(0.0, 0.2),
           beta=st.sampled_from((0.9, 0.95, 0.98, 1.0)))
    def test_not_worse_than_golden_section_reference(self, t, eps, beta):
        # the reference is the golden-section search with a 1e-4 bracket; an
        # absolute bound, because K's own float noise near V_A = 100 is ~1e-12
        params = Gg02Params(beta=beta)
        fraction = _secret_fraction(t, eps, params)

        def k(v_a):
            return fraction(v_a)[0]

        reference = max(0.0, k(golden_section_max(k, *MODULATION_SEARCH_RANGE, 1e-4)))
        assert gg02_rate_at(t, eps, params) >= reference - 1e-10

    @settings(max_examples=200, deadline=None)
    @given(t=TRANSMISSIVITIES, eps=EXCESS_NOISES,
           beta=st.sampled_from((0.9, 0.95, 0.98, 1.0)))
    def test_rate_is_k_at_the_searched_variance(self, t, eps, beta):
        # the rate reuses the search's best K instead of evaluating K again
        params = Gg02Params(beta=beta)
        v_a = optimal_modulation_variance(t, eps, params)
        want = max(0.0, _secret_fraction(t, eps, params)(v_a)[0])
        assert gg02_rate_at(t, eps, params) == pytest.approx(want, rel=0.0, abs=0.0)

    def test_near_lossless_channel_has_a_rate(self):
        assert gg02_rate_at(1.0, 1e-12, NOMINAL) >= 0.0

    # GG02 links of setups 1-2 over the coupling-loss (0-30 dB) and feeder
    # (0.5-100 km) ranges of the bench's cv workload, as (T, eps), from the
    # lowest transmissivity to the highest
    CV_LINKS = [
        (0.0002263, 14.74), (0.0008594, 3.93), (0.001372, 2.452), (0.001942, 1.729),
        (0.002631, 1.269), (0.003451, 0.9714), (0.004589, 0.7285), (0.006082, 0.5501),
        (0.007888, 0.4251), (0.009872, 0.342), (0.01265, 0.2654), (0.01544, 0.2177),
        (0.0193, 0.174), (0.02291, 0.1464), (0.0277, 0.121), (0.0329, 0.1018),
        (0.04258, 0.07857), (0.05612, 0.06114), (0.0733, 0.04721), (0.09692, 0.03446),
        (0.1241, 0.02859), (0.1664, 0.02175), (0.2447, 0.01363), (0.8775, 0.004768),
    ]

    @staticmethod
    def evaluations(monkeypatch, t, eps):
        """(rate, evaluations of K and dK/dV_A) of one nominal rate call."""
        evaluated = []

        def counting(*args):
            fraction = _secret_fraction(*args)

            def counted(v_a):
                evaluated.append(v_a)
                return fraction(v_a)
            return counted

        with monkeypatch.context() as patch:
            patch.setattr(gg02, "_secret_fraction", counting)
            return gg02_rate_at(t, eps, NOMINAL), len(evaluated)

    def test_evaluations_per_search(self, monkeypatch):
        # Brent's search on K alone took 19.4 evaluations per search here
        calls = [self.evaluations(monkeypatch, t, eps) for t, eps in self.CV_LINKS]
        assert sum(n for _, n in calls) / len(self.CV_LINKS) <= 10

    def test_no_key_searches_stop_early(self, monkeypatch):
        # the 16 links without key took 6-7 evaluations each before the search
        # stopped on a no-key certificate
        calls = [self.evaluations(monkeypatch, t, eps) for t, eps in self.CV_LINKS]
        no_key = [n for rate, n in calls if rate == 0.0]
        assert len(no_key) == 16
        assert sum(no_key) / len(no_key) <= 3

    @settings(max_examples=500, deadline=None)
    @given(t=st.one_of(st.floats(1e-6, 1.0), st.floats(-6.0, 0.0).map(lambda x: 10.0 ** x),
                       st.floats(-16.0, -0.3).map(lambda x: 1.0 - 10.0 ** x)),
           eps=st.one_of(st.floats(0.0, 1e2), st.floats(-12.0, 2.0).map(lambda x: 10.0 ** x)),
           beta=st.floats(0.0, 1.0), eta=st.floats(1e-6, 1.0), v_el=st.floats(0.0, 0.2))
    def test_rate_matches_the_full_search(self, t, eps, beta, eta, v_el):
        # the rate's search may stop once no V_A can give key; the rate stays
        # that of the search run to its end, to the bit
        params = Gg02Params(beta=beta, receiver_efficiency=eta, electronic_noise=v_el)
        full = max(0.0, gg02._best_modulation(t, eps, params)[1])
        assert gg02_rate_at(t, eps, params).hex() == full.hex()

    def test_full_search_for_the_variance(self):
        # a link without key: the rate's search stops early, but the optimal
        # V_A still comes from the search run to its end
        t, eps = self.CV_LINKS[5]
        assert gg02_rate_at(t, eps, NOMINAL) == 0.0
        v_a = optimal_modulation_variance(t, eps, NOMINAL)
        assert abs(_secret_fraction(t, eps, NOMINAL)(v_a)[1]) < 1e-9  # 5e-6 at the first point

    # (T, eps, eta_B, v_el, V_A): a near-ideal receiver at small V_A, where
    # chi_BE falls with V_A at about half the points, or any link and V_A
    PREMISE_POINTS = st.one_of(
        st.tuples(st.floats(-16.0, -0.3).map(lambda x: 1.0 - 10.0 ** x),
                  st.floats(-2.0, 2.0).map(lambda x: 10.0 ** x),
                  st.floats(-5.0, -1.3).map(lambda x: 1.0 - 10.0 ** x),
                  st.just(0.0) | st.floats(-6.0, -1.3).map(lambda x: 10.0 ** x),
                  st.floats(0.1, 0.17)),
        st.tuples(st.floats(-6.0, 0.0).map(lambda x: 10.0 ** x), st.floats(0.0, 1e2),
                  st.floats(1e-3, 1.0), st.floats(0.0, 0.2), st.floats(0.1, 100.0)),
    )

    @settings(max_examples=200, deadline=None)
    @given(point=PREMISE_POINTS, rises=st.lists(st.floats(-6.0, 3.0), min_size=1, max_size=4))
    # every lambda - 1 is ~ eps here, below the resolution of a 50-digit
    # lambda: a reference that forms lambda - 1 as a difference misorders these
    @example(point=(1.0, 4.337951671448226e-48, 0.0078125, 0.0, 0.5), rises=[-1.0])
    def test_holevo_bound_does_not_fall_past_a_rising_point(self, point, rises):
        # the no-key certificate takes chi_BE(a) as a floor on [a, b] only where
        # the slope it reads at a is >= 0; at 50 digits chi_BE(b) >= chi_BE(a)
        # there for every b > a, near a and far from it
        t, eps, eta, v_el, a = point
        params = Gg02Params(receiver_efficiency=eta, electronic_noise=v_el)
        if _secret_fraction(t, eps, params)(a)[4] < 0.0:
            return
        chi_a = holevo_bound_mp(a, t, eps, eta, v_el)
        for rise in rises:
            b = min(MODULATION_SEARCH_RANGE[1], a * (1.0 + 10.0 ** rise))
            if b > a:
                assert holevo_bound_mp(b, t, eps, eta, v_el) >= chi_a


class TestSlope:
    """dK/dV_A against a central difference of K in 50-digit arithmetic."""

    @staticmethod
    def central_difference(v_a, t, eps, beta=NOMINAL.beta):
        h = mpmath.mpf("1e-12")

        def k(x):
            return secret_fraction_mp(x, t, eps, beta, 0.6, 0.015)

        with mpmath.workdps(50):
            return float((k(mpmath.mpf(v_a) + h) - k(mpmath.mpf(v_a) - h)) / (2 * h))

    @pytest.mark.parametrize("t,eps", [(0.25, 0.01), (0.05, 0.05), (0.5, 0.002), (0.9, 0.0)])
    def test_near_the_optimum(self, t, eps):
        v_a = optimal_modulation_variance(t, eps, NOMINAL)
        v_a += 1e-3 * v_a  # off the root, where the slope is small but not 0
        slope = _secret_fraction(t, eps, NOMINAL)(v_a)[1]
        assert slope == pytest.approx(self.central_difference(v_a, t, eps), rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("v_a", MODULATION_SEARCH_RANGE)
    @pytest.mark.parametrize("t,eps", [(0.5, 0.002), (0.01, 0.05), (1e-3, 0.2)])
    def test_at_the_range_ends(self, v_a, t, eps):
        slope = _secret_fraction(t, eps, NOMINAL)(v_a)[1]
        assert slope == pytest.approx(self.central_difference(v_a, t, eps), rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("t,eps,v_a", [
        (1.0 - 1e-12, 0.0, 4.0), (1.0 - 1e-7, 1e-10, 50.0), (1.0 - 2.0**-53, 0.0, 0.1),
    ])
    def test_near_lossless(self, t, eps, v_a):
        slope = _secret_fraction(t, eps, NOMINAL)(v_a)[1]
        assert slope == pytest.approx(self.central_difference(v_a, t, eps), rel=1e-9, abs=1e-15)

    # lambda1 - lambda2 = |v (1 - T) - T chi_line|: below, at (to rounding) and
    # above the V_A where the two swap
    @pytest.mark.parametrize("t,eps,v_a", [(0.99, 0.01, 0.5), (0.99, 0.01, 0.99),
                                           (0.99, 0.01, 2.0), (0.9, 0.1, 0.1)])
    def test_around_the_first_pair_crossing(self, t, eps, v_a):
        slope = _secret_fraction(t, eps, NOMINAL)(v_a)[1]
        assert slope == pytest.approx(self.central_difference(v_a, t, eps), rel=1e-9, abs=1e-15)

    def test_at_unit_eigenvalues(self):
        # T = 1 and eps = 0 put lambda1 = lambda2 = 1 exactly, where g' is
        # infinite and g is 0: their terms are 0, not NaN
        for v_a in (0.1, 3.0, 100.0):
            slope = _secret_fraction(1.0, 0.0, NOMINAL)(v_a)[1]
            assert slope == pytest.approx(self.central_difference(v_a, 1.0, 0.0), rel=1e-9,
                                          abs=1e-15)


class TestParamsValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Gg02Params(modulation_variance=0.0)
        with pytest.raises(ValueError):
            Gg02Params(beta=1.5)
        with pytest.raises(ValueError):
            Gg02Params(receiver_efficiency=0.0)
        with pytest.raises(ValueError):
            Gg02Params(electronic_noise=-0.1)
