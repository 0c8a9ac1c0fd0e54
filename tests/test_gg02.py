"""Coherent-state CV-QKD rate: mutual information, Holevo bound, optimizer."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkd_access.budget import CvLinkBudget
from qkd_access.protocols import (
    Gg02Params,
    gg02_rate,
    gg02_rate_at,
    holevo_bound,
    mutual_information,
)
from qkd_access.protocols.gg02 import (
    MODULATION_SEARCH_RANGE,
    _secret_fraction,
    optimal_modulation_variance,
)

from oracles import golden_section_max, holevo_bound_cm

NOMINAL = Gg02Params()
RECEIVER = dict(receiver_eff=0.6, electronic=0.015)


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
        k = _secret_fraction(t, eps, params)
        try:
            reference = max(0.0, k(golden_section_max(k, *MODULATION_SEARCH_RANGE, 1e-4)))
        except ValueError:
            # K itself is undefined at some V_A here; that defect has its own
            # test, test_near_lossless_channel_has_a_rate
            assume(False)
        # outside the try: a raise in the shipped search alone is a failure
        assert gg02_rate_at(t, eps, params) >= reference - 1e-10

    @settings(max_examples=200, deadline=None)
    @given(t=st.floats(1e-3, 1.0), eps=st.floats(0.0, 0.2),
           beta=st.sampled_from((0.9, 0.95, 0.98, 1.0)))
    def test_rate_is_k_at_the_searched_variance(self, t, eps, beta):
        # the rate reuses the search's best K instead of evaluating K again
        params = Gg02Params(beta=beta)
        try:
            v_a = optimal_modulation_variance(t, eps, params)
        except ValueError:
            assume(False)  # K undefined at some V_A: test_near_lossless_channel_has_a_rate
        want = max(0.0, _secret_fraction(t, eps, params)(v_a))
        assert gg02_rate_at(t, eps, params) == pytest.approx(want, rel=0.0, abs=0.0)

    @pytest.mark.xfail(strict=True, raises=ValueError, reason=(
        "with T within ~1e-7 of 1 and excess noise below ~1e-9, rounding in the "
        "symplectic discriminants puts an eigenvalue below holevo_g's 1e-9 clamp"))
    def test_near_lossless_channel_has_a_rate(self):
        assert gg02_rate_at(1.0, 1e-12, NOMINAL) >= 0.0


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
