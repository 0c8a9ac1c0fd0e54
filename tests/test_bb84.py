"""Decoy-state BB84 gains, error rates and key rate."""

import math

import numpy as np
import pytest

from qkd_access.budget import LinkBudget
from qkd_access.protocols import (
    Bb84Params,
    ds_bb84_rate,
    ds_bb84_rate_at,
    gain_and_qber,
    spp_bb84_rate_at,
)

from oracles import simulate_bb84, simulate_bb84_single_photon

NOMINAL = Bb84Params()


class TestGainAndQber:
    def test_lossless_noiseless(self):
        g = gain_and_qber(1.0, 0.0, Bb84Params(misalignment=0.0))
        assert g.qber == 0.0
        assert g.single_photon_error == 0.0
        assert g.single_photon_yield == 1.0

    def test_noise_only_limit(self):
        noise = 1e-3
        g = gain_and_qber(0.0, noise, NOMINAL)
        assert g.gain == pytest.approx(1.0 - (1.0 - noise) ** 2, rel=1e-12, abs=0.0)
        assert g.qber == pytest.approx(0.5, rel=1e-9, abs=0.0)

    def test_reference_gain(self):
        g = gain_and_qber(0.1, 1e-7, Bb84Params(mu=0.5))
        assert g.gain == pytest.approx(0.04877076574516138, rel=1e-12, abs=0.0)

    def test_zero_gain_guard(self):
        g = gain_and_qber(0.0, 0.0, NOMINAL)
        assert g.gain == 0.0 and g.qber == 0.0

    def test_error_rates_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            eta = rng.random()
            noise = rng.random() * 0.5
            ed = rng.random() * 0.49
            g = gain_and_qber(eta, noise, Bb84Params(misalignment=ed))
            assert -1e-12 <= g.qber <= 0.5 + 1e-12
            assert -1e-12 <= g.single_photon_error <= 0.5 + 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gain_and_qber(1.2, 0.0, NOMINAL)
        with pytest.raises(ValueError):
            gain_and_qber(0.5, 1.0, NOMINAL)


class TestMonteCarloAgreement:
    def test_gain_and_qber_match_simulation(self):
        eta, noise, mu, ed = 0.1, 1e-3, 0.5, 0.033
        q_emp, e_emp, clicks = simulate_bb84(eta, noise, mu, ed, 2_000_000, seed=11)
        g = gain_and_qber(eta, noise, Bb84Params(mu=mu, misalignment=ed))
        se_q = math.sqrt(g.gain * (1 - g.gain) / 2e6)
        se_e = math.sqrt(g.qber * (1 - g.qber) / clicks)
        assert abs(q_emp - g.gain) < 3 * se_q
        assert abs(e_emp - g.qber) < 3 * se_e

    def test_single_photon_statistics_match_simulation(self):
        eta, noise, ed = 0.05, 5e-4, 0.05
        y_emp, e_emp, clicks = simulate_bb84_single_photon(eta, noise, ed, 2_000_000, seed=12)
        g = gain_and_qber(eta, noise, Bb84Params(misalignment=ed))
        se_y = math.sqrt(g.single_photon_yield * (1 - g.single_photon_yield) / 2e6)
        se_e = math.sqrt(g.single_photon_error * (1 - g.single_photon_error) / clicks)
        assert abs(y_emp - g.single_photon_yield) < 3 * se_y
        assert abs(e_emp - g.single_photon_error) < 3 * se_e


class TestKeyRate:
    def test_ideal_channel_anchor(self):
        rate = ds_bb84_rate_at(1.0, 0.0, Bb84Params(mu=0.5, misalignment=0.0))
        assert rate == pytest.approx(0.30326532985631671, abs=1e-12)

    def test_noise_dominated_clamp(self):
        assert ds_bb84_rate_at(1e-6, 0.5 - 1e-9, NOMINAL) == 0.0

    def test_budget_wrapper(self):
        link = LinkBudget(transmissivity=0.01, bulb=1e-6, dark=1e-7)
        assert ds_bb84_rate(link, NOMINAL) == pytest.approx(
            ds_bb84_rate_at(0.01, 1.1e-6, NOMINAL), rel=1e-12, abs=0.0
        )

    def test_spp_exceeds_ds(self):
        assert spp_bb84_rate_at(0.01, 1e-6, NOMINAL) > ds_bb84_rate_at(0.01, 1e-6, NOMINAL)

    def test_monotone_in_noise_and_loss(self):
        etas = np.linspace(1e-4, 1.0, 100)
        rates = [ds_bb84_rate_at(float(e), 1e-5, NOMINAL) for e in etas]
        assert all(b >= a - 1e-15 for a, b in zip(rates, rates[1:]))
        noises = np.linspace(0.0, 0.02, 100)
        rates = [ds_bb84_rate_at(0.01, float(n), NOMINAL) for n in noises]
        assert all(b <= a + 1e-15 for a, b in zip(rates, rates[1:]))


class TestParamsValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Bb84Params(mu=0.0)
        with pytest.raises(ValueError):
            Bb84Params(misalignment=0.5)
        with pytest.raises(ValueError):
            Bb84Params(ec_inefficiency=0.9)
        with pytest.raises(ValueError):
            Bb84Params(sift_factor=0.0)
