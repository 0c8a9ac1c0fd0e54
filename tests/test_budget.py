"""Per-setup link budgets against term-by-term oracles."""

from importlib import resources

import numpy as np
import pytest

from qkd_access.budget import (
    DetectorParams,
    DwdmPlan,
    LinkBudget,
    budget_setup1_fiber,
    budget_setup1_wireless,
    budget_setup2,
    budget_setup3,
    budget_setup4,
    cv_budget,
    fiber_transmittance,
    launch_power,
    raman_totals_setup1,
    raman_totals_setup3,
    raman_totals_setup4,
)
from qkd_access.numerics import AttenuationCoefficient
from qkd_access.owc import BulbNoiseModel, RoomScenario, bulb_noise_count, los_dc_gain
from qkd_access.raman import (
    BUILTIN_REFERENCE_PUMP_NM,
    BUILTIN_TABLE_RESOURCE,
    RamanCrossSectionTable,
    builtin_cross_section_table,
)

from oracles import CsvRamanData, FlatRamanData, raman_totals_oracle

PLANCK = 6.62607015e-34
LIGHTSPEED = 299792458.0

DET = DetectorParams()


def flat_table(gamma=3e-9):
    wl = np.linspace(1300.0, 1800.0, 201)
    return RamanCrossSectionTable(wl, np.full_like(wl, gamma), reference_pump_nm=1550.0)


def nominal_plan(**kwargs):
    return DwdmPlan.from_grid(n_users=32, **kwargs)


def case_scenario(case):
    tx = {1: (2.0, 2.0, 20.0), 2: (0.0, 0.0, 20.0), 3: (0.0, 0.0, 1.0)}[case]
    return RoomScenario(tx_x_m=tx[0], tx_y_m=tx[1], tx_semi_angle_deg=tx[2], case=case)


def nominal_bulb(wavelength_nm=1555.62, psd=1e-5):
    return BulbNoiseModel(psd_w_per_nm=psd, wavelength_m=wavelength_nm * 1e-9)


def room(case, bulb):
    """The budget builders' room inputs: (H_dc of ``case``, ``bulb``'s count per gate)."""
    return los_dc_gain(case_scenario(case)), bulb_noise_count(bulb)


class TestLaunchPower:
    def test_sensitivity_floor(self):
        assert launch_power(0.0, 0.2, 0.0) == pytest.approx(1.4125375446227543e-4, rel=1e-12, abs=0.0)

    def test_reference_values(self):
        assert launch_power(10.5, 0.2, 2.0) == pytest.approx(5.7543993733715693e-4, rel=1e-12, abs=0.0)
        assert launch_power(50.0, 0.2, 2.0) == pytest.approx(3.5481338923357546e-3, rel=1e-12, abs=0.0)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            launch_power(-1.0, 0.2, 2.0)


class TestFiberTransmittance:
    def test_lossless(self):
        assert fiber_transmittance(0.0, 0.0, 0.2, 0.0) == 1.0

    def test_reference_values(self):
        assert fiber_transmittance(10.0, 0.5, 0.2, 2.0) == pytest.approx(0.24547089156850304, rel=1e-12, abs=0.0)
        assert fiber_transmittance(0.0, 0.0, 0.0, 2.0) == pytest.approx(0.39810717055349725, rel=1e-12, abs=0.0)


class TestDwdmPlan:
    def test_grid_generation(self):
        plan = nominal_plan()
        assert plan.n_users == 32
        assert plan.quantum_nm[0] == pytest.approx(1555.62)
        assert plan.data_nm[0] == pytest.approx(1585.2)
        assert plan.quantum_nm[-1] == pytest.approx(1555.62 - 0.8 * 31)
        assert plan.data_nm[-1] == pytest.approx(1560.4)
        assert plan.drop_km == (0.5,) * 32

    def test_grids_must_be_disjoint(self):
        with pytest.raises(ValueError):
            DwdmPlan(quantum_nm=(1550.0, 1551.0), data_nm=(1551.0, 1560.0))

    def test_launch_uses_full_path(self):
        plan = nominal_plan()
        assert plan.launch_power_mw(0) == pytest.approx(launch_power(10.5, 0.2, 2.0), rel=1e-12, abs=0.0)


class TestRamanTotals:
    def test_single_user_reduces_to_one_channel(self):
        plan = DwdmPlan.from_grid(n_users=1)
        table = flat_table()
        fwd, bwd = raman_totals_setup1(plan, table, 0.8)
        oracle = raman_totals_oracle(
            1, FlatRamanData(3e-9), plan.quantum_nm, plan.data_nm, 10.0, (0.5,), 0.2, 2.0, 0.8
        )
        assert fwd == pytest.approx(oracle[0], rel=1e-12, abs=0.0)
        assert bwd == pytest.approx(oracle[1], rel=1e-12, abs=0.0)

    def test_flat_table_symmetry(self):
        # equal drops and a flat cross section: the k>=2 terms are all equal
        plan = nominal_plan()
        table = flat_table()
        fwd_all, _ = raman_totals_setup1(plan, table, 0.8)
        plan2 = DwdmPlan.from_grid(n_users=2)
        fwd_two, _ = raman_totals_setup1(plan2, table, 0.8)
        plan1 = DwdmPlan.from_grid(n_users=1)
        fwd_one, _ = raman_totals_setup1(plan1, table, 0.8)
        per_extra = fwd_two - fwd_one
        assert fwd_all == pytest.approx(fwd_one + 31.0 * per_extra, rel=1e-9)

    @pytest.mark.parametrize("setup,fn", [(1, raman_totals_setup1), (3, raman_totals_setup3), (4, raman_totals_setup4)])
    def test_against_summation_oracle(self, setup, fn):
        plan = nominal_plan()
        table = flat_table(2.2e-9)
        got = fn(plan, table, 0.8)
        want = raman_totals_oracle(
            setup, FlatRamanData(2.2e-9), plan.quantum_nm, plan.data_nm,
            plan.feeder_km, plan.drop_km, 0.2, 2.0, 0.8,
        )
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
        assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("setup,fn", [(1, raman_totals_setup1), (3, raman_totals_setup3), (4, raman_totals_setup4)])
    def test_builtin_table_distinct_drops_against_oracle(self, setup, fn):
        drops = tuple(float(km) for km in np.random.default_rng(11).uniform(0.0, 5.0, 32))
        plan = nominal_plan(drop_km=drops, feeder_km=23.0)
        got = fn(plan, builtin_cross_section_table(), 0.8)
        csv_path = resources.files("qkd_access").joinpath("data", BUILTIN_TABLE_RESOURCE)
        want = raman_totals_oracle(
            setup, CsvRamanData(str(csv_path), BUILTIN_REFERENCE_PUMP_NM), plan.quantum_nm,
            plan.data_nm, 23.0, drops, 0.2, 2.0, 0.8,
        )
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
        assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("fn", [raman_totals_setup1, raman_totals_setup3, raman_totals_setup4])
    def test_pump_outside_table_rejected(self, fn):
        # user 2's data channel sits far beyond the tabulated detuning range
        plan = DwdmPlan(quantum_nm=(1555.62, 1554.82), data_nm=(1585.2, 2500.0))
        with pytest.raises(ValueError, match="pump 2500.0 nm .* outside table range"):
            fn(plan, flat_table(), 0.8)

    def test_setup4_drop_zero_collapses_toward_setup1_structure(self):
        plan = DwdmPlan.from_grid(n_users=8, drop_km=(0.0,) * 8)
        table = flat_table()
        fwd4, _ = raman_totals_setup4(plan, table, 0.8)
        want = raman_totals_oracle(
            4, FlatRamanData(3e-9), plan.quantum_nm, plan.data_nm, 10.0, (0.0,) * 8, 0.2, 2.0, 0.8
        )
        assert fwd4 == pytest.approx(want[0], rel=1e-12, abs=0.0)


class TestDvBudgets:
    def test_wireless_dark_only(self):
        bulb = nominal_bulb(880.0, psd=0.0)
        link = budget_setup1_wireless(*room(1, bulb), DET)
        assert link.noise_per_detector == pytest.approx(DET.dark_count_per_pulse, rel=1e-12, abs=0.0)
        assert link.frs == 0.0 and link.brs == 0.0

    def test_wireless_dead_detector(self):
        det = DetectorParams(eta_wireless=0.0)
        link = budget_setup1_wireless(*room(1, nominal_bulb(880.0)), det)
        assert link.transmissivity == 0.0

    def test_wireless_nominal_composition(self):
        bulb = nominal_bulb(880.0)
        link = budget_setup1_wireless(*room(1, bulb), DET)
        assert link.transmissivity == pytest.approx(
            los_dc_gain(case_scenario(1)) * 0.6 / 2.0, rel=1e-12, abs=0.0
        )
        assert link.bulb == pytest.approx(bulb_noise_count(bulb) * 0.3, rel=1e-12, abs=0.0)

    def test_fiber_zero_table_is_dark_only(self):
        link = budget_setup1_fiber(nominal_plan(), DET, flat_table(0.0))
        assert link.noise_per_detector == pytest.approx(DET.dark_count_per_pulse, rel=1e-12, abs=0.0)

    def test_fiber_lossless_limit(self):
        plan = DwdmPlan.from_grid(
            n_users=2,
            feeder_km=0.0,
            drop_km=(0.0, 0.0),
            awg_insertion_loss_db=0.0,
            attenuation=AttenuationCoefficient(0.0),
        )
        link = budget_setup1_fiber(plan, DET, flat_table(0.0))
        assert link.transmissivity == pytest.approx(0.3 / 2.0, rel=1e-12, abs=0.0)

    def test_fiber_nominal_against_oracle(self):
        plan = nominal_plan()
        table = flat_table()
        link = budget_setup1_fiber(plan, DET, table)
        fwd, bwd = raman_totals_oracle(
            1, FlatRamanData(3e-9), plan.quantum_nm, plan.data_nm, 10.0, plan.drop_km, 0.2, 2.0, 0.8
        )
        photon_j = PLANCK * LIGHTSPEED / (1555.62e-9)
        scale = 0.3 / 2.0 * 1e-3 * 100e-12 / photon_j
        assert link.frs == pytest.approx(scale * fwd, rel=1e-12, abs=0.0)
        assert link.brs == pytest.approx(scale * bwd, rel=1e-12, abs=0.0)
        assert link.noise_per_detector == pytest.approx(scale * (fwd + bwd) + 1e-7, rel=1e-12, abs=0.0)

    def test_setup2_huge_coupling_loss_kills_bulb_and_signal(self):
        link = budget_setup2(
            *room(3, nominal_bulb()), nominal_plan(), DET, flat_table(0.0),
            coupling_loss_db=300.0,
        )
        assert link.bulb == pytest.approx(0.0, abs=1e-30)
        assert link.transmissivity == pytest.approx(0.0, abs=1e-30)

    def test_setup2_nominal_against_composed_oracle(self):
        plan = nominal_plan()
        table = flat_table()
        bulb = nominal_bulb()
        link = budget_setup2(*room(3, bulb), plan, DET, table, coupling_loss_db=10.0)
        fwd, bwd = raman_totals_oracle(
            1, FlatRamanData(3e-9), plan.quantum_nm, plan.data_nm, 10.0, plan.drop_km, 0.2, 2.0, 0.8
        )
        photon_j = PLANCK * LIGHTSPEED / (1555.62e-9)
        count = 0.15 * 1e-3 * 100e-12 / photon_j
        eta_fib = fiber_transmittance(10.0, 0.5, 0.2, 2.0)
        assert link.frs == pytest.approx(count * fwd, rel=1e-12, abs=0.0)
        assert link.brs == pytest.approx(count * bwd, rel=1e-12, abs=0.0)
        assert link.bulb == pytest.approx(0.15 * bulb_noise_count(bulb) * eta_fib * 0.1, rel=1e-12, abs=0.0)
        assert link.transmissivity == pytest.approx(
            los_dc_gain(case_scenario(3)) * 0.1 * eta_fib * 0.15, rel=1e-12, abs=0.0
        )

    def test_breakdown_sums_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            parts = rng.random(4) * 1e-3
            link = LinkBudget(transmissivity=0.5, frs=parts[0], brs=parts[1],
                              bulb=parts[2], dark=parts[3])
            assert link.noise_per_detector == pytest.approx(parts.sum(), abs=1e-12)
            assert 0.0 <= link.noise_per_detector < 1.0


class TestMdiBudgets:
    def test_setup3_zero_sources_dark_only(self):
        link = budget_setup3(
            *room(3, nominal_bulb(psd=0.0)), nominal_plan(), DET, flat_table(0.0),
        )
        assert link.noise_per_detector == pytest.approx(1e-7, rel=1e-12, abs=0.0)

    def test_polarization_factor_scales_transmissivities(self):
        args = (*room(3, nominal_bulb()), nominal_plan(), DET, flat_table())
        half = budget_setup3(*args, polarization_factor=0.5)
        full = budget_setup3(*args, polarization_factor=1.0)
        assert full.eta_alice == pytest.approx(2.0 * half.eta_alice, rel=1e-12, abs=0.0)
        assert full.eta_bob == pytest.approx(2.0 * half.eta_bob, rel=1e-12, abs=0.0)
        assert full.noise_per_detector == pytest.approx(half.noise_per_detector, rel=1e-12, abs=0.0)

    def test_setup3_nominal_against_composed_oracle(self):
        plan = nominal_plan()
        table = flat_table()
        bulb = nominal_bulb()
        link = budget_setup3(*room(3, bulb), plan, DET, table, coupling_loss_db=10.0)
        fwd, bwd = raman_totals_oracle(
            3, FlatRamanData(3e-9), plan.quantum_nm, plan.data_nm, 10.0, plan.drop_km, 0.2, 2.0, 0.8
        )
        photon_j = PLANCK * LIGHTSPEED / (1555.62e-9)
        quarter_count = 0.3 / 4.0 * 1e-3 * 100e-12 / photon_j
        assert link.frs == pytest.approx(quarter_count * fwd, rel=1e-12, abs=0.0)
        assert link.brs == pytest.approx(quarter_count * bwd, rel=1e-12, abs=0.0)
        assert link.bulb == pytest.approx(0.075 * bulb_noise_count(bulb) * 0.1, rel=1e-12, abs=0.0)
        assert link.eta_alice == pytest.approx(
            los_dc_gain(case_scenario(3)) * 0.3 * 0.1 * 0.5, rel=1e-12, abs=0.0
        )
        assert link.eta_bob == pytest.approx(
            0.3 * fiber_transmittance(10.0, 0.5, 0.2, 2.0) * 0.5, rel=1e-12, abs=0.0
        )

    def test_setup4_nominal_against_composed_oracle(self):
        plan = nominal_plan()
        link = budget_setup4(*room(3, nominal_bulb()), plan, DET, flat_table(),
                             coupling_loss_db=10.0)
        fwd, bwd = raman_totals_oracle(
            4, FlatRamanData(3e-9), plan.quantum_nm, plan.data_nm, 10.0, plan.drop_km, 0.2, 2.0, 0.8
        )
        photon_j = PLANCK * LIGHTSPEED / (1555.62e-9)
        quarter_count = 0.075 * 1e-3 * 100e-12 / photon_j
        drop_loss = 10.0 ** (-0.2 * 0.5 / 10.0)
        assert link.frs == pytest.approx(quarter_count * fwd, rel=1e-12, abs=0.0)
        assert link.brs == pytest.approx(quarter_count * bwd, rel=1e-12, abs=0.0)
        assert link.eta_alice == pytest.approx(
            los_dc_gain(case_scenario(3)) * 0.3 * 0.1 * drop_loss * 0.5, rel=1e-12, abs=0.0
        )
        assert link.eta_bob == pytest.approx(0.3 * 10.0 ** (-(0.2 * 10.0 + 4.0) / 10.0) * 0.5, rel=1e-12, abs=0.0)

    def test_setups_agree_at_zero_drop(self):
        plan = DwdmPlan.from_grid(n_users=8, drop_km=(0.0,) * 8)
        args = (*room(3, nominal_bulb()), plan, DET, flat_table())
        three = budget_setup3(*args, coupling_loss_db=10.0)
        four = budget_setup4(*args, coupling_loss_db=10.0)
        assert three.noise_per_detector == pytest.approx(four.noise_per_detector, rel=1e-12, abs=0.0)
        assert three.eta_alice == pytest.approx(four.eta_alice, rel=1e-12, abs=0.0)
        assert three.eta_bob == pytest.approx(four.eta_bob, rel=1e-12, abs=0.0)


class TestMonotonicity:
    def test_transmissivity_non_increasing_in_losses(self):
        plan_args = dict(n_users=4)
        base = dict(feeder=10.0, drop=0.5, awg=2.0, coupling=10.0)

        def eta(feeder, drop, awg, coupling):
            plan = DwdmPlan.from_grid(
                feeder_km=feeder, drop_km=(drop,) * 4, awg_insertion_loss_db=awg, **plan_args
            )
            link = budget_setup2(*room(3, nominal_bulb()), plan, DET, flat_table(),
                                 coupling_loss_db=coupling)
            return link.transmissivity

        reference = eta(**{k: v for k, v in zip(("feeder", "drop", "awg", "coupling"), base.values())})
        for key in base:
            bumped = dict(base)
            bumped[key] = base[key] + 3.0
            assert eta(**bumped) < reference

    def test_brs_count_grows_with_feeder_under_power_control(self):
        counts = []
        for feeder in (5.0, 10.0, 20.0, 40.0, 80.0):
            plan = nominal_plan(feeder_km=feeder)
            link = budget_setup1_fiber(plan, DET, flat_table())
            counts.append(link.brs)
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_setup2_bulb_weaker_than_setup3_bulb(self):
        plan = nominal_plan()
        bulb = nominal_bulb()
        two = budget_setup2(*room(3, bulb), plan, DET, flat_table(), coupling_loss_db=10.0)
        three = budget_setup3(*room(3, bulb), plan, DET, flat_table(), coupling_loss_db=10.0)
        assert two.bulb < three.bulb


class TestCvBudget:
    def test_zero_sources_leaves_receiver_noise_only(self):
        link = cv_budget(
            "2", *room(3, nominal_bulb(psd=0.0)),
            plan=nominal_plan(), table=flat_table(0.0), coupling_loss_db=5.0,
        )
        assert link.eps_bulb == 0.0 and link.eps_raman == 0.0
        assert link.excess_noise == pytest.approx(link.eps_receiver, rel=1e-12, abs=0.0)

    def test_bulb_term_linear_in_count(self):
        kwargs = dict(h_dc=los_dc_gain(case_scenario(3)), plan=nominal_plan(),
                      table=flat_table(0.0), coupling_loss_db=5.0)
        one = cv_budget("2", n_b1=bulb_noise_count(nominal_bulb(psd=1e-6)), **kwargs)
        two = cv_budget("2", n_b1=bulb_noise_count(nominal_bulb(psd=2e-6)), **kwargs)
        assert two.eps_bulb == pytest.approx(2.0 * one.eps_bulb, rel=1e-12, abs=0.0)

    def test_setup2_nominal_against_composed_oracle(self):
        plan = nominal_plan()
        bulb = nominal_bulb()
        table = flat_table()
        link = cv_budget("2", *room(3, bulb), plan=plan, table=table, coupling_loss_db=5.0)
        h_dc = los_dc_gain(case_scenario(3))
        eta_fib = fiber_transmittance(10.0, 0.5, 0.2, 2.0)
        eta_ch = h_dc * 10.0 ** (-0.5) * eta_fib
        fwd, bwd = raman_totals_oracle(
            1, FlatRamanData(3e-9), plan.quantum_nm, plan.data_nm, 10.0, plan.drop_km, 0.2, 2.0, 0.8
        )
        photon_j = PLANCK * LIGHTSPEED / (1555.62e-9)
        n_r = (fwd + bwd) * 1e-3 * 100e-12 / photon_j
        assert link.transmissivity == pytest.approx(eta_ch, rel=1e-12, abs=0.0)
        assert link.eps_bulb == pytest.approx(bulb_noise_count(bulb) / h_dc, rel=1e-12, abs=0.0)
        assert link.eps_raman == pytest.approx(n_r / eta_ch, rel=1e-12, abs=0.0)
        assert link.eps_receiver == pytest.approx(0.002 / (eta_ch * 0.6), rel=1e-12, abs=0.0)

    def test_wireless_variant(self):
        bulb = nominal_bulb(880.0)
        link = cv_budget("1-wireless", *room(1, bulb))
        h_dc = los_dc_gain(case_scenario(1))
        assert link.transmissivity == pytest.approx(h_dc, rel=1e-12, abs=0.0)
        assert link.eps_bulb == pytest.approx(bulb_noise_count(bulb) / h_dc, rel=1e-12, abs=0.0)

    def test_unknown_setup_rejected(self):
        with pytest.raises(ValueError):
            cv_budget("3", *room(3, nominal_bulb()))
