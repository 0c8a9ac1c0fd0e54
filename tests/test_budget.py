"""Per-setup link budgets against term-by-term oracles."""

import math
from collections import namedtuple
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkd_access.budget import (
    DetectorParams,
    CvLinkBudget,
    DwdmPlan,
    LinkBudget,
    MdiLinkBudget,
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
    TableRangeError,
    builtin_cross_section_table,
)

from oracles import CsvRamanData, FlatRamanData, raman_totals_oracle

PLANCK = 6.62607015e-34
LIGHTSPEED = 299792458.0

DET = DetectorParams()


def flat_table(gamma=3e-9):
    wl = np.linspace(1300.0, 1800.0, 201)
    return RamanCrossSectionTable(wl, np.full_like(wl, gamma), reference_pump_nm=1550.0)


def nominal_plan(table=None, **kwargs):
    """``DwdmPlan.from_grid(**kwargs)`` on ``table`` (flat at 3e-9 when None) at 0.8 nm."""
    return DwdmPlan.from_grid(raman_table=flat_table() if table is None else table,
                              rx_bandwidth_nm=0.8, **kwargs)


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
        assert len(plan.quantum_nm) == 32
        assert plan.quantum_nm[0] == pytest.approx(1555.62, abs=0.0)
        assert plan.data_nm[0] == pytest.approx(1585.2, abs=0.0)
        assert plan.quantum_nm[-1] == pytest.approx(1555.62 - 0.8 * 31, abs=0.0)
        assert plan.data_nm[-1] == pytest.approx(1560.4, abs=0.0)
        assert plan.drop_km == (0.5,) * 32

    def test_grids_must_be_disjoint(self):
        with pytest.raises(ValueError):
            DwdmPlan(quantum_nm=(1550.0, 1551.0), data_nm=(1551.0, 1560.0),
                     raman_table=flat_table(), rx_bandwidth_nm=0.8)


    @pytest.mark.parametrize("bandwidth", [0.0, -0.0, -0.8])
    def test_rejects_nonpositive_bandwidth(self, bandwidth):
        with pytest.raises(ValueError, match="receiver bandwidth must be > 0"):
            DwdmPlan(quantum_nm=(1555.62,), data_nm=(1585.2,), raman_table=flat_table(),
                     rx_bandwidth_nm=bandwidth)

    def test_rejects_a_grid_its_table_does_not_cover(self):
        # at 0.8 nm the built-in table covers the data grids of at most 221 users
        table = builtin_cross_section_table()
        assert len(nominal_plan(table, n_users=221).data_nm) == 221
        with pytest.raises(TableRangeError, match="pump 1408.4 nm .* outside table range"):
            nominal_plan(table, n_users=222)


class TestRamanTotals:
    def test_single_user_reduces_to_one_channel(self):
        plan = nominal_plan(n_users=1)
        fwd, bwd = raman_totals_setup1(plan)
        oracle = raman_totals_oracle(
            1, FlatRamanData(3e-9), plan.quantum_nm, plan.data_nm, 10.0, (0.5,), 0.2, 2.0, 0.8
        )
        assert fwd == pytest.approx(oracle[0], rel=1e-12, abs=0.0)
        assert bwd == pytest.approx(oracle[1], rel=1e-12, abs=0.0)

    def test_flat_table_symmetry(self):
        # equal drops and a flat cross section: the k>=2 terms are all equal
        table = flat_table()
        fwd_all, _ = raman_totals_setup1(nominal_plan(table))
        fwd_two, _ = raman_totals_setup1(nominal_plan(table, n_users=2))
        fwd_one, _ = raman_totals_setup1(nominal_plan(table, n_users=1))
        per_extra = fwd_two - fwd_one
        assert fwd_all == pytest.approx(fwd_one + 31.0 * per_extra, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("setup,fn", [(1, raman_totals_setup1), (3, raman_totals_setup3), (4, raman_totals_setup4)])
    def test_against_summation_oracle(self, setup, fn):
        plan = nominal_plan(flat_table(2.2e-9))
        got = fn(plan)
        want = raman_totals_oracle(
            setup, FlatRamanData(2.2e-9), plan.quantum_nm, plan.data_nm,
            plan.feeder_km, plan.drop_km, 0.2, 2.0, 0.8,
        )
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
        assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("setup,fn", [(1, raman_totals_setup1), (3, raman_totals_setup3), (4, raman_totals_setup4)])
    def test_builtin_table_distinct_drops_against_oracle(self, setup, fn):
        drops = tuple(float(km) for km in np.random.default_rng(11).uniform(0.0, 5.0, 32))
        plan = nominal_plan(builtin_cross_section_table(), drop_km=drops, feeder_km=23.0)
        got = fn(plan)
        csv_path = resources.files("qkd_access").joinpath("data", BUILTIN_TABLE_RESOURCE)
        want = raman_totals_oracle(
            setup, CsvRamanData(str(csv_path), BUILTIN_REFERENCE_PUMP_NM), plan.quantum_nm,
            plan.data_nm, 23.0, drops, 0.2, 2.0, 0.8,
        )
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
        assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("fn", [raman_totals_setup1, raman_totals_setup3, raman_totals_setup4])
    def test_pump_outside_table_rejected(self, fn):
        # user 2's data channel sits far beyond the tabulated detuning range, so
        # the plan is rejected before any totals are formed over it
        with pytest.raises(ValueError, match="pump 2500.0 nm .* outside table range"):
            fn(DwdmPlan(quantum_nm=(1555.62, 1554.82), data_nm=(1585.2, 2500.0),
                        raman_table=flat_table(), rx_bandwidth_nm=0.8))

    def test_setup4_drop_zero_collapses_toward_setup1_structure(self):
        plan = nominal_plan(n_users=8, drop_km=(0.0,) * 8)
        fwd4, _ = raman_totals_setup4(plan)
        want = raman_totals_oracle(
            4, FlatRamanData(3e-9), plan.quantum_nm, plan.data_nm, 10.0, (0.0,) * 8, 0.2, 2.0, 0.8
        )
        assert fwd4 == pytest.approx(want[0], rel=1e-12, abs=0.0)


TOTALS = (raman_totals_setup1, raman_totals_setup3, raman_totals_setup4)
DROP = st.one_of(st.floats(0.0, 5.0), st.integers(0, 5), st.just(0.0))


@st.composite
def plan_kwargs(draw):
    """``DwdmPlan.from_grid`` arguments: 1-32 users with equal, mixed, integer or zero drops."""
    n = draw(st.integers(1, 32))
    drops = draw(st.one_of(DROP.map(lambda km: (km,) * n),
                           st.lists(DROP, min_size=n, max_size=n).map(tuple)))
    return dict(
        n_users=n,
        spacing_nm=draw(st.floats(0.4, 0.9)),
        feeder_km=draw(st.floats(0.0, 120.0)),
        drop_km=drops,
        awg_insertion_loss_db=draw(st.floats(0.0, 4.0)),
        attenuation=AttenuationCoefficient(draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5)))),
        sensitivity_dbm=draw(st.floats(-45.0, -30.0)),
    )


class TestBandwidth:
    @pytest.mark.parametrize("fn", TOTALS)
    def test_totals_read_the_plans_bandwidth(self, fn):
        # 0.4 is 0.8 halved exactly, so every term, sum and product halves exactly
        table = builtin_cross_section_table()
        kwargs = dict(raman_table=table, drop_km=(0.1, 0.5, 2.0, 5.0) * 8, feeder_km=23.0)
        full = fn(DwdmPlan.from_grid(rx_bandwidth_nm=0.8, **kwargs))
        half = fn(DwdmPlan.from_grid(rx_bandwidth_nm=0.4, **kwargs))
        assert half == (full[0] / 2.0, full[1] / 2.0)


class TestFeederVariant:
    @settings(max_examples=150, deadline=None)
    @given(kwargs=plan_kwargs(), feeders=st.lists(
        st.one_of(st.floats(0.0, 150.0), st.integers(0, 150)), min_size=1, max_size=3),
        flat=st.booleans(), bw=st.floats(0.01, 2.0))
    def test_totals_equal_a_fresh_plan(self, kwargs, feeders, flat, bw):
        table = flat_table(2.2e-9) if flat else builtin_cross_section_table()
        kwargs.update(raman_table=table, rx_bandwidth_nm=bw)
        plan = DwdmPlan.from_grid(**kwargs)
        for fn in TOTALS:  # the variants share what the parent has computed
            plan.raman_totals(fn)
        for feeder in feeders:  # variants of variants too
            plan = plan.with_feeder(feeder)
            fresh = DwdmPlan.from_grid(**{**kwargs, "feeder_km": feeder})
            assert plan == fresh
            for fn in TOTALS:
                want = fn(fresh)
                assert fn(plan) == pytest.approx(want, rel=0.0, abs=0.0)
                assert plan.raman_totals(fn) == pytest.approx(want, rel=0.0, abs=0.0)

    @pytest.mark.parametrize("feeder", [-5.0, -1e-300, -1])
    def test_rejects_what_the_constructor_rejects(self, feeder):
        with pytest.raises(ValueError, match="fiber lengths must be >= 0"):
            nominal_plan(feeder_km=feeder)
        with pytest.raises(ValueError, match="fiber lengths must be >= 0"):
            nominal_plan().with_feeder(feeder)

    @pytest.mark.parametrize("feeder", [0.0, 37.5, 3])
    def test_same_record_as_replace(self, feeder):
        plan = nominal_plan(drop_km=(0.1, 0.5) * 16)
        variant = plan.with_feeder(feeder)
        assert variant == plan._replace(feeder_km=feeder)
        assert type(variant) is DwdmPlan and variant.feeder_km is feeder
        assert repr(variant) == repr(plan._replace(feeder_km=feeder))

    def test_shares_inputs_not_totals(self):
        plan = nominal_plan(builtin_cross_section_table())
        near = raman_totals_setup1(plan)
        assert plan.raman_totals(raman_totals_setup1) == near
        variant = plan.with_feeder(40.0)
        assert variant._inputs is plan._inputs
        assert variant.raman_totals(raman_totals_setup1)[1] > near[1]
        assert plan.raman_totals(raman_totals_setup1) == near


# Plans of the pinned Raman totals, built by ``DwdmPlan.from_grid``.
PIN_PLANS = {
    "default": {},
    "one_user": dict(n_users=1),
    "cycled_drops": dict(drop_km=(0.1, 0.5, 2.0, 5.0) * 8),
    "integer_drop": dict(drop_km=(1,) * 32),
    "zero_drops": dict(drop_km=(0.0,) * 32),
    "lossless": dict(attenuation=AttenuationCoefficient(0.0)),
}

# float.hex() of (fwd, bwd) from raman_totals_setup1, 3 and 4, in that order,
# on the built-in table at 0.8 nm, by (plan, feeder km); "variant" is the
# cycled-drop plan moved to its feeder by ``with_feeder``.  Every sweep output
# inherits these bits, and reordering a sum's factors or terms moves them.
PINNED_TOTALS = {
    ("default", 0.0): ("0x1.626cad27722b4p-48", "0x1.6274b1b628d75p-48",
                       "0x1.626cad27722b4p-48", "0x1.6274b1b628d75p-48",
                       "0x1.bd2316dfafd08p-47", "0x1.6274b1b628d75p-48"),
    ("default", 10.0): ("0x1.29978208f5594p-40", "0x1.3aceee6ad5fb4p-40",
                        "0x1.29978208f5594p-40", "0x1.2dffef8fe2ffdp-40",
                        "0x1.349e5bee3cedfp-40", "0x1.342c5b9ef9debp-40"),
    ("default", 87.3): ("0x1.4368ca5506946p-37", "0x1.1e6b1a18a0b55p-34",
                        "0x1.4368ca5506945p-37", "0x1.12bb839775b9fp-34",
                        "0x1.62fc8c4559ed4p-37", "0x1.17eb816f65de5p-34"),
    ("one_user", 0.0): ("0x1.626cad27722b4p-48", "0x1.6274b1b628d75p-48",
                        "0x1.626cad27722b4p-48", "0x1.6274b1b628d75p-48",
                        "0x1.bd2316dfafd08p-47", "0x1.6274b1b628d75p-48"),
    ("one_user", 10.0): ("0x1.d12ea343c5d8fp-44", "0x1.e385dff786573p-44",
                         "0x1.d12ea343c5d8fp-44", "0x1.e385dff786573p-44",
                         "0x1.0ec4bc3b5fe05p-43", "0x1.e102a85aadeefp-44"),
    ("one_user", 87.3): ("0x1.e639e3f21d6c2p-41", "0x1.ac6525b7f776bp-38",
                         "0x1.e639e3f21d6c2p-41", "0x1.ac6525b7f776bp-38",
                         "0x1.b920c18043d35p-40", "0x1.a2fbd521b7ca0p-38"),
    ("cycled_drops", 0.0): ("0x1.1b8a241f8e896p-50", "0x1.1b8a65cdae015p-50",
                            "0x1.1b8a241f8e896p-50", "0x1.1b8a65cdae015p-50",
                            "0x1.641c124c8ca74p-49", "0x1.1b8a65cdae015p-50"),
    ("cycled_drops", 10.0): ("0x1.287bf7e4d5caap-40", "0x1.4d4d44895703bp-40",
                             "0x1.406fbc9b5b277p-40", "0x1.31d16608eed8dp-40",
                             "0x1.42bd5d23df999p-40", "0x1.3310c986b7214p-40"),
    ("cycled_drops", 87.3): ("0x1.4345591082a2cp-37", "0x1.2feda09877a50p-34",
                             "0x1.5d68a3e334cebp-37", "0x1.16da75c073567p-34",
                             "0x1.63d4bc2851547p-37", "0x1.17e7132704d38p-34"),
    ("integer_drop", 0.0): ("0x1.626cad27722b8p-47", "0x1.628cc00975f64p-47",
                            "0x1.626cad27722b8p-47", "0x1.628cc00975f64p-47",
                            "0x1.bd2316dfafd0dp-46", "0x1.628cc00975f64p-47"),
    ("integer_drop", 10.0): ("0x1.2af9eeb61ccb9p-40", "0x1.42feb0e27ea4ap-40",
                             "0x1.2af9eeb61ccb9p-40", "0x1.295ef619e1690p-40",
                             "0x1.4130c6e0d1e1bp-40", "0x1.358f006d56a22p-40"),
    ("integer_drop", 87.3): ("0x1.439517eaab82dp-37", "0x1.25171d0fca08bp-34",
                             "0x1.439517eaab82ep-37", "0x1.0db659fd97dbfp-34",
                             "0x1.82e9813fc3458p-37", "0x1.17f10c029f519p-34"),
    ("zero_drops", 0.0): ("0x0.0p+0", "0x0.0p+0",
                          "0x0.0p+0", "0x0.0p+0",
                          "0x0.0p+0", "0x0.0p+0"),
    ("zero_drops", 10.0): ("0x1.2835155bcde6fp-40", "0x1.32c9e6ed43b5bp-40",
                           "0x1.2835155bcde6fp-40", "0x1.32c9e6ed43b5bp-40",
                           "0x1.2835155bcde6fp-40", "0x1.32c9e6ed43b5bp-40"),
    ("zero_drops", 87.3): ("0x1.433c7cbf61a65p-37", "0x1.17e5f79c9f05ep-34",
                           "0x1.433c7cbf61a65p-37", "0x1.17e5f79c9f05fp-34",
                           "0x1.433c7cbf61a65p-37", "0x1.17e5f79c9f05ep-34"),
    ("lossless", 0.0): ("0x1.626cad27722b1p-48", "0x1.626cad27722b1p-48",
                        "0x1.626cad27722b1p-48", "0x1.626cad27722b1p-48",
                        "0x1.bd2316dfafd04p-47", "0x1.626cad27722b1p-48"),
    ("lossless", 10.0): ("0x1.29978208f5591p-40", "0x1.29978208f5591p-40",
                         "0x1.29978208f5590p-40", "0x1.29978208f5590p-40",
                         "0x1.2baf5b898d468p-40", "0x1.29978208f5590p-40"),
    ("lossless", 87.3): ("0x1.4368ca550694cp-37", "0x1.4368ca550694cp-37",
                         "0x1.4368ca550694cp-37", "0x1.4368ca550694cp-37",
                         "0x1.43abc58519928p-37", "0x1.4368ca550694dp-37"),
    ("variant", 42.0): ("0x1.37164242a6f82p-38", "0x1.27b0f0593cc58p-37",
                        "0x1.503c9d9be6331p-38", "0x1.0f4bd90e63739p-37",
                        "0x1.52ec157758722p-38", "0x1.1057b3369cf13p-37"),
}


class TestPinnedBits:
    @pytest.mark.parametrize("name,feeder", list(PINNED_TOTALS))
    def test_raman_totals(self, name, feeder):
        table = builtin_cross_section_table()
        if name == "variant":
            plan = nominal_plan(table, **PIN_PLANS["cycled_drops"]).with_feeder(feeder)
        else:
            plan = nominal_plan(table, feeder_km=feeder, **PIN_PLANS[name])
        got = tuple(x.hex() for fn in TOTALS for x in fn(plan))
        assert got == PINNED_TOTALS[name, feeder]


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
        link = budget_setup1_fiber(nominal_plan(flat_table(0.0)), DET)
        assert link.noise_per_detector == pytest.approx(DET.dark_count_per_pulse, rel=1e-12, abs=0.0)

    def test_fiber_lossless_limit(self):
        plan = nominal_plan(
            flat_table(0.0),
            n_users=2,
            feeder_km=0.0,
            drop_km=(0.0, 0.0),
            awg_insertion_loss_db=0.0,
            attenuation=AttenuationCoefficient(0.0),
        )
        link = budget_setup1_fiber(plan, DET)
        assert link.transmissivity == pytest.approx(0.3 / 2.0, rel=1e-12, abs=0.0)

    def test_fiber_nominal_against_oracle(self):
        plan = nominal_plan()
        link = budget_setup1_fiber(plan, DET)
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
            *room(3, nominal_bulb()), nominal_plan(flat_table(0.0)), DET,
            coupling_loss_db=300.0,
        )
        assert link.bulb == pytest.approx(0.0, abs=1e-30)
        assert link.transmissivity == pytest.approx(0.0, abs=1e-30)

    def test_setup2_nominal_against_composed_oracle(self):
        plan = nominal_plan()
        bulb = nominal_bulb()
        link = budget_setup2(*room(3, bulb), plan, DET, coupling_loss_db=10.0)
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
            *room(3, nominal_bulb(psd=0.0)), nominal_plan(flat_table(0.0)), DET,
        )
        assert link.noise_per_detector == pytest.approx(1e-7, rel=1e-12, abs=0.0)

    def test_polarization_factor_scales_transmissivities(self):
        args = (*room(3, nominal_bulb()), nominal_plan(), DET)
        half = budget_setup3(*args, polarization_factor=0.5)
        full = budget_setup3(*args, polarization_factor=1.0)
        assert full.eta_alice == pytest.approx(2.0 * half.eta_alice, rel=1e-12, abs=0.0)
        assert full.eta_bob == pytest.approx(2.0 * half.eta_bob, rel=1e-12, abs=0.0)
        assert full.noise_per_detector == pytest.approx(half.noise_per_detector, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("factor", [-0.5, 2.0])
    def test_polarization_factor_outside_unit_interval_rejected(self, factor):
        args = (*room(3, nominal_bulb()), nominal_plan(), DET)
        with pytest.raises(ValueError, match=r"^polarization_factor must be in \[0, 1\]$"):
            budget_setup3(*args, polarization_factor=factor)

    def test_setup3_nominal_against_composed_oracle(self):
        plan = nominal_plan()
        bulb = nominal_bulb()
        link = budget_setup3(*room(3, bulb), plan, DET, coupling_loss_db=10.0)
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
        link = budget_setup4(*room(3, nominal_bulb()), plan, DET, coupling_loss_db=10.0)
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
        plan = nominal_plan(n_users=8, drop_km=(0.0,) * 8)
        args = (*room(3, nominal_bulb()), plan, DET)
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
            plan = nominal_plan(
                feeder_km=feeder, drop_km=(drop,) * 4, awg_insertion_loss_db=awg, **plan_args
            )
            link = budget_setup2(*room(3, nominal_bulb()), plan, DET, coupling_loss_db=coupling)
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
            link = budget_setup1_fiber(plan, DET)
            counts.append(link.brs)
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_setup2_bulb_weaker_than_setup3_bulb(self):
        plan = nominal_plan()
        bulb = nominal_bulb()
        two = budget_setup2(*room(3, bulb), plan, DET, coupling_loss_db=10.0)
        three = budget_setup3(*room(3, bulb), plan, DET, coupling_loss_db=10.0)
        assert two.bulb < three.bulb


class TestCvBudget:
    def test_zero_sources_leaves_receiver_noise_only(self):
        link = cv_budget(
            "2", *room(3, nominal_bulb(psd=0.0)),
            plan=nominal_plan(flat_table(0.0)), coupling_loss_db=5.0,
        )
        assert link.eps_bulb == 0.0 and link.eps_raman == 0.0
        assert link.excess_noise == pytest.approx(link.eps_receiver, rel=1e-12, abs=0.0)

    def test_bulb_term_linear_in_count(self):
        kwargs = dict(h_dc=los_dc_gain(case_scenario(3)), plan=nominal_plan(flat_table(0.0)),
                      coupling_loss_db=5.0)
        one = cv_budget("2", n_b1=bulb_noise_count(nominal_bulb(psd=1e-6)), **kwargs)
        two = cv_budget("2", n_b1=bulb_noise_count(nominal_bulb(psd=2e-6)), **kwargs)
        assert two.eps_bulb == pytest.approx(2.0 * one.eps_bulb, rel=1e-12, abs=0.0)

    def test_setup2_nominal_against_composed_oracle(self):
        plan = nominal_plan()
        bulb = nominal_bulb()
        link = cv_budget("2", *room(3, bulb), plan=plan, coupling_loss_db=5.0)
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


# The link records as they were when they checked their fields in a second
# ``__init__`` call, kept here as the reference of the records that check in
# ``__new__``.  A class body keeps their names, and so their reprs.
class Ref:
    class _Noise:
        __slots__ = ()

        def _check_noise(self):
            if min(self.frs, self.brs, self.bulb, self.dark) < 0.0:
                raise ValueError("noise components must be >= 0")
            if self.frs + self.brs + self.bulb + self.dark >= 1.0:
                raise ValueError("total noise per detector must stay below one count per pulse")

    class LinkBudget(namedtuple("LinkBudget", "transmissivity frs brs bulb dark",
                                defaults=(0.0,) * 4), _Noise):
        __slots__ = ()

        def __init__(self, *_, **__):
            if not 0.0 <= self.transmissivity <= 1.0:
                raise ValueError(f"transmissivity must be in [0, 1], got {self.transmissivity}")
            self._check_noise()

    class MdiLinkBudget(namedtuple(
        "MdiLinkBudget", "eta_alice eta_bob frs brs bulb dark polarization_factor",
        defaults=(0.0,) * 4 + (0.5,),
    ), _Noise):
        __slots__ = ()

        def __init__(self, *_, **__):
            for name in ("polarization_factor", "eta_alice", "eta_bob"):
                if not 0.0 <= getattr(self, name) <= 1.0:
                    raise ValueError(f"{name} must be in [0, 1]")
            self._check_noise()

    class CvLinkBudget(namedtuple(
        "CvLinkBudget", "transmissivity eps_bulb eps_raman eps_receiver frs brs bulb",
        defaults=(0.0,) * 6,
    )):
        __slots__ = ()

        def __init__(self, *_, **__):
            if not 0.0 < self.transmissivity <= 1.0:
                raise ValueError("CV budget needs transmissivity in (0, 1]")
            if min(self.eps_bulb, self.eps_raman, self.eps_receiver) < 0.0:
                raise ValueError("excess-noise components must be >= 0")


RECORDS = [(LinkBudget, Ref.LinkBudget), (MdiLinkBudget, Ref.MdiLinkBudget),
           (CvLinkBudget, Ref.CvLinkBudget)]
# Each check's boundaries: 0 and 1 and their neighbours, a noise sum at one
# count, negatives and NaN; then any float.
EDGE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, math.nextafter(1.0, 0.0),
                     math.nextafter(1.0, 2.0), 0.25, 0.5, -1.0, 2.0, math.nan, math.inf,
                     -math.inf]),
    st.floats(),
)


def _built(cls, args, kwargs):
    """(tuple, repr) of ``cls(*args, **kwargs)``, or the message of its ValueError."""
    try:
        record = cls(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    return tuple(record), repr(record)


class TestRecordChecks:
    @settings(max_examples=600, deadline=None)
    @given(record=st.sampled_from(RECORDS), data=st.data())
    def test_same_record_or_message_as_checks_in_init(self, record, data):
        new, ref = record
        required = len(ref._fields) - len(ref._field_defaults)
        values = data.draw(st.lists(EDGE, min_size=required, max_size=len(ref._fields)))
        positional = data.draw(st.integers(0, len(values)))
        args = values[:positional]
        kwargs = dict(zip(new._fields[positional:len(values)], values[positional:]))
        assert _built(new, args, kwargs) == _built(ref, args, kwargs)

    def test_noise_sum_at_one_count(self):
        for new, ref in RECORDS[:2]:
            kwargs = dict(zip(new._fields, (0.5, 0.5))) | dict(frs=0.5, brs=0.25, bulb=0.25)
            assert _built(new, (), kwargs) == _built(ref, (), kwargs)
            assert "below one count" in _built(new, (), kwargs)

    @pytest.mark.parametrize("new,ref", RECORDS)
    def test_make_and_replace_skip_the_checks(self, new, ref):
        bad = (2.0,) * len(new._fields)
        assert new._make(bad) == ref._make(bad) == bad
        good = new(*(0.5,) * 2)
        assert good._replace(frs=-1.0) == ref(*(0.5,) * 2)._replace(frs=-1.0)
        assert type(good._replace(frs=-1.0)) is new

    @pytest.mark.parametrize("new,ref", RECORDS)
    def test_missing_and_unknown_fields(self, new, ref):
        for args, kwargs in (((), {}), ((0.5,) * 8, {}), ((0.5,) * 2, {"nonsense": 1.0})):
            with pytest.raises(TypeError):
                new(*args, **kwargs)
            with pytest.raises(TypeError):
                ref(*args, **kwargs)
