"""Sweep engine: spec validation, determinism, row semantics."""

import math
import pathlib
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkd_access import budget, sweep
from qkd_access.budget import DwdmPlan
from qkd_access import (
    CvLinkBudget,
    SimulationConfig,
    SweepSpec,
    budget_setup1_fiber,
    budget_setup1_wireless,
    bulb_noise_count,
    cv_budget,
    ds_bb84_rate,
    dv_cv_crossover,
    emit_csv,
    fiber_transmittance,
    gg02_rate,
    los_dc_gain,
    noise_breakdown,
    run_sweep,
)
from qkd_access.raman import RamanCrossSectionTable, builtin_cross_section_table
from qkd_access.sweep import _SETUP_PROTOCOLS, SWEEP_VARIABLES, _evaluate_point, _Model

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_sweep.csv"


def default_config(**overrides):
    return SimulationConfig.from_dict(overrides)


def resolved(spec, cfg):
    return _Model(cfg, spec.setup, spec.case)


def small_spec(**kwargs):
    base = dict(setup=2, protocol="DS-BB84", case=3, variable="coupling_loss_db",
                start=0.0, stop=30.0, points=4)
    base.update(kwargs)
    return SweepSpec(**base)


class TestSweepSpec:
    def test_incompatible_pairings_rejected(self):
        with pytest.raises(ValueError, match="setup"):
            small_spec(setup=3, protocol="GG02")
        with pytest.raises(ValueError, match="setup"):
            small_spec(setup=1, protocol="MDI-SPP")
        with pytest.raises(ValueError, match="setup"):
            small_spec(setup=4, protocol="DS-BB84")

    def test_range_validation(self):
        with pytest.raises(ValueError):
            small_spec(points=1)
        with pytest.raises(ValueError):
            small_spec(start=10.0, stop=10.0)
        with pytest.raises(ValueError):
            small_spec(start=0.0, stop=10.0, log_spacing=True)

    @pytest.mark.parametrize("variable,start", [
        ("clock_rate_hz", -5.0), ("clock_rate_hz", 0.0), ("coupling_loss_db", -5.0),
        ("L0_km", -5.0), ("psd_w_per_nm", -1e-6), ("background_noise", -1e-6),
    ])
    def test_swept_values_outside_domain_rejected(self, variable, start):
        with pytest.raises(ValueError, match=variable):
            small_spec(variable=variable, start=start, stop=1e9)

    def test_infinite_stop_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            small_spec(stop=float("inf"))

    def test_log_grid(self):
        spec = small_spec(variable="psd_w_per_nm", start=1e-8, stop=1e-5, points=4,
                          log_spacing=True)
        values = spec.values()
        assert values[0] == pytest.approx(1e-8, abs=0.0)
        assert values[-1] == pytest.approx(1e-5, abs=0.0)
        ratios = [b / a for a, b in zip(values, values[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-9, abs=0.0) for r in ratios)

    @settings(max_examples=300, deadline=None)
    @given(start=st.floats(0.0, 1e12), width=st.floats(1e-9, 1e12), points=st.integers(2, 300))
    def test_linear_grid_equals_numpy(self, start, width, points):
        stop = start + width
        assume(start < stop)
        spec = small_spec(start=start, stop=stop, points=points)
        assert spec.values() == np.linspace(start, stop, points).tolist()


class TestRunSweep:
    def test_rate_drops_with_coupling_loss(self):
        result = run_sweep(small_spec(points=2, stop=60.0), default_config())
        assert result.rows[1].rate_per_pulse <= result.rows[0].rate_per_pulse

    def test_bps_consistent_with_clock(self):
        result = run_sweep(small_spec(), default_config())
        for row in result.rows:
            assert row.rate_bps == pytest.approx(row.rate_per_pulse * 1e9, rel=1e-12, abs=0.0)

    def test_rows_sorted_and_complete(self):
        spec = small_spec(points=7)
        result = run_sweep(spec, default_config())
        values = [row.value for row in result.rows]
        assert values == sorted(values)
        assert len(values) == 7

    def test_identical_runs_identical_bytes(self, tmp_path):
        spec = small_spec()
        cfg = default_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(spec, cfg), a)
        emit_csv(run_sweep(spec, cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_rows_are_pointwise_evaluations(self):
        spec = small_spec(points=9)
        cfg = default_config()
        pointwise = [_evaluate_point(spec, resolved(spec, cfg), v) for v in spec.values()]
        assert list(run_sweep(spec, cfg).rows) == pointwise

    def test_point_evaluation_order_independent(self):
        spec = small_spec(points=6)
        model = resolved(spec, default_config())
        values = spec.values()
        shuffled = values[:]
        random.Random(3).shuffle(shuffled)
        direct = [_evaluate_point(spec, model, v) for v in values]
        via_shuffle = sorted(
            (_evaluate_point(spec, model, v) for v in shuffled), key=lambda r: r.value
        )
        assert direct == via_shuffle

    def test_explicit_grids_equal_to_the_generated_ones(self):
        spec = small_spec(variable="L0_km", start=1.0, stop=60.0, points=5)
        plan = default_config().plan()
        explicit = default_config(network={"quantum_nm": list(plan.quantum_nm),
                                           "data_nm": list(plan.data_nm)})
        assert run_sweep(spec, explicit).rows == run_sweep(spec, default_config()).rows

    def test_golden_file(self, tmp_path):
        spec = small_spec()
        out = tmp_path / "sweep.csv"
        emit_csv(run_sweep(spec, default_config()), out)
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_csv_uses_lf_endings(self, tmp_path):
        out = tmp_path / "sweep.csv"
        emit_csv(run_sweep(small_spec(), default_config()), out)
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


# Cells that repeat often, including both zeros, NaN and both infinities.
CELLS = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, 2.5e-9]),
                  st.floats())


def csv_result(rows):
    """A sweep result for rows of 7 numbers, a noise result for rows of 6."""
    if rows and len(rows[0]) == 6:
        return sweep.NoiseBreakdownResult(2, tuple(rows), "c" * 64, "t" * 64)
    return sweep.SweepResult(small_spec(), tuple(rows), "c" * 64, "t" * 64)


def per_row_reference(text, rows):
    """``text``'s four head lines, then every row in ``%.17e`` one row at a time."""
    head = text.split("\n")[:4]
    return "".join(f"{line}\n" for line in head + [",".join(["%.17e"] * len(row)) % row
                                                   for row in rows])


class TestCsvText:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.sampled_from([7, 6]).flatmap(
        lambda width: st.lists(st.tuples(*[CELLS] * width), max_size=12)))
    def test_equals_per_row_formatting(self, rows):
        text = csv_result(rows).csv_text()
        assert text == per_row_reference(text, rows)

    @pytest.mark.parametrize("width", [7, 6])
    def test_zero_signs_in_one_column(self, width):
        rows = [(0.0,) * width, (-0.0,) * width, (0.0,) * width]
        text = csv_result(rows).csv_text()
        assert text == per_row_reference(text, rows)
        assert [line.split(",")[0] for line in text.splitlines()[4:]] == [
            "0.00000000000000000e+00", "-0.00000000000000000e+00", "0.00000000000000000e+00"]


# Grids inside each swept variable's domain and the model's regime.
MEMO_GRIDS = {
    "coupling_loss_db": (0.0, 30.0, False),
    "L0_km": (0.0, 100.0, False),
    "psd_w_per_nm": (1e-8, 1e-3, True),
    "background_noise": (1e-10, 1e-4, True),
    "clock_rate_hz": (1e6, 1e10, True),
}
PAIRS = [(setup, protocol) for setup, protocols in sorted(_SETUP_PROTOCOLS.items())
         for protocol in sorted(protocols)]


class TestMemo:
    @settings(max_examples=40, deadline=None)
    @given(variable=st.sampled_from(SWEEP_VARIABLES), pair=st.sampled_from(PAIRS),
           case=st.sampled_from((1, 2, 3)), lo=st.floats(0.0, 0.5), hi=st.floats(0.5, 1.0),
           points=st.integers(2, 5))
    def test_rows_equal_fresh_config_per_point(self, variable, pair, case, lo, hi, points):
        start, stop, log = MEMO_GRIDS[variable]
        if log:
            start, stop = (start * (stop / start) ** f for f in (lo, hi))
        else:
            start, stop = (start + (stop - start) * f for f in (lo, hi))
        assume(start < stop)
        setup, protocol = pair
        spec = SweepSpec(setup=setup, protocol=protocol, case=case, variable=variable,
                         start=start, stop=stop, points=points, log_spacing=log)
        fresh = [_evaluate_point(spec, resolved(spec, SimulationConfig.from_dict({})), v)
                 for v in spec.values()]
        assert list(run_sweep(spec, default_config()).rows) == fresh

    def test_in_place_edit_reaches_next_run(self):
        cfg = default_config()
        spec = small_spec()
        run_sweep(spec, cfg)
        cfg.data["network"]["feeder_km"] = 40.0
        fresh = default_config(network={"feeder_km": 40.0})
        assert run_sweep(spec, cfg).csv_text() == run_sweep(spec, fresh).csv_text()

    def test_config_calls_do_not_grow_with_points(self):
        counts = []
        for points in (3, 30):
            tracer = spans.Tracer()
            with tracer.installed():
                run_sweep(small_spec(points=points), SimulationConfig.from_dict({}))
            counts.append(tracer.summarize(tracer.take())["config.calls"])
        assert counts[0] == counts[1]


def count_table_parses(monkeypatch):
    calls = []
    parse = RamanCrossSectionTable.from_csv_text.__func__

    def counting(cls, text, reference_pump_nm):
        calls.append(reference_pump_nm)
        return parse(cls, text, reference_pump_nm)

    monkeypatch.setattr(RamanCrossSectionTable, "from_csv_text", classmethod(counting))
    return calls


class TestTableParsedOncePerRun:
    @pytest.mark.parametrize("setup,protocol", [(1, "DS-BB84"), (1, "GG02"), (4, "MDI-SPP")])
    def test_sweep(self, monkeypatch, setup, protocol):
        calls = count_table_parses(monkeypatch)
        spec = SweepSpec(setup=setup, protocol=protocol, case=3, variable="L0_km",
                         start=1.0, stop=50.0, points=50)
        run_sweep(spec, default_config())
        assert len(calls) <= 1

    def test_noise_breakdown(self, monkeypatch):
        calls = count_table_parses(monkeypatch)
        noise_breakdown(3, default_config(), [float(v) for v in np.linspace(1.0, 50.0, 50)])
        assert len(calls) <= 1

def counted(calls, fn):
    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return counting


class TestPerPlanWork:
    @pytest.mark.parametrize("setup,protocol", [(1, "GG02"), (2, "DS-BB84"), (4, "MDI-DS")])
    def test_l0_sweep(self, monkeypatch, setup, protocol):
        launches, lookups = [], []
        monkeypatch.setattr(budget, "launch_power", counted(launches, budget.launch_power))
        monkeypatch.setattr(RamanCrossSectionTable, "gammas",
                            counted(lookups, RamanCrossSectionTable.gammas))
        spec = SweepSpec(setup=setup, protocol=protocol, case=3, variable="L0_km",
                         start=1.0, stop=50.0, points=3)
        builtin_cross_section_table.cache_clear()  # a fresh table has no grid lookups yet
        run_sweep(spec, default_config())
        # all users share one drop length, so one launch power per plan
        assert (len(launches), len(lookups)) == (3, 1)

    @pytest.mark.parametrize("setup,protocol", [(1, "GG02"), (2, "DS-BB84"), (4, "MDI-DS")])
    def test_feeder_variants_share_the_grid_cross_sections(self, monkeypatch, setup, protocol):
        cfg = default_config()
        lookups = []
        monkeypatch.setattr(RamanCrossSectionTable, "grid_gammas",
                            counted(lookups, RamanCrossSectionTable.grid_gammas))
        run_sweep(SweepSpec(setup=setup, protocol=protocol, case=3, variable="L0_km",
                            start=1.0, stop=50.0, points=20), cfg)
        # the run's plan looks its grid up once; no feeder variant looks it up again
        assert len(lookups) == 1

    @pytest.mark.parametrize("setup,protocol", [(1, "GG02"), (2, "DS-BB84"), (3, "MDI-SPP")])
    def test_grids_checked_once_per_l0_sweep(self, monkeypatch, setup, protocol):
        cfg = default_config()
        checks = []
        monkeypatch.setattr(DwdmPlan, "__init__", counted(checks, DwdmPlan.__init__))
        run_sweep(SweepSpec(setup=setup, protocol=protocol, case=3, variable="L0_km",
                            start=1.0, stop=50.0, points=20), cfg)
        assert len(checks) == 1

    def test_grids_checked_once_per_noise_breakdown(self, monkeypatch):
        cfg = default_config()
        checks = []
        monkeypatch.setattr(DwdmPlan, "__init__", counted(checks, DwdmPlan.__init__))
        noise_breakdown(4, cfg, [float(v) for v in range(20)])
        assert len(checks) == 1

    @pytest.mark.parametrize("setup,protocol", [(1, "GG02"), (2, "DS-BB84"), (4, "MDI-DS")])
    def test_integer_drop_length(self, setup, protocol):
        # a config value of 1 is an int; the per-channel arrays must still be float
        spec = SweepSpec(setup=setup, protocol=protocol, case=3, variable="coupling_loss_db",
                         start=0.0, stop=10.0, points=3)
        as_int = run_sweep(spec, default_config(network={"drop_km": 1})).rows
        as_float = run_sweep(spec, default_config(network={"drop_km": 1.0})).rows
        assert all(row.frs > 0.0 or row.brs > 0.0 for row in as_int)
        assert as_int == as_float


class TestNoiseBuildsWhatItReads:
    @pytest.mark.parametrize("setup,gains", [(1, 0), (2, 1), (3, 1), (4, 1)])
    def test_room_resolved_where_the_row_reads_it(self, monkeypatch, setup, gains):
        # setup 1 reports its fiber link, which no room quantity enters
        cfg = default_config()
        calls = []
        monkeypatch.setattr(sweep, "los_dc_gain", counted(calls, los_dc_gain))
        monkeypatch.setattr(SimulationConfig, "bulb_model",
                            counted(calls, SimulationConfig.bulb_model))
        noise_breakdown(setup, cfg, [1.0, 10.0, 50.0])
        assert len(calls) == 2 * gains

    def test_no_protocol_parameters(self, monkeypatch):
        cfg = default_config()
        built = []
        for name in ("bb84_params", "mdi_params", "gg02_params"):
            monkeypatch.setattr(SimulationConfig, name,
                                counted(built, getattr(SimulationConfig, name)))
        for setup in _SETUP_PROTOCOLS:
            noise_breakdown(setup, cfg, [10.0])
        assert built == []


class TestSetupOneComposition:
    def test_rows_report_min_of_links(self):
        cfg = default_config()
        spec = SweepSpec(setup=1, protocol="DS-BB84", case=1, variable="L0_km",
                         start=5.0, stop=50.0, points=4)
        result = run_sweep(spec, cfg)
        params = cfg.bb84_params()
        det = cfg.detectors()
        for row in result.rows:
            wireless = budget_setup1_wireless(
                los_dc_gain(cfg.scenario(1)),
                bulb_noise_count(cfg.bulb_model(cfg.data["link"]["wireless_wavelength_nm"])),
                det,
            )
            cfg_l0 = SimulationConfig.from_dict({"network": {"feeder_km": row.value}})
            fiber = budget_setup1_fiber(cfg_l0.plan(), det)
            expected = min(ds_bb84_rate(wireless, params), ds_bb84_rate(fiber, params))
            assert row.rate_per_pulse == pytest.approx(expected, rel=1e-12, abs=0.0)
            # breakdown reports the fiber link
            assert row.frs == pytest.approx(fiber.frs, rel=1e-12, abs=0.0)
            assert row.bulb == 0.0

    @pytest.mark.parametrize("variable,start,stop", [
        ("L0_km", 5.0, 50.0), ("coupling_loss_db", 0.0, 20.0), ("background_noise", 1e-8, 1e-4),
    ])
    def test_gg02_rows_report_fiber_link(self, variable, start, stop):
        cfg = default_config()
        spec = SweepSpec(setup=1, protocol="GG02", case=3, variable=variable,
                         start=start, stop=stop, points=3)
        for row in run_sweep(spec, cfg).rows:
            feeder = row.value if variable == "L0_km" else cfg.data["network"]["feeder_km"]
            plan = default_config(network={"feeder_km": feeder}).plan()
            fiber = cv_budget("1-fiber", plan=plan, gate_s=cfg.gate_s)
            assert fiber.frs > 0.0 and fiber.brs > 0.0
            assert (row.frs, row.brs, row.bulb, row.dark) == (fiber.frs, fiber.brs, 0.0, 0.0)


class TestBackgroundSweep:
    def test_background_replaces_modelled_noise(self):
        cfg = default_config()
        spec = SweepSpec(setup=2, protocol="DS-BB84", case=3, variable="background_noise",
                         start=1e-8, stop=1e-4, points=3, log_spacing=True)
        result = run_sweep(spec, cfg)
        for row in result.rows:
            assert row.frs == 0.0 and row.brs == 0.0
            assert row.bulb == pytest.approx(row.value, rel=1e-12, abs=0.0)
            assert row.dark == pytest.approx(1e-7, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("coupling_loss_db", [0.0, 5.0, 12.0])
    @pytest.mark.parametrize("setup,protocol", [
        (1, "DS-BB84"), (1, "SPP-BB84"), (2, "DS-BB84"), (2, "SPP-BB84"),
        (3, "MDI-DS"), (3, "MDI-SPP"), (4, "MDI-DS"), (4, "MDI-SPP"),
    ])
    def test_modelled_noise_as_background_reproduces_rate(self, setup, protocol, coupling_loss_db):
        cfg = default_config(link={"coupling_loss_db": coupling_loss_db})
        grid = dict(setup=setup, protocol=protocol, case=3, points=2)
        model = _Model(cfg, setup, 3)
        modelled = _evaluate_point(
            SweepSpec(variable="coupling_loss_db", start=0.0, stop=30.0, **grid),
            model, coupling_loss_db,
        )
        if setup == 1:  # the background replaces the wireless link's noise
            link = budget_setup1_wireless(
                los_dc_gain(cfg.scenario(3)),
                bulb_noise_count(cfg.bulb_model(cfg.data["link"]["wireless_wavelength_nm"])),
                cfg.detectors(),
            )
        else:
            link = modelled
        value = link.frs + link.brs + link.bulb
        spec = SweepSpec(variable="background_noise", start=value / 2.0, stop=value * 2.0,
                         log_spacing=True, **grid)
        assert _evaluate_point(spec, model, value).rate_per_pulse == modelled.rate_per_pulse

    def test_cv_background_enters_per_mode(self):
        cfg = default_config()
        spec = SweepSpec(setup=2, protocol="GG02", case=3, variable="background_noise",
                         start=1e-7, stop=1e-3, points=3, log_spacing=True)
        result = run_sweep(spec, cfg)
        net, cv = cfg.data["network"], cfg.data["cv"]
        eta_ch = (
            los_dc_gain(cfg.scenario(3))
            * 10.0 ** (-cfg.data["link"]["coupling_loss_db"] / 10.0)
            * fiber_transmittance(net["feeder_km"], net["drop_km"], net["attenuation_db_per_km"],
                                  net["awg_insertion_loss_db"])
        )
        for row in result.rows:
            link = CvLinkBudget(
                transmissivity=eta_ch,
                eps_bulb=2.0 * row.value / eta_ch,
                eps_receiver=cv["eps_receiver_measured"] / (eta_ch * cv["receiver_efficiency"]),
            )
            assert row.rate_per_pulse == pytest.approx(
                gg02_rate(link, cfg.gg02_params()), rel=1e-12, abs=0.0
            )
            assert (row.frs, row.brs, row.bulb) == (0.0, 0.0, row.value)


class TestFixedBulbCount:
    """``bulb.n_b1_per_pulse`` fixes the bulb background per gate, whatever the bulb's PSD."""

    @pytest.mark.parametrize("setup,protocol", PAIRS)
    def test_psd_sweep_is_flat(self, setup, protocol):
        spec = SweepSpec(setup=setup, protocol=protocol, case=3, variable="psd_w_per_nm",
                         start=1e-7, stop=1e-2, points=4, log_spacing=True)
        link = {"coupling_loss_db": 0.0}
        fixed = run_sweep(spec, default_config(link=link, bulb={"n_b1_per_pulse": 1e-6})).rows
        modelled = run_sweep(spec, default_config(link=link)).rows
        assert len({row.rate_per_pulse for row in fixed}) == 1 and fixed[0].rate_per_pulse > 0.0
        assert len({row.rate_per_pulse for row in modelled}) > 1

    def test_setup2_bulb_column(self):
        n_b1 = 1e-4
        cfg = default_config(bulb={"n_b1_per_pulse": n_b1})
        det, eta_fib = cfg.detectors(), cfg.plan().transmittance
        for row in run_sweep(small_spec(), cfg).rows:
            eta_coup = 10.0 ** (-row.value / 10.0)
            assert row.bulb == pytest.approx(
                det.eta_telecom / 2.0 * n_b1 * eta_fib * eta_coup, rel=1e-12, abs=0.0
            )


class TestNoiseBreakdown:
    def test_components_sum_to_total(self):
        cfg = default_config()
        for setup in (1, 2, 3, 4):
            table = noise_breakdown(setup, cfg, [5.0, 10.0, 20.0])
            for row in table.rows:
                assert row[5] == pytest.approx(sum(row[1:5]), abs=1e-12)

    def test_zero_cross_section_kills_raman(self, tmp_path):
        path = tmp_path / "zero.csv"
        wl = np.linspace(1300.0, 1800.0, 51)
        lines = ["lambda_q_nm,gamma_per_km_nm"] + [f"{w:.1f},0.0" for w in wl]
        path.write_text("\n".join(lines) + "\n")
        cfg = default_config(raman_table={"path": str(path)})
        table = noise_breakdown(2, cfg, [10.0])
        assert table.rows[0][1] == 0.0 and table.rows[0][2] == 0.0

    def test_rows_sorted_by_length(self):
        table = noise_breakdown(2, default_config(), [30.0, 10.0, 20.0])
        lengths = [row[0] for row in table.rows]
        assert lengths == sorted(lengths)


class TestCrossover:
    def test_zero_cv_clock_gives_zero(self):
        cfg = default_config(cv={"clock_hz": 0.0})
        assert dv_cv_crossover(cfg) == 0.0

    def test_closed_form_matches_dense_scan(self):
        cfg = default_config(link={"coupling_loss_db": 5.0})
        clock = dv_cv_crossover(cfg)
        grid = np.geomspace(1e6, 1e10, 20000)
        spec_dv = SweepSpec(setup=2, protocol="DS-BB84", case=3, variable="clock_rate_hz",
                            start=1e6, stop=1e10, points=2, log_spacing=True)
        dv_rate = run_sweep(spec_dv, cfg).rows[0].rate_per_pulse
        spec_cv = SweepSpec(setup=2, protocol="GG02", case=3, variable="coupling_loss_db",
                            start=5.0, stop=6.0, points=2)
        cv_bps = run_sweep(spec_cv, cfg).rows[0].rate_bps
        crossings = grid[dv_rate * grid >= cv_bps]
        assert clock == pytest.approx(float(crossings[0]), rel=1e-3, abs=0.0)
