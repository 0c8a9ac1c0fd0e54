"""The paired-bench script's summary and verdicts, on canned numbers."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

STEADY = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


class TestJudge:
    def test_regressed(self):
        result = bench_pairs.judge(STEADY, [x * 1.3 for x in STEADY], "lower", 0.24)
        assert result["verdict"] == "regressed"
        assert result["pairs_change_better"] == "0/10"
        assert result["change_better_by"] == pytest.approx(-0.3)

    def test_within_bound(self):
        result = bench_pairs.judge(STEADY, [x * 1.2 for x in STEADY], "lower", 0.24)
        assert result["verdict"] == "within bound"

    def test_unresolved_when_the_parent_spreads_past_the_bound(self):
        parent = [10.0, 14.0, 7.0, 12.0, 8.0, 13.0, 6.0, 11.0, 9.0, 15.0]
        result = bench_pairs.judge(parent, [x * 1.5 for x in parent], "lower", 0.24)
        assert result["parent_iqr_over_median"] > 0.24
        assert result["verdict"] == "unresolved"

    def test_higher_is_better(self):
        result = bench_pairs.judge(STEADY, [x * 0.5 for x in STEADY], "higher", 0.24)
        assert (result["verdict"], result["change_better_by"]) == ("regressed", pytest.approx(-0.5))

    def test_quartiles(self):
        result = bench_pairs.judge([1.0, 2.0, 3.0, 4.0, 5.0], [1.0] * 5, "lower", 0.25)
        assert result["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}

    @pytest.mark.parametrize("wins,scale,shown", [(10, 0.8, True), (9, 0.8, True),
                                                   (8, 0.8, False), (10, 0.99, False)])
    def test_claim(self, wins, scale, shown):
        # the change is better by ``scale`` in its first ``wins`` pairs and worse after
        change = [x * scale if i < wins else x * 1.01 for i, x in enumerate(STEADY)]
        result = bench_pairs.judge(STEADY, change, "lower", 0.24, claimed=True)
        assert result["pairs_change_better"] == f"{wins}/10"
        assert result["claim_shown"] is shown

    def test_no_claim_no_claim_field(self):
        assert "claim_shown" not in bench_pairs.judge(STEADY, STEADY, "lower", 0.24)


SPEC = {"end_to_end": [{"name": "sweep_ms_p50", "better": "lower", "bound": 0.24},
                       {"name": "ok_frac", "better": "higher", "bound": 0.01}]}


def canned(workload, seed, side):
    p50 = 2.0 + 0.01 * seed + (0.6 if side == "change" and workload == "cv" else 0.0)
    return {"workload": workload, "seed": seed, "side": side,
            "metrics": {"sweep_ms_p50": p50, "ok_frac": 1.0}}


def test_summarize_pairs_by_seed():
    runs = [canned(w, s, side) for w in ("reach", "cv") for s in range(10)
            for side in bench_pairs.SIDES]
    runs.append(canned("reach", 99, "parent"))  # no change run: not a pair
    summary = bench_pairs.summarize(runs, SPEC, claim="reach:sweep_ms_p50")
    assert list(summary) == ["reach", "cv"]
    reach, cv = summary["reach"], summary["cv"]
    assert reach["sweep_ms_p50"]["pairs_change_better"] == "0/10"
    assert reach["sweep_ms_p50"]["verdict"] == "within bound"
    assert reach["sweep_ms_p50"]["claim_shown"] is False
    assert "claim_shown" not in cv["sweep_ms_p50"]
    assert cv["sweep_ms_p50"]["verdict"] == "regressed"  # 29 % slower, bound 24 %
    assert cv["ok_frac"]["verdict"] == "within bound"


def test_runs_alternate_and_write_the_report(tmp_path, monkeypatch):
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(SPEC))
    order = []

    def fake_run(checkout, workload, seed, seconds):
        side = checkout.name
        order.append((seed, side))
        return {"machine": {"git_commit": side},
                "metrics": canned(workload, seed, side)["metrics"],
                "setup_s_samples": [0.03, 0.04], "reference_loop_ms_start": 11.6,
                "reference_loop_ms_end": 15.5}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workloads", "cv", "--pairs", "3",
                             "--seconds", "1", "--first-seed", "7", "--out", str(out)]) == 0
    assert order == [(7, "parent"), (7, "change"), (8, "change"), (8, "parent"),
                     (9, "parent"), (9, "change")]
    report = json.loads(out.read_text())
    assert report["machine"] == {"parent": {"git_commit": "parent"},
                                 "change": {"git_commit": "change"}}
    assert report["seeds"] == [7, 9]
    assert [run["first"] for run in report["runs"]] == [True, False, True, False, True, False]
    assert report["runs"][0]["setup_s_samples"] == [0.03, 0.04]
    assert report["summary"]["cv"]["sweep_ms_p50"]["pairs_change_better"] == "0/3"
    assert report["setup_s_levels"]["cv"]["parent"]["share_upper"] == 0.5


def test_setup_levels_pool_each_side():
    def run(workload, side, samples):
        return {"workload": workload, "side": side, "setup_s_samples": samples}

    levels = bench_pairs.setup_levels([
        run("reach", "parent", [0.020, 0.030, 0.040]),
        run("reach", "change", [0.021, 0.022, 0.023]),
        run("reach", "parent", [0.010, 0.035, 0.050]),  # 35 ms counts as the upper level
        run("reach", "change", [0.024, 0.025, 0.045]),
        run("cv", "parent", [0.030, 0.030]),
        run("cv", "change", [0.036, 0.040]),
    ])
    assert list(levels) == ["reach", "cv"]
    # pooled parent samples 10, 20, 30, 35, 40, 50 ms: inclusive lower quartile 22.5 ms
    assert levels["reach"]["parent"] == {"q1": pytest.approx(0.0225), "share_upper": 0.5}
    assert levels["reach"]["change"] == {"q1": pytest.approx(0.02225), "share_upper": 1 / 6}
    assert levels["cv"] == {"parent": {"q1": pytest.approx(0.030), "share_upper": 0.0},
                            "change": {"q1": pytest.approx(0.037), "share_upper": 1.0}}
