"""Sweep benchmark: drives the ``qkd-access`` CLI in-process and times it.

Usage, from the repository root::

    python3 bench/run.py --workload reach --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

``--workload`` is ``reach``, ``invariant``, ``cv`` (see ``workloads.py``) or
``all``, which runs each of the three in its own process with tracing and
prints every metric.  The seed fixes the generated command lines.  A run
first times ``setup_s`` in fresh interpreters, then makes one unmeasured
warm-up pass over the workload's calls, then repeats the pass until
``--seconds`` have gone by.  Every call is checked (``checks.py``); a call
that raises, exits non-zero or writes a wrong output counts as failed.

With ``--trace 0`` every pass is untraced and the result carries the
end-to-end metrics.  With ``--trace 1`` passes alternate between untraced
and traced (``spans.py``) and the result carries the per-module metrics,
including the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
record with the machine facts goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 9

# Cold start as a CLI user pays it: import, default config, first table load.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
import qkd_access, qkd_access.cli
qkd_access.SimulationConfig.from_dict({}).raman_table()
print(repr(time.perf_counter() - t0))
"""


def measure_setup(runs: int) -> list[float]:
    """Seconds of cold start in ``runs`` fresh interpreters, after one warm-up."""
    times = []
    for i in range(runs + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def git_commit() -> str:
    """Commit of the checkout, or ``unknown`` outside a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def reference_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: how fast the machine is now.

    Recorded beside the results, not a metric: the speed of a shared
    machine drifts between runs, and this shows by how much.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        sum(i * i for i in range(200_000))
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "loadavg_start": os.getloadavg(),
        "reference_loop_ms_start": reference_loop_ms(),
    }


class Pass:
    """Timings of the measured calls of one kind of pass (traced or not)."""

    def __init__(self):
        self.walls_s: list[float] = []
        self.cpu_s = 0.0
        self.rows = 0
        self.pass_rates: list[float] = []  # rows per second of CLI wall time, per pass

    def close_pass(self, calls: int, rows: int) -> None:
        self.pass_rates.append(rows / sum(self.walls_s[-calls:]))

    @property
    def points_per_s(self) -> float:
        return statistics.median(self.pass_rates)


class Runner:
    """Runs a workload's calls through ``cli.main`` and checks each output."""

    def __init__(self, invocations, checker, cli, work_dir: Path):
        self.invocations = invocations
        self.checker = checker
        self.cli = cli
        self.work_dir = work_dir
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, index: int, inv, record: Pass | None) -> None:
        out = self.work_dir / f"{index}.csv"
        out.unlink(missing_ok=True)
        argv = inv.argv(str(out))
        captured = io.StringIO()
        error = None
        with redirect_stdout(captured), redirect_stderr(captured):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                status = self.cli.main(argv)
            except SystemExit as exc:
                status = exc.code
            except Exception:  # a crash is a failed call, not a failed benchmark
                status, error = None, traceback.format_exc(limit=-3)
            t1, c1 = time.perf_counter(), time.process_time()
        self.attempted += 1
        rows = 0
        if error is None and status != 0:
            error = f"exit status {status}: {captured.getvalue().strip()[-200:]}"
        if error is None:
            try:
                output = captured.getvalue().encode() if inv.command == "crossover" else out.read_bytes()
                rows = self.checker.check(inv, output)
            except (self.checker.Error, OSError, ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"{inv.label()} {' '.join(argv)}: {error}")
        if record is not None:
            record.walls_s.append(t1 - t0)
            record.cpu_s += c1 - c0
            record.rows += rows

    def run_pass(self, record: Pass | None) -> None:
        rows_before = record.rows if record else 0
        for index, inv in enumerate(self.invocations):
            self.call(index, inv, record)
        if record is not None:
            record.close_pass(len(self.invocations), record.rows - rows_before)


def end_to_end(plain: Pass, setup_s: list[float], attempted: int, failed: int) -> dict:
    walls_ms = [w * 1e3 for w in plain.walls_s]
    return {
        "points_per_s": (plain.points_per_s, "1/s"),
        "sweep_ms_p50": (statistics.median(walls_ms), "ms"),
        "sweep_ms_p90": (statistics.quantiles(walls_ms, n=10, method="inclusive")[8], "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }


def per_module(c: Counter, traced: Pass, plain: Pass) -> dict:
    rows = traced.rows

    def busy_us(*groups):
        return sum(c[f"{g}.busy_ns"] for g in groups) / 1e3 / rows

    busy_total_s = sum(v for key, v in c.items() if key.endswith(".busy_ns")) / 1e9
    below_cli_s = busy_total_s - c["cli.busy_ns"] / 1e9
    return {
        "config.calls_per_pt": (c["config.calls"] / rows, "count"),
        "config.busy_us_per_pt": (busy_us("config"), "us"),
        "raman.table_loads_per_pt": (c["raman.load.calls"] / rows, "count"),
        "raman.table_load_busy_us_per_pt": (busy_us("raman.load"), "us"),
        "raman.scatter_calls_per_pt": (c["raman.scatter.calls"] / rows, "count"),
        "raman.scatter_busy_us_per_pt": (busy_us("raman.scatter"), "us"),
        "budget.raman_totals_calls_per_pt": (c["budget.raman_totals.calls"] / rows, "count"),
        "budget.busy_us_per_pt": (busy_us("budget", "budget.raman_totals"), "us"),
        "owc.busy_us_per_pt": (busy_us("owc"), "us"),
        "protocols.rate_calls_per_pt": (c["protocols.rate.calls"] / rows, "count"),
        "protocols.rate_busy_us_per_pt": (busy_us("protocols.rate"), "us"),
        "protocols.gg02_search_busy_us_per_pt": (
            busy_us("protocols.gg02_search", "protocols.gg02_holevo"), "us"),
        "protocols.gg02_holevo_calls_per_pt": (c["protocols.gg02_holevo.calls"] / rows, "count"),
        "sweep.busy_us_per_pt": (busy_us("sweep"), "us"),
        "sweep.wait_us_per_pt": (c["sweep_wait_ns"] / 1e3 / rows, "us"),
        "sweep.csv_busy_us_per_row": (busy_us("sweep.csv"), "us"),
        "cli.busy_ms_per_call": (c["cli.busy_ns"] / 1e6 / c["cli.calls"], "ms"),
        "trace.overhead_frac": (1.0 - traced.points_per_s / plain.points_per_s, "frac"),
        "trace.coverage_frac": (busy_total_s / traced.cpu_s, "frac"),
        "trace.below_cli_frac": (below_cli_s / traced.cpu_s, "frac"),
    }


def run_workload(args) -> int:
    if not (ROOT / "src" / "qkd_access" / "cli.py").is_file():
        print(f"error: no qkd_access sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from qkd_access import cli

    import checks
    import spans

    facts = machine_facts()
    setup_s = measure_setup(SETUP_RUNS)
    invocations = workloads.build(args.workload, args.seed)
    work_dir = OUT_DIR / "work" / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(invocations, checks.OutputChecker(ROOT), cli, work_dir)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.calibrate()
        facts["trace_child_cost_ns"] = {"wall": tracer.child_wall_ns, "busy": tracer.child_busy_ns}

    runner.run_pass(None)  # warm-up: checked, not timed
    plain, traced, module = Pass(), Pass(), Counter()
    first_spans = None
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while passes < 4 or time.perf_counter() < deadline:
        if tracer is not None and passes % 2:
            with tracer.installed():
                runner.run_pass(traced)
            recorded = tracer.take()
            module.update(tracer.summarize(recorded))
            first_spans = first_spans or recorded
        else:
            runner.run_pass(plain)
        passes += 1

    failed = len(runner.failures)
    results = end_to_end(plain, setup_s, runner.attempted, failed)
    if tracer is not None:
        results.update(per_module(module, traced, plain))
        tracer.write(first_spans, OUT_DIR / f"spans-{args.workload}.jsonl")
    facts["loadavg_end"] = os.getloadavg()
    facts["reference_loop_ms_end"] = reference_loop_ms()

    beyond = sum(1 for w in plain.walls_s if w * 1e3 > results["sweep_ms_p90"][0])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{runner.attempted} calls, {len(invocations)} per pass, {passes} passes")
    print("machine " + json.dumps(facts, sort_keys=True))
    for message in runner.failures[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"  {'failed_frac':40s} {failed / runner.attempted:.6g} frac")
    for name, (value, unit) in results.items():
        note = f"  (n={len(plain.walls_s)}, {beyond} beyond)" if name == "sweep_ms_p90" else ""
        print(f"  {name:40s} {value:.6g} {unit}{note}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {name: {"value": results[name][0], "unit": results[name][1]} for name in wanted}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "setup_s_samples": setup_s,
              "pass_points_per_s": plain.pass_rates,
              "calls": [inv.label() for inv in invocations], "failures": runner.failures,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in results.items()}}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own traced process; prints all metrics."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with status {done.returncode}",
                  file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
