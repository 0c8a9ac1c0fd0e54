#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and judge each metric.

For each workload and each seed from ``--first-seed`` on, runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

once in the parent checkout and once in the change checkout, one run at a
time (two concurrent runs of one workload share ``.bench_out/work/W`` and
clobber each other's outputs).  The side that runs first alternates from
pair to pair.  Each run's end-to-end metrics come from the last line of its
standard output; its ``setup_s`` samples and the reference-loop readings
at its start and end come from the record it writes to
``<checkout>/.bench_out/<W>-seed<S>-trace0.json``.

The output JSON holds every run and, per workload and metric, each side's
median and quartiles, the pairs the change won, the parent's IQR over its
median and a verdict against the metric's bound in the change checkout's
``BENCHMARK.json``:

* ``unresolved`` when the parent's IQR over its median exceeds the bound;
* ``regressed`` when the change's median is worse than the parent's by
  more than the bound;
* ``within bound`` otherwise.

With ``--claim WORKLOAD:METRIC`` the claim is shown when the change wins
at least nine pairs in ten and its median is better than the parent's by
more than the parent's IQR.

Beside the verdicts, ``setup_s_levels`` gives per workload and side the
lower quartile of the pooled ``setup_s`` samples and the share of samples
at or above 35 ms.  On a shared host, cold start has read at two levels,
below and above about 35 ms, that follow the host's load rather than the
code, so a ``setup_s`` verdict is worth reading against these.

Run from anywhere, with two exported checkouts (``git archive``):

    python scripts/bench_pairs.py --parent ../parent --change . --pairs 10 \\
        --seconds 25 --first-seed 2701 --out BENCH_27.json
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# The lower edge of the upper of the two levels that setup_s samples sit at.
SETUP_UPPER_LEVEL_S = 0.035
MACHINE_FACTS = ("nproc", "cpus_usable", "python", "platform", "git_commit")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced bench run in ``checkout``: its metrics, setup samples and reference loop."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600 + 4 * seconds, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "machine": {key: record["machine"][key] for key in MACHINE_FACTS},
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
        "setup_s_samples": record["setup_s_samples"],
        "reference_loop_ms_start": record["machine"]["reference_loop_ms_start"],
        "reference_loop_ms_end": record["machine"]["reference_loop_ms_end"],
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def judge(parent: list[float], change: list[float], better: str, bound: float,
          claimed: bool = False) -> dict:
    """The summary of one metric over paired runs; ``parent[i]`` pairs with ``change[i]``."""
    sign = 1.0 if better == "higher" else -1.0
    sides = {"parent": quartiles(parent), "change": quartiles(change)}
    p_med, c_med = sides["parent"]["median"], sides["change"]["median"]
    parent_iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
    spread = parent_iqr / abs(p_med) if p_med else (0.0 if parent_iqr == 0 else math.inf)
    gain = sign * (c_med - p_med) / abs(p_med) if p_med else sign * (c_med - p_med)
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if spread > bound:
        verdict = "unresolved"
    elif gain < -bound:
        verdict = "regressed"
    else:
        verdict = "within bound"
    out = {**sides, "change_better_by": gain, "bound": bound, "parent_iqr_over_median": spread,
           "pairs_change_better": f"{won}/{len(parent)}", "verdict": verdict}
    if claimed:
        out["claim_shown"] = won >= math.ceil(0.9 * len(parent)) and (
            sign * (c_med - p_med) > parent_iqr)
    return out


def summarize(runs: list[dict], spec: dict, claim: str | None = None) -> dict:
    """Per workload and end-to-end metric, ``judge`` over the pairs in ``runs``.

    Each run is ``{"workload", "seed", "side", "metrics"}``; a seed's two
    sides form a pair.
    """
    out: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        by_seed: dict = {}
        for run in runs:
            if run["workload"] == workload:
                by_seed.setdefault(run["seed"], {})[run["side"]] = run["metrics"]
        pairs = [sides for _, sides in sorted(by_seed.items()) if len(sides) == 2]
        out[workload] = {
            metric["name"]: judge(
                [pair["parent"][metric["name"]] for pair in pairs],
                [pair["change"][metric["name"]] for pair in pairs],
                metric["better"], metric["bound"], claim == f"{workload}:{metric['name']}")
            for metric in spec["end_to_end"]
        }
    return out


def setup_levels(runs: list[dict]) -> dict:
    """Per workload and side: the lower quartile of the runs' pooled ``setup_s_samples``
    and the share of those samples at or above ``SETUP_UPPER_LEVEL_S``."""
    pooled: dict = {}
    for run in runs:
        pooled.setdefault(run["workload"], {}).setdefault(run["side"], []).extend(
            run["setup_s_samples"])
    return {workload: {side: {"q1": quartiles(samples)["q1"],
                              "share_upper": sum(s >= SETUP_UPPER_LEVEL_S for s in samples)
                              / len(samples)}
                       for side, samples in sides.items()}
            for workload, sides in pooled.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workloads", nargs="+", default=["reach", "invariant", "cv"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())

    runs, machine = [], {}
    for workload in args.workloads:
        for i in range(args.pairs):
            seed = args.first_seed + i
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                run = run_bench(checkouts[side], workload, seed, args.seconds)
                machine.setdefault(side, run.pop("machine"))
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "first": side == SIDES[i % 2], **run})
                print(f"{workload} seed {seed} {side}: {json.dumps(run['metrics'])}",
                      file=sys.stderr)
    report = {
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0, in each checkout",
        "seeds": [args.first_seed, args.first_seed + args.pairs - 1],
        "machine": machine,
        "claim": args.claim,
        "summary": summarize(runs, spec, args.claim),
        "setup_s_levels": setup_levels(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
