#!/usr/bin/env python3
"""Digest the bench workloads' outputs and the demos' stdout, or compare two digest files.

Runs each call of ``bench/workloads.build(workload, seed)``, for the three
workloads and seeds 0-2, through ``qkd_access.cli.main`` in-process, and
the coverage calls of ``coverage_calls``: every workload call runs
placement case 3, so each (setup, protocol) pair's ``L0_km`` sweep and one
``noise`` and one ``crossover`` call also run on cases 1 and 2.  The
output of a ``sweep`` or ``noise`` call is its CSV; that of a ``crossover``
call is its printed line.  Each output gets the SHA-256 of its bytes, plus
one SHA-256 per CSV column (and one for the ``#`` provenance lines), so a
comparison can name the columns that moved.  A CSV's header and rows are
kept too, so the comparison also gives each moved numeric column's largest
absolute and relative change.  Each script in ``demos/`` also runs, in a
subprocess against the same ``src/``, and its stdout gets a SHA-256 under
the name ``demo/<script>``.

Run from the repository root:

    python scripts/output_digests.py new.json
    python scripts/output_digests.py --root ../other-checkout old.json
    python scripts/output_digests.py --diff old.json new.json
    python scripts/output_digests.py tests/data/output_digests.txt

An output file whose name ends in ``.txt`` gets the manifest instead: one
``name sha256`` line per output and no rows, under a ``#`` header.  The
checked-in manifest ``tests/data/output_digests.txt`` is what
``tests/test_output_digests.py`` compares against; a change that moves
bytes regenerates it in the same commit, so its diff shows every move.

``--root`` takes ``src/``, ``bench/`` and ``demos/`` from another checkout,
e.g. the parent commit.  ``--diff`` prints each moved output with its moved
columns, as ``name (max abs A, max rel R)`` where both files hold the rows,
and each demo whose stdout moved; it exits 1 if anything moved.  A digest
file without demo entries, as written before demos were digested, still
compares: its demos are reported as not compared.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

SEEDS = (0, 1, 2)
DEMO = "demo/"
COVERAGE_CASES = (1, 2)
MANIFEST_HEADER = """\
# SHA-256 of each output of scripts/output_digests.py: the bench workloads'
# calls (seeds 0-2), the coverage calls on placement cases 1 and 2, and the
# demos' stdout.  Written by `python scripts/output_digests.py <this file>`.
# Like tests/data/golden_sweep.csv, the bytes follow the platform's libm
# (exp, log, pow, ...) and were produced on Linux x86-64 with glibc 2.36 and
# CPython 3.11; another libm may round a last bit differently.
"""


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _csv_digest(text: str) -> dict:
    """The digest entry of a CSV: its SHA-256, one per column and the
    provenance lines, and the header and rows themselves."""
    lines = text.splitlines()
    provenance = [line for line in lines if line.startswith("#")]
    table = [line.split(",") for line in lines if not line.startswith("#")]
    header, *rows = table
    columns = {"#": _sha("\n".join(provenance))}
    for i, name in enumerate(header):
        columns[name] = _sha("\n".join(row[i] for row in rows))
    return {"sha256": _sha(text), "columns": columns, "rows": table}


def _largest_change(old: list[list[str]], new: list[list[str]], column: str) -> str:
    """" (max abs A, max rel R)" of ``column`` between two tables, or "" when
    the tables do not line up or the column is not numeric.  A change from 0
    counts as relative change inf."""
    if old[0] != new[0] or len(old) != len(new) or column not in old[0]:
        return ""
    i = old[0].index(column)
    try:
        pairs = [(float(a[i]), float(b[i])) for a, b in zip(old[1:], new[1:])]
    except ValueError:
        return ""
    worst_abs = max(abs(b - a) for a, b in pairs)
    worst_rel = max(abs(b - a) / abs(a) if a else (math.inf if b else 0.0) for a, b in pairs)
    return f" (max abs {worst_abs:.3g}, max rel {worst_rel:.3g})"


def coverage_calls(workloads) -> list[tuple[str, object, list[str]]]:
    """(name, invocation, extra arguments) of each call beyond the workloads:
    every (setup, protocol) pair's ``L0_km`` sweep, a setup-2 ``noise`` and a
    setup-2 ``crossover``, each on every case of ``COVERAGE_CASES``.  They run
    at zero coupling loss under a dim bulb (1e-10 W/nm), where every DV and
    MDI pair gives key on case 1 and the placement shows in the rates."""
    pairs = workloads.DV_PAIRS + workloads.MDI_PAIRS + ((1, "GG02"), (2, "GG02"))
    calls = [workloads.Invocation("sweep", setup, protocol, "L0_km", 0.5, 80.0, 9)
             for setup, protocol in pairs]
    calls += [workloads.Invocation("noise", 2, variable="L0_km", start=0.5, stop=80.0, points=9),
              workloads.Invocation("crossover", 2, coupling_loss_db=5.0)]
    dim = ["--set", "link.coupling_loss_db=0", "--set", "bulb.psd_w_per_nm=1e-10"]
    return [(f"coverage/case{case}/{inv.label()}", inv, ["--set", f"case={case}", *dim])
            for case in COVERAGE_CASES for inv in calls]


def collect(root: Path) -> dict[str, dict]:
    """{output name: {"sha256": ..., "columns": {...}}} for every workload and coverage
    call and every demo."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from qkd_access import cli

    calls = [(f"{workload}/seed{seed}/{index:02d}/{inv.label()}", inv, [])
             for workload in workloads.WORKLOADS for seed in SEEDS
             for index, inv in enumerate(workloads.build(workload, seed))]
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        for name, inv, extra in calls + coverage_calls(workloads):
            printed = io.StringIO()
            with redirect_stdout(printed):
                status = cli.main(inv.argv(str(out)) + extra)
            if status != 0:
                raise SystemExit(f"{name} exited with status {status}")
            if inv.command == "crossover":
                digests[name] = {"sha256": _sha(printed.getvalue()), "columns": {}}
            else:
                digests[name] = _csv_digest(out.read_text(encoding="utf-8"))
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    for demo in sorted((root / "demos").glob("*.py")):
        result = subprocess.run([sys.executable, str(demo)], capture_output=True, cwd=root,
                                env={**os.environ, "PYTHONPATH": path}, timeout=300)
        if result.returncode != 0:
            raise SystemExit(f"{demo.name} exited with status {result.returncode}")
        sha = hashlib.sha256(result.stdout).hexdigest()
        digests[DEMO + demo.stem] = {"sha256": sha, "columns": {"stdout": sha}}
    return digests


def write_manifest(digests: dict[str, dict], path: Path) -> None:
    """Write the ``name sha256`` lines of ``digests``, sorted by name, under the header."""
    lines = [f"{name} {digests[name]['sha256']}" for name in sorted(digests)]
    path.write_text(MANIFEST_HEADER + "\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path: Path) -> dict[str, str]:
    """{name: sha256} from a manifest ``write_manifest`` wrote."""
    text = path.read_text(encoding="utf-8")
    return dict(line.split(" ") for line in text.splitlines() if not line.startswith("#"))


def _has_demos(digests: dict[str, dict]) -> bool:
    return any(name.startswith(DEMO) for name in digests)


def diff(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """One line per output that is missing on a side or whose bytes moved.

    Demos are compared only when both files digest them.
    """
    names = old.keys() | new.keys()
    if not (_has_demos(old) and _has_demos(new)):
        names = {name for name in names if not name.startswith(DEMO)}
    lines = []
    for name in sorted(names):
        if name not in old or name not in new:
            lines.append(f"{name}: only in {'new' if name in new else 'old'}")
        elif old[name]["sha256"] != new[name]["sha256"]:
            a, b = old[name]["columns"], new[name]["columns"]
            moved = [c for c in sorted(a.keys() | b.keys()) if a.get(c) != b.get(c)]
            if "rows" in old[name] and "rows" in new[name]:
                moved = [c + _largest_change(old[name]["rows"], new[name]["rows"], c)
                         for c in moved]
            lines.append(f"{name}: {', '.join(moved) if moved else 'output'}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="JSON file to write the digests to")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/, bench/ and demos/ to run (default: this one)")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"), help="compare two digest files")
    args = parser.parse_args(argv)
    if args.diff:
        old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.diff)
        moved = diff(old, new)
        for line in moved:
            print(line)
        names = old.keys() | new.keys()
        demos = {name for name in names if name.startswith(DEMO)}
        moved_demos = sum(line.startswith(DEMO) for line in moved)
        print(f"{len(moved) - moved_demos} of {len(names - demos)} outputs moved")
        if _has_demos(old) and _has_demos(new):
            print(f"{moved_demos} of {len(demos)} demos printed other bytes")
        else:
            print("demos not compared: a file holds no demo digests")
        return 1 if moved else 0
    if args.out is None:
        parser.error("give an output file or --diff OLD NEW")
    digests = collect(args.root.resolve())
    if args.out.endswith(".txt"):
        write_manifest(digests, Path(args.out))
    else:
        Path(args.out).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print(f"wrote {args.out}: {len(digests)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
