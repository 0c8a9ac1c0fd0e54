#!/usr/bin/env python3
"""Digest every output of the benchmark workloads, or compare two digest files.

Runs each call of ``bench/workloads.build(workload, seed)``, for the three
workloads and seeds 0-2, through ``qkd_access.cli.main`` in-process.  The
output of a ``sweep`` or ``noise`` call is its CSV; that of a ``crossover``
call is its printed line.  Each output gets the SHA-256 of its bytes, plus
one SHA-256 per CSV column (and one for the ``#`` provenance lines), so a
comparison can name the columns that moved.

Run from the repository root:

    python scripts/output_digests.py new.json
    python scripts/output_digests.py --root ../other-checkout old.json
    python scripts/output_digests.py --diff old.json new.json

``--root`` takes ``src/`` and ``bench/`` from another checkout, e.g. the
parent commit.  ``--diff`` prints each moved output with its moved columns
and exits 1 if anything moved.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

SEEDS = (0, 1, 2)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _column_digests(text: str) -> dict[str, str]:
    """SHA-256 of the provenance lines and of each CSV column."""
    lines = text.splitlines()
    provenance = [line for line in lines if line.startswith("#")]
    header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    columns = {"#": _sha("\n".join(provenance))}
    for i, name in enumerate(header):
        columns[name] = _sha("\n".join(row[i] for row in rows))
    return columns


def collect(root: Path) -> dict[str, dict]:
    """{output name: {"sha256": ..., "columns": {...}}} for every workload call."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from qkd_access import cli

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                for index, inv in enumerate(workloads.build(workload, seed)):
                    printed = io.StringIO()
                    with redirect_stdout(printed):
                        status = cli.main(inv.argv(str(out)))
                    if status != 0:
                        raise SystemExit(f"{inv.label()} exited with status {status}")
                    name = f"{workload}/seed{seed}/{index:02d}/{inv.label()}"
                    if inv.command == "crossover":
                        digests[name] = {"sha256": _sha(printed.getvalue()), "columns": {}}
                    else:
                        text = out.read_text(encoding="utf-8")
                        digests[name] = {"sha256": _sha(text), "columns": _column_digests(text)}
    return digests


def diff(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """One line per output that is missing on a side or whose bytes moved."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            lines.append(f"{name}: only in {'new' if name in new else 'old'}")
        elif old[name]["sha256"] != new[name]["sha256"]:
            a, b = old[name]["columns"], new[name]["columns"]
            moved = [c for c in sorted(a.keys() | b.keys()) if a.get(c) != b.get(c)]
            lines.append(f"{name}: {', '.join(moved) if moved else 'output'}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="JSON file to write the digests to")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and bench/ to run (default: this one)")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"), help="compare two digest files")
    args = parser.parse_args(argv)
    if args.diff:
        old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.diff)
        moved = diff(old, new)
        for line in moved:
            print(line)
        print(f"{len(moved)} of {len(old.keys() | new.keys())} outputs moved")
        return 1 if moved else 0
    if args.out is None:
        parser.error("give an output file or --diff OLD NEW")
    digests = collect(args.root.resolve())
    Path(args.out).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}: {len(digests)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
