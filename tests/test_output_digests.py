"""Every digested output keeps its bytes: the checked-in manifest pins them all.

``tests/data/output_digests.txt`` holds the SHA-256 of each output of
``scripts/output_digests.py``: the bench workloads' calls, the coverage
calls on placement cases 1 and 2, and the demos' stdout.  This test
regenerates the digests in-process and names each output that moved.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "data" / "output_digests.txt"
sys.path.insert(0, str(ROOT / "scripts"))

import output_digests  # noqa: E402


def test_no_output_moved():
    pinned = output_digests.read_manifest(MANIFEST)
    now = {name: entry["sha256"] for name, entry in output_digests.collect(ROOT).items()}
    moved = [name for name in sorted(pinned.keys() | now.keys()) if pinned.get(name) != now.get(name)]
    assert not moved, (
        f"{len(moved)} of {len(pinned)} outputs moved: {', '.join(moved)}.  See how with "
        "`python scripts/output_digests.py --root <parent checkout> old.json`, "
        "`python scripts/output_digests.py new.json` and "
        "`python scripts/output_digests.py --diff old.json new.json`; if the move is meant, "
        "regenerate the manifest with `python scripts/output_digests.py "
        "tests/data/output_digests.txt` in the same commit.")

