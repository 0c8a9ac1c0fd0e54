"""The benchmark harness runs end to end on the current code.

Runs ``bench/run.py`` for about a second on the ``cv`` workload in a
subprocess from the repository root (about 5 s wall, most of it the
harness's cold-start timing) and checks its result line.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_cv_workload_runs_clean():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cv", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
