"""The benchmark tracer still reaches every layer of a CLI run.

``bench/spans.py`` replaces package functions by name in module globals.
Code that looks a traced function up once, e.g. in an import-time table,
would bypass the wrappers and make that layer's metrics read 0.  These
tests run the CLI in-process under the tracer and check per-group call
counts.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402

from qkd_access import cli  # noqa: E402

GG02_SETUP1_L0 = ["sweep", "--setup", "1", "--protocol", "GG02", "--var", "L0_km",
                  "--start", "1", "--stop", "50", "--points", "3"]
DV_SETUP2_BACKGROUND = ["sweep", "--setup", "2", "--protocol", "DS-BB84", "--var",
                        "background_noise", "--start", "1e-8", "--stop", "1e-4", "--points", "3",
                        "--log"]
NOISE_SETUP4 = ["noise", "--setup", "4", "--l0-start", "1", "--l0-stop", "50", "--points", "3"]
DV_SETUP2_COUPLING = ["sweep", "--setup", "2", "--protocol", "DS-BB84", "--var",
                      "coupling_loss_db", "--start", "0", "--stop", "20", "--points", "3"]
DV_SETUP1_CLOCK = ["sweep", "--setup", "1", "--protocol", "DS-BB84", "--var", "clock_rate_hz",
                   "--start", "1e6", "--stop", "1e9", "--points", "3", "--log"]


@pytest.mark.parametrize("argv,expected", [
    # one Raman pass per plan: the fiber budget carries its own photon counts,
    # and the wireless link, which no feeder length changes, is rated (and its
    # modulation variance searched) once
    (GG02_SETUP1_L0, {"budget.raman_totals.calls": 3, "budget.calls": 6,
                      "protocols.rate.calls": 4, "protocols.gg02_search.calls": 4}),
    # the background override goes through the budget builder
    (DV_SETUP2_BACKGROUND, {"budget.calls": 3}),
    (NOISE_SETUP4, {"budget.calls": 3}),
    # coupling loss leaves the plan and the room alone, so its Raman totals are
    # computed once, and the room's gain and bulb count once each
    (DV_SETUP2_COUPLING, {"budget.raman_totals.calls": 1, "budget.calls": 3, "owc.calls": 2}),
    # a clock only scales the rate: each of the two links is rated once
    (DV_SETUP1_CLOCK, {"budget.raman_totals.calls": 1, "protocols.rate.calls": 2}),
])
def test_group_call_counts(tmp_path, capsys, argv, expected):
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    counts = tracer.summarize(tracer.take())
    assert {name: counts[name] for name in expected} == expected
