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
NOISE_SETUP1 = ["noise", "--setup", "1", "--l0-start", "1", "--l0-stop", "50", "--points", "3"]
DV_SETUP2_COUPLING = ["sweep", "--setup", "2", "--protocol", "DS-BB84", "--var",
                      "coupling_loss_db", "--start", "0", "--stop", "20", "--points", "3"]
GG02_SETUP1_COUPLING = ["sweep", "--setup", "1", "--protocol", "GG02", "--var",
                        "coupling_loss_db", "--start", "0", "--stop", "20", "--points", "3"]
DV_SETUP1_CLOCK = ["sweep", "--setup", "1", "--protocol", "DS-BB84", "--var", "clock_rate_hz",
                   "--start", "1e6", "--stop", "1e9", "--points", "3", "--log"]

DV_SETUP2_PSD = ["sweep", "--setup", "2", "--protocol", "DS-BB84", "--var", "psd_w_per_nm",
                 "--start", "1e-8", "--stop", "1e-5", "--points", "3", "--log"]
MDI_SETUP3_COUPLING = ["sweep", "--setup", "3", "--protocol", "MDI-DS", "--var",
                       "coupling_loss_db", "--start", "0", "--stop", "20", "--points", "3"]


@pytest.mark.parametrize("argv,expected", [
    # one Raman pass per plan: the fiber budget carries its own photon counts,
    # and the wireless link, which no feeder length changes, is rated once; each
    # rate runs its own modulation-variance search, inside the rate's span and
    # not through the public optimal_modulation_variance
    (GG02_SETUP1_L0, {"budget.raman_totals.calls": 3, "budget.calls": 4,
                      "protocols.rate.calls": 4, "protocols.gg02_search.calls": 0}),
    # no background value changes what a budget reads: the run builds its one
    # budget once and each point replaces that budget's noise
    (DV_SETUP2_BACKGROUND, {"budget.calls": 1}),
    (NOISE_SETUP4, {"budget.calls": 3}),
    # coupling loss leaves the plan and the room alone, so its Raman totals are
    # computed once, and the room's gain and bulb count once each
    (DV_SETUP2_COUPLING, {"budget.raman_totals.calls": 1, "budget.calls": 3, "owc.calls": 2}),
    # a clock only scales the rate: each of the two links is rated once
    (DV_SETUP1_CLOCK, {"budget.raman_totals.calls": 1, "protocols.rate.calls": 2}),
    # setup 1 reports its fiber link only, so it builds no wireless budget and
    # resolves no room
    (NOISE_SETUP1, {"budget.calls": 3, "owc.calls": 0}),
    # no setup-1 budget reads the coupling loss: the run builds its two links
    # once and rates each once
    (GG02_SETUP1_COUPLING, {"budget.calls": 2, "protocols.rate.calls": 2}),
    # each PSD point counts its bulb's photons and builds and rates its own
    # budget; the room's gain is resolved once
    (DV_SETUP2_PSD, {"budget.calls": 3, "owc.calls": 4, "protocols.rate.calls": 3}),
    # each coupling loss gives its own MDI budget, rated once; the room's gain
    # and bulb count are resolved once each
    (MDI_SETUP3_COUPLING, {"budget.calls": 3, "owc.calls": 2, "protocols.rate.calls": 3}),
])
def test_group_call_counts(tmp_path, capsys, argv, expected):
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    counts = tracer.summarize(tracer.take())
    assert {name: counts[name] for name in expected} == expected
