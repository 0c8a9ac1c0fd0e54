"""Command-line interface behavior and exit codes."""

import contextlib
import copy
import io
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkd_access import cli, sweep
from qkd_access.cli import main
from qkd_access.config import DEFAULTS, MAX_USERS, ConfigError, SimulationConfig
from qkd_access.raman import BUILTIN_TABLE_RESOURCE, RamanCrossSectionTable
from qkd_access.sweep import _SETUP_PROTOCOLS, MAX_POINTS, SWEEP_VARIABLES


ROOT = pathlib.Path(__file__).resolve().parent.parent
TABLE_LINES = ["lambda_q_nm,gamma_per_km_nm"] + [f"{w:.1f},1.0e-11" for w in range(1300, 1801, 10)]
HUGE = int("1" * 400)  # an int beyond float range
PUMP_ERRORS = {
    '"abc"': "raman_table.reference_pump_nm must be a finite number, got 'abc'",
    "null": "raman_table.reference_pump_nm must be a finite number, got None",
    "0": "raman_table.reference_pump_nm must be > 0",
}
SWEEP_L0 = ("sweep", "--setup", "2", "--protocol", "DS-BB84", "--var", "L0_km", "--start", "1",
            "--stop", "30", "--points", "3")
NOISE = ("noise", "--setup", "2")
GENERATED_GRID_KEYS = ("network.n_users, network.channel_spacing_nm, network.quantum_start_nm, "
                       "network.data_start_nm")


def run_cli(*args):
    return main(list(args))


def _leaves(tree, prefix=""):
    """(dotted key, value) of every leaf of a nested dict."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _nested(dotted, value):
    """The override dict that sets the leaf ``dotted`` to ``value``."""
    *sections, leaf = dotted.split(".")
    tree = {leaf: value}
    for section in reversed(sections):
        tree = {section: tree}
    return tree


class TestValidateConfig:
    def test_defaults_pass(self, capsys):
        assert run_cli("validate-config") == 0
        out = capsys.readouterr().out
        assert "configuration OK" in out
        assert "config sha256" in out

    def test_valid_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dv": {"mu": 0.4}, "case": 1}))
        assert run_cli("validate-config", "--config", str(path)) == 0
        assert '"mu": 0.4' in capsys.readouterr().out

    def test_unknown_key_fails(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dv": {"muu": 0.4}}))
        assert run_cli("validate-config", "--config", str(path)) == 2
        assert "unknown configuration key" in capsys.readouterr().err

    def test_invalid_value_fails(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dv": {"mu": -1.0}}))
        assert run_cli("validate-config", "--config", str(path)) == 2

    def test_malformed_json_fails(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert run_cli("validate-config", "--config", str(path)) == 2

    def test_set_override_applies(self, capsys):
        assert run_cli("validate-config", "--set", "dv.mu=0.25") == 0
        assert '"mu": 0.25' in capsys.readouterr().out

    def test_bad_override_fails(self, capsys):
        assert run_cli("validate-config", "--set", "dv.nonsense=1") == 2


    def test_non_numeric_override_fails(self, capsys):
        assert run_cli("validate-config", "--set", "dv.mu=nan") == 2
        assert "error:" in capsys.readouterr().err

    def test_list_for_scalar_override_fails(self, capsys):
        assert run_cli("validate-config", "--set", "network.drop_km=[1,2]") == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("assignment,key", [
        ("dv.mu=NaN", "dv.mu"), ("bulb.psd_w_per_nm=Infinity", "bulb.psd_w_per_nm"),
    ])
    def test_non_finite_override_fails(self, capsys, assignment, key):
        assert run_cli("validate-config", "--set", assignment) == 2
        assert f"error: {key} must be a finite number" in capsys.readouterr().err

    def test_unconvertible_number_override_names_the_key(self, capsys):
        # longer than the interpreter converts, so json raises a ValueError of its own
        assert run_cli("validate-config", "--set", "dv.mu=" + "1" * 5000) == 2
        assert capsys.readouterr().err.startswith("error: dv.mu: ")

    def test_unconvertible_number_in_file_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"dv": {"mu": ' + "1" * 5000 + "}}")
        assert run_cli("validate-config", "--config", str(path)) == 2
        assert capsys.readouterr().err.startswith(f"error: config file {path}: ")

    def test_set_does_not_leak_into_next_call(self, capsys):
        def sha():
            out = capsys.readouterr().out
            return next(line for line in out.splitlines() if line.startswith("config sha256"))

        assert run_cli("validate-config", "--set", "dv.mu=0.4") == 0
        with_set = sha()
        assert run_cli("validate-config") == 0
        assert sha() != with_set

    @pytest.mark.parametrize("pump", list(PUMP_ERRORS))
    @pytest.mark.parametrize("command", [("validate-config",), SWEEP_L0])
    def test_bad_reference_pump_fails(self, tmp_path, capsys, command, pump):
        table = tmp_path / "table.csv"
        lines = ["lambda_q_nm,gamma_per_km_nm"] + [f"{w:.1f},1.0e-11" for w in range(1300, 1801, 10)]
        table.write_text("\n".join(lines) + "\n")
        out = tmp_path / "rates.csv"
        args = (*command, "--out", str(out)) if command[0] == "sweep" else command
        code = run_cli(*args, "--table", str(table),
                       "--set", f"raman_table.reference_pump_nm={pump}")
        assert code == 2
        assert capsys.readouterr().err == f"error: {PUMP_ERRORS[pump]}\n"
        assert not out.exists()

    def test_bad_bulb_model_fails_with_fixed_count(self, capsys):
        # the bulb model is checked although the fixed count replaces it
        code = run_cli("validate-config", "--set", "bulb.n_b1_per_pulse=1e-4",
                       "--set", "bulb.psd_w_per_nm=-1")
        assert code == 2
        assert "PSD must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("assignment,message", [
        ("link.wireless_wavelength_nm=-5", "wavelength_m must be > 0"),
        ("network.quantum_start_nm=-1", "grid wavelengths must be > 0"),
        ("network.rx_bandwidth_nm=0", "network.rx_bandwidth_nm must be > 0"),
        ("link.polarization_factor=2", "link.polarization_factor must be in [0, 1]"),
        ("link.polarization_factor=-1", "link.polarization_factor must be in [0, 1]"),
        ("network.quantum_nm=[1555.62]", "explicit grids need both"),
    ])
    def test_rejects_what_every_run_rejects(self, capsys, assignment, message):
        assert run_cli("validate-config", "--set", assignment) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("assignment,message", [
        ("dv.clock_hz=0", "error: dv.clock_hz must be > 0"),
        ("cv.clock_hz=-1", "error: cv.clock_hz must be >= 0"),
    ])
    def test_clock_bounds_name_their_key(self, capsys, assignment, message):
        assert run_cli("validate-config", "--set", assignment) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("users,code", [(MAX_USERS, 0), (MAX_USERS + 1, 2), (0, 2)])
    def test_user_count_is_bounded(self, capsys, users, code):
        # at the default 0.8 nm spacing the built-in table covers only 221 users
        assert run_cli("validate-config", "--set", f"network.n_users={users}",
                       "--set", "network.channel_spacing_nm=0.1") == code
        if code == 2:
            assert capsys.readouterr().err == (
                f"error: network.n_users must be in [1, {MAX_USERS}], got {users}\n")

    @pytest.mark.parametrize("command", [("validate-config",), SWEEP_L0, NOISE])
    @pytest.mark.parametrize("assignments,keys", [
        (["network.n_users=222"], GENERATED_GRID_KEYS),
        (["network.n_users=300"], GENERATED_GRID_KEYS),
        ([f"network.n_users={MAX_USERS}"], GENERATED_GRID_KEYS),
        (["network.channel_spacing_nm=30"], GENERATED_GRID_KEYS),
        (["network.quantum_nm=[1555.62]", "network.data_nm=[2500.0]"],
         "network.quantum_nm and network.data_nm"),
    ], ids=["222-users", "300-users", "max-users", "30nm-spacing", "explicit-grids"])
    def test_grid_outside_the_table_names_its_keys(self, tmp_path, capsys, command,
                                                   assignments, keys):
        out = tmp_path / "x.csv"
        args = (*command, "--out", str(out)) if command[0] != "validate-config" else command
        for assignment in assignments:
            args += ("--set", assignment)
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: pump ") and err.count("\n") == 1
        assert err.endswith(f" outside table range [-20.124, 20.723] THz; change {keys} "
                            "or raman_table.path\n")
        assert not out.exists()

    def test_most_users_the_table_covers(self, capsys):
        assert run_cli("validate-config", "--set", "network.n_users=221") == 0

    @pytest.mark.parametrize("assignment,message", [
        ('case={"x":1}', "error: case must be a value, got {'x': 1}"),
        ("foo.bar=1", "error: unknown configuration key: foo"),
        ("dv.mu.x=1", "error: dv.mu must be a value, got {'x': 1}"),
        (".mu=1", "error: override key must look like section.key, got '.mu'"),
    ])
    def test_bad_set_paths_name_the_key(self, capsys, assignment, message):
        assert run_cli("validate-config", "--set", assignment) == 2
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize("command,assignment,message", [
        (("validate-config",), "dv.mu=true", "dv.mu must be a finite number, got True"),
        (("validate-config",), "dv.fast_detectors=3", "dv.fast_detectors must be a boolean, got 3"),
        (SWEEP_L0, "case=true", "case must be an integer, got True"),
        (("validate-config",), 'network.n_users="32"',
         "network.n_users must be an integer, got '32'"),
        (("validate-config",), f"room.x_m={HUGE}", f"room.x_m must be a finite number, got {HUGE}"),
        (("validate-config",), f"network.n_users={HUGE}",
         f"network.n_users must be an integer, got {HUGE}"),
        (SWEEP_L0, f"dv.clock_hz={HUGE}", f"dv.clock_hz must be a finite number, got {HUGE}"),
    ], ids=["mu-bool", "fast_detectors-int", "case-bool", "n_users-str", "x_m-huge",
            "n_users-huge", "clock_hz-huge"])
    def test_wrong_kind_names_the_key(self, tmp_path, capsys, command, assignment, message):
        out = tmp_path / "rates.csv"
        args = (*command, "--out", str(out)) if command[0] == "sweep" else command
        assert run_cli(*args, "--set", assignment) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_non_string_table_path_rejected(self):
        # a JSON 0 would otherwise open file descriptor 0, standard input
        with pytest.raises(ConfigError, match="raman_table.path must be a file path"):
            SimulationConfig.from_dict({"raman_table": {"path": 0}})

    def test_table_flag_is_a_file_name_not_json(self, capsys):
        # "null" used to parse as JSON null and select the built-in table
        assert run_cli("validate-config", "--table", "null") == 2
        assert "null" in capsys.readouterr().err

    def test_table_file_named_like_a_number(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        pathlib.Path("0").write_text("\n".join(TABLE_LINES) + "\n")
        assert run_cli("validate-config", "--table", "0") == 0
        assert json.loads(capsys.readouterr().out.split("\n", 2)[2])["raman_table"]["path"] == "0"

    def test_table_flag_wins_over_set(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("\n".join(TABLE_LINES) + "\n")
        assert run_cli("validate-config", "--set", "raman_table.path=missing.csv",
                       "--table", str(table)) == 0
        data = json.loads(capsys.readouterr().out.split("\n", 2)[2])
        assert data["raman_table"]["path"] == str(table)

    def test_set_overrides_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dv": {"mu": 0.4, "nu": 0.3}}))
        assert run_cli("validate-config", "--config", str(path), "--set", "dv.mu=0.25") == 0
        data = json.loads(capsys.readouterr().out.split("\n", 2)[2])
        assert (data["dv"]["mu"], data["dv"]["nu"]) == (0.25, 0.3)

class TestMerge:
    def test_in_place_edit_never_reaches_defaults(self):
        before = copy.deepcopy(DEFAULTS)
        for overrides in ({}, {"network": {"feeder_km": 20.0}}, {"case": 1, "dv": {"mu": 0.4}}):
            cfg = SimulationConfig.from_dict(overrides)
            for section in cfg.data.values():
                if isinstance(section, dict):
                    for key in section:
                        section[key] = "edited"
            cfg.data["case"] = "edited"
            assert DEFAULTS == before
            assert SimulationConfig.from_dict({}).data == before

    def test_errors_name_the_key(self):
        with pytest.raises(ConfigError, match=r"^unknown configuration key: network\.feeder$"):
            SimulationConfig.from_dict({"network": {"feeder": 1.0}})
        with pytest.raises(ConfigError, match=r"^unknown configuration key: colour$"):
            SimulationConfig.from_dict({"colour": 1})
        with pytest.raises(ConfigError, match=r"^dv must be a section, got 3$"):
            SimulationConfig.from_dict({"dv": 3})

    @pytest.mark.parametrize("overrides,message", [
        ({"case": {"x": 1}}, r"^case must be a value, got \{'x': 1\}$"),
        ({"room": {"x_m": {"a": 1}}}, r"^room\.x_m must be a value, got \{'a': 1\}$"),
    ])
    def test_section_where_a_value_belongs(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            SimulationConfig.from_dict(overrides)

    def test_every_leaf_keeps_its_default_kind(self):
        # each probe by name; a leaf accepts the probes of its kind (a None leaf
        # also accepts null) and must reject every other one, naming its key
        probes = {"bool": True, "str": "1", "list": [1.0], "float": 1.0, "fraction": 2.5,
                  "nan": math.nan, "inf": -math.inf, "huge": HUGE, "bad_item": [math.nan]}
        accepts = {bool: {"bool"}, int: set(), float: {"float", "fraction"}}
        null_accepts = {"raman_table.path": {"str"}, "network.quantum_nm": {"list"},
                        "network.data_nm": {"list"}}
        plain = SimulationConfig.from_dict({}).sha256
        for dotted, default in _leaves(DEFAULTS):
            assert SimulationConfig.from_dict(_nested(dotted, default)).sha256 == plain, dotted
            if default is None:
                right = null_accepts.get(dotted, {"float", "fraction"})
            else:
                right = accepts[type(default)]
            for name, probe in probes.items():
                if name in right:
                    continue
                with pytest.raises(ConfigError) as info:
                    SimulationConfig.from_dict(_nested(dotted, probe))
                message = str(info.value)
                assert message.startswith(f"{dotted} must be "), (dotted, name)
                assert message.endswith(f", got {probe!r}"), (dotted, name)


class TestSweepCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        code = run_cli(
            "sweep", "--setup", "2", "--protocol", "DS-BB84", "--var", "coupling_loss_db",
            "--start", "0", "--stop", "20", "--points", "3", "--out", str(out),
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("# config_sha256=")
        assert "coupling_loss_db,key_rate_per_pulse" in text
        assert len(text.strip().splitlines()) == 3 + 4  # 3 comments + header + 3 rows

    def test_incompatible_pairing_fails(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--setup", "3", "--protocol", "GG02", "--var", "coupling_loss_db",
            "--start", "0", "--stop", "20", "--points", "3", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "setup" in capsys.readouterr().err

    def test_polarization_factor_above_one_fails(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli(
            "sweep", "--setup", "3", "--protocol", "MDI-DS", "--var", "coupling_loss_db",
            "--start", "0", "--stop", "20", "--points", "3", "--out", str(out),
            "--set", "link.polarization_factor=2",
        )
        assert code == 2
        assert "link.polarization_factor must be in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_path_fails(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--setup", "2", "--protocol", "DS-BB84", "--var", "coupling_loss_db",
            "--start", "0", "--stop", "20", "--points", "2",
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize("var,start", [("clock_rate_hz", -5), ("coupling_loss_db", -5)])
    def test_swept_value_outside_domain_fails(self, tmp_path, capsys, var, start):
        out = tmp_path / "x.csv"
        code = run_cli(
            "sweep", "--setup", "2", "--protocol", "DS-BB84", "--var", var,
            "--start", str(start), "--stop", "20", "--points", "3", "--out", str(out),
        )
        assert code == 2
        assert var in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("assignment", [
        "network.attenuation_db_per_km=1e300", "network.sensitivity_dbm=1e300",
        "network.awg_insertion_loss_db=1e300",
    ])
    def test_overflow_fails_without_traceback(self, tmp_path, capsys, assignment):
        # valid for the config, but the launch power's 10 ** (dB / 10) overflows;
        # the error names the keys that feed it
        out = tmp_path / "rates.csv"
        assert run_cli(*SWEEP_L0, "--out", str(out), "--set", assignment) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        assert assignment.split("=")[0] in err

    def test_replaced_background_is_still_checked(self, tmp_path, capsys):
        # a background of one count per pulse replaces the link's noise; the new link
        # must pass the same check as every other
        out = tmp_path / "x.csv"
        code = run_cli(
            "sweep", "--setup", "2", "--protocol", "DS-BB84", "--var", "background_noise",
            "--start", "0", "--stop", "1", "--points", "2", "--out", str(out),
        )
        assert code == 2
        assert ("total noise per detector must stay below one count per pulse"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_infinite_config_value_fails(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli(
            "sweep", "--setup", "2", "--protocol", "GG02", "--var", "coupling_loss_db",
            "--start", "0", "--stop", "20", "--points", "3", "--out", str(out),
            "--set", "bulb.psd_w_per_nm=Infinity",
        )
        assert code == 2
        assert "bulb.psd_w_per_nm must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_external_table_flag(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("\n".join(TABLE_LINES) + "\n")
        out = tmp_path / "rates.csv"
        code = run_cli(
            "sweep", "--setup", "2", "--protocol", "DS-BB84", "--var", "L0_km",
            "--start", "1", "--stop", "30", "--points", "2", "--out", str(out),
            "--table", str(table),
        )
        assert code == 0


# A setup-2 DS-BB84 feeder sweep, a setup-1 GG02 coupling-loss sweep and a setup-3 noise run.
TABLE_COMMANDS = [
    SWEEP_L0,
    ("sweep", "--setup", "1", "--protocol", "GG02", "--var", "coupling_loss_db", "--start", "0",
     "--stop", "20", "--points", "3"),
    ("noise", "--setup", "3"),
]


class TestExternalTable:
    @pytest.mark.parametrize("command", TABLE_COMMANDS, ids=["setup2-ds-l0", "setup1-gg02-coupling",
                                                             "noise-setup3"])
    def test_copy_of_the_builtin_table_gives_the_same_rows(self, tmp_path, monkeypatch, capsys,
                                                           command):
        table = tmp_path / "table.csv"
        table.write_bytes(
            resources.files("qkd_access").joinpath("data", BUILTIN_TABLE_RESOURCE).read_bytes())
        builtin_out, copy_out = tmp_path / "builtin.csv", tmp_path / "copy.csv"
        assert run_cli(*command, "--out", str(builtin_out)) == 0
        parses = []
        parse = RamanCrossSectionTable.from_csv_text.__func__
        monkeypatch.setattr(RamanCrossSectionTable, "from_csv_text", classmethod(
            lambda cls, text, pump: parses.append(pump) or parse(cls, text, pump)))
        assert run_cli(*command, "--out", str(copy_out), "--table", str(table)) == 0
        # once where the config is validated and once where the run builds its plan
        assert len(parses) == 2
        builtin_head, builtin_rest = builtin_out.read_bytes().split(b"\n", 1)
        copy_head, copy_rest = copy_out.read_bytes().split(b"\n", 1)
        # the config names the table's path, so only the config hash differs; the
        # table hash does not, since the text is the same
        assert builtin_head.startswith(b"# config_sha256=") and copy_head != builtin_head
        assert copy_rest.startswith(b"# table_sha256=") and copy_rest == builtin_rest


class TestNoiseCommand:
    def test_writes_breakdown(self, tmp_path):
        out = tmp_path / "noise.csv"
        code = run_cli("noise", "--setup", "2", "--l0-start", "1", "--l0-stop", "50",
                       "--points", "5", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[3].startswith("l0_km,")
        assert len(lines) == 3 + 1 + 5


    @pytest.mark.parametrize("points,rows", [(1, 1)])
    def test_short_grids(self, tmp_path, points, rows):
        out = tmp_path / "noise.csv"
        code = run_cli("noise", "--setup", "2", "--l0-start", "7", "--points", str(points),
                       "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3 + 1 + rows
        assert all(line.startswith("7.0000") for line in lines[4:])

    def test_negative_points_fail(self, tmp_path, capsys):
        code = run_cli("noise", "--setup", "2", "--points", "-1", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "samples" in capsys.readouterr().err

    @pytest.mark.parametrize("setup", [1, 4])
    def test_negative_feeder_fails(self, tmp_path, capsys, setup):
        code = run_cli("noise", "--setup", str(setup), "--l0-start", "-5",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "fiber lengths must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("option,value", [("--l0-start", "nan"), ("--l0-stop", "inf"),
                                              ("--l0-start", "-1")])
    def test_bad_feeder_names_its_option(self, tmp_path, capsys, option, value):
        out = tmp_path / "x.csv"
        code = run_cli("noise", "--setup", "2", option, value, "--points", "3", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: fiber lengths must be >= 0 and finite; {option} is {float(value)}\n")
        assert not out.exists()


@pytest.mark.parametrize("command,points,message", [
    (SWEEP_L0, 1, f"a sweep needs 2 to {MAX_POINTS} points (--points), got 1"),
    (SWEEP_L0, MAX_POINTS + 1,
     f"a sweep needs 2 to {MAX_POINTS} points (--points), got {MAX_POINTS + 1}"),
    (NOISE, 0, f"noise needs 1 to {MAX_POINTS} samples (--points), got 0"),
    (NOISE, MAX_POINTS + 1,
     f"noise needs 1 to {MAX_POINTS} samples (--points), got {MAX_POINTS + 1}"),
], ids=["sweep-1", "sweep-past-bound", "noise-0", "noise-past-bound"])
def test_points_out_of_range_fail(tmp_path, capsys, monkeypatch, command, points, message):
    # rejected before any grid is built
    def no_grid(*_):
        raise AssertionError("the grid was built")

    for module in (cli, sweep):
        monkeypatch.setattr(module, "linspace", no_grid)
    out = tmp_path / "x.csv"
    assert run_cli(*command, "--points", str(points), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


class TestCrossoverCommand:
    def test_prints_clock(self, capsys):
        assert run_cli("crossover", "--set", "link.coupling_loss_db=5") == 0
        out = capsys.readouterr().out
        assert "crossover clock" in out


def test_sweep_and_noise_run_without_numpy(tmp_path):
    # numpy is a test-only dependency, and dataclasses, inspect and copy cost cold
    # start: a CLI run must never import them
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from qkd_access.cli import main\n"
        "assert main(['sweep', '--setup', '2', '--protocol', 'DS-BB84', '--var', 'psd_w_per_nm',"
        " '--start', '1e-6', '--stop', '1e-3', '--points', '5', '--log', '--out', 'a.csv']) == 0\n"
        "assert main(['noise', '--setup', '3', '--points', '5', '--out', 'b.csv']) == 0\n"
        "assert main(['crossover']) == 0\n"
        "print(sorted({'numpy', 'dataclasses', 'inspect', 'copy'} & (set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


# Kind-valid overrides in moderate ranges, by dotted key; each run draws a subset.
FUZZ_LEAVES = {
    "case": st.sampled_from([1, 2, 3]),
    "room.x_m": st.floats(2.0, 10.0),
    "room.z_m": st.floats(2.0, 5.0),
    "room.fov_deg": st.floats(1.0, 80.0),
    "room.tx_x_m": st.none() | st.floats(0.0, 10.0),
    "room.tx_semi_angle_deg": st.none() | st.floats(5.0, 80.0),
    "bulb.psd_w_per_nm": st.floats(0.0, 1e-3),
    "bulb.n_b1_per_pulse": st.none() | st.floats(0.0, 1e-3),
    "network.n_users": st.integers(1, 64),  # plan() allocates per user
    "network.feeder_km": st.floats(0.0, 50.0),
    "network.drop_km": st.floats(0.0, 5.0) | st.integers(0, 5),
    "network.awg_insertion_loss_db": st.floats(0.0, 5.0),
    "network.attenuation_db_per_km": st.floats(0.15, 0.4),
    "network.sensitivity_dbm": st.floats(-50.0, -20.0),
    "network.rx_bandwidth_nm": st.floats(0.1, 2.0),
    "link.coupling_loss_db": st.floats(0.0, 30.0),
    "link.polarization_factor": st.floats(0.0, 1.0),
    "dv.mu": st.floats(0.05, 1.0),
    "dv.nu": st.floats(0.05, 1.0),
    "dv.misalignment": st.floats(0.0, 0.1),
    "dv.dark_count_per_pulse": st.floats(1e-9, 1e-5),
    "dv.eta_telecom": st.floats(0.1, 1.0),
    "dv.fast_detectors": st.booleans(),
    "dv.clock_hz": st.floats(1e6, 1e10),
    "cv.beta": st.floats(0.8, 1.0),
    "cv.electronic_noise": st.floats(0.0, 0.1),
    "cv.modulation_variance_snu": st.none() | st.floats(0.5, 50.0),
    "cv.clock_hz": st.floats(0.0, 1e9),
}
# Ranges inside each swept variable's domain; True for a log grid.
FUZZ_GRIDS = {
    "coupling_loss_db": (0.0, 30.0, False),
    "L0_km": (0.0, 100.0, False),
    "psd_w_per_nm": (1e-8, 1e-3, True),
    "background_noise": (1e-10, 1e-4, True),
    "clock_rate_hz": (1e6, 1e10, True),
}
FUZZ_PAIRS = [(setup, protocol) for setup, protocols in sorted(_SETUP_PROTOCOLS.items())
              for protocol in sorted(protocols)]


@settings(max_examples=60, deadline=None)
@given(pair=st.sampled_from(FUZZ_PAIRS), variable=st.sampled_from(SWEEP_VARIABLES),
       points=st.integers(2, 10), overrides=st.fixed_dictionaries({}, optional=FUZZ_LEAVES))
def test_no_run_ends_in_a_traceback(tmp_path_factory, pair, variable, points, overrides):
    # a kind-valid config either sweeps to finite, non-negative rows or exits 2
    # with one error line; it never raises
    start, stop, log = FUZZ_GRIDS[variable]
    out = tmp_path_factory.mktemp("fuzz") / "rates.csv"
    args = ["sweep", "--setup", str(pair[0]), "--protocol", pair[1], "--var", variable,
            "--start", repr(start), "--stop", repr(stop), "--points", str(points),
            "--out", str(out), *(["--log"] if log else [])]
    for dotted, value in overrides.items():
        args += ["--set", f"{dotted}={json.dumps(value)}"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert not out.exists()
        return
    assert code == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert len(rows) == points
    assert all(math.isfinite(x) for row in rows for x in row)
    assert all(row[1] >= 0.0 and row[2] >= 0.0 for row in rows)
    # I_AB <= log2(1 + V_A) / 2 with V_A <= 100, the top of the search range;
    # a direct-detection key is at most one bit per pulse
    ceiling = 0.5 * math.log2(1.0 + 100.0) if pair[1] == "GG02" else 1.0
    assert all(row[1] <= ceiling for row in rows)


# The golden call and one coherent and one untrusted-measurement sweep.
DETERMINISM_CALLS = [
    ["sweep", "--setup", "2", "--protocol", "DS-BB84", "--var", "coupling_loss_db",
     "--start", "0", "--stop", "30", "--points", "4"],
    ["sweep", "--setup", "1", "--protocol", "GG02", "--var", "L0_km", "--start", "0",
     "--stop", "50", "--points", "11"],
    ["sweep", "--setup", "4", "--protocol", "MDI-DS", "--var", "L0_km", "--start", "0",
     "--stop", "50", "--points", "11"],
]


def _other_interpreters():
    """Each other CPython 3.10+ on PATH that starts, as ``python3.X``."""
    found = []
    for minor in range(10, 20):
        exe = shutil.which(f"python3.{minor}")
        if minor == sys.version_info.minor or exe is None:
            continue
        probe = subprocess.run([exe, "-c", "import sys; print(sys.version_info[1])"],
                               capture_output=True, text=True, timeout=60)
        if probe.returncode == 0 and probe.stdout.strip() == str(minor):
            found.append(exe)
    return found


def test_same_bytes_under_every_interpreter(tmp_path):
    # guards requires-python and the float sums whose order budget.py fixes
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.X (X >= 10) on PATH")
    expected = []
    for i, args in enumerate(DETERMINISM_CALLS):
        out = tmp_path / f"{i}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*args, "--out", str(out)]) == 0
        expected.append(out.read_bytes())
    code = (
        "import json, sys\n"
        "from qkd_access.cli import main\n"
        "for i, args in enumerate(json.loads(sys.argv[1])):\n"
        "    assert main([*args, '--out', f'{i}.csv']) == 0\n"
    )
    for exe in interpreters:
        cwd = tmp_path / pathlib.Path(exe).name
        cwd.mkdir()
        result = subprocess.run(
            [exe, "-c", code, json.dumps(DETERMINISM_CALLS)], capture_output=True, text=True,
            cwd=cwd, timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert result.returncode == 0, (exe, result.stderr)
        for i, want in enumerate(expected):
            assert (cwd / f"{i}.csv").read_bytes() == want, (exe, DETERMINISM_CALLS[i])
