"""Command-line interface behavior and exit codes."""

import json

import pytest

from qkd_access.cli import main
from qkd_access.config import ConfigError, SimulationConfig


def run_cli(*args):
    return main(list(args))


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

    def test_set_does_not_leak_into_next_call(self, capsys):
        def sha():
            out = capsys.readouterr().out
            return next(line for line in out.splitlines() if line.startswith("config sha256"))

        assert run_cli("validate-config", "--set", "dv.mu=0.4") == 0
        with_set = sha()
        assert run_cli("validate-config") == 0
        assert sha() != with_set

    @pytest.mark.parametrize("pump", ['"abc"', "null", "0"])
    @pytest.mark.parametrize("command", [
        ("validate-config",),
        ("sweep", "--setup", "2", "--protocol", "DS-BB84", "--var", "L0_km", "--start", "1",
         "--stop", "30", "--points", "2"),
    ])
    def test_bad_reference_pump_fails(self, tmp_path, capsys, command, pump):
        table = tmp_path / "table.csv"
        lines = ["lambda_q_nm,gamma_per_km_nm"] + [f"{w:.1f},1.0e-11" for w in range(1300, 1801, 10)]
        table.write_text("\n".join(lines) + "\n")
        out = tmp_path / "rates.csv"
        args = (*command, "--out", str(out)) if command[0] == "sweep" else command
        code = run_cli(*args, "--table", str(table),
                       "--set", f"raman_table.reference_pump_nm={pump}")
        assert code == 2
        assert "reference_pump_nm must be a number > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_bulb_model_fails_with_fixed_count(self, capsys):
        # the bulb model is checked although the fixed count replaces it
        code = run_cli("validate-config", "--set", "bulb.n_b1_per_pulse=1e-4",
                       "--set", "bulb.psd_w_per_nm=-1")
        assert code == 2
        assert "PSD must be >= 0" in capsys.readouterr().err

    def test_non_string_table_path_rejected(self):
        # a JSON 0 would otherwise open file descriptor 0, standard input
        with pytest.raises(ConfigError, match="raman_table.path must be a file path"):
            SimulationConfig.from_dict({"raman_table": {"path": 0}})

    def test_set_overrides_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dv": {"mu": 0.4, "nu": 0.3}}))
        assert run_cli("validate-config", "--config", str(path), "--set", "dv.mu=0.25") == 0
        data = json.loads(capsys.readouterr().out.split("\n", 2)[2])
        assert (data["dv"]["mu"], data["dv"]["nu"]) == (0.25, 0.3)

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
        lines = ["lambda_q_nm,gamma_per_km_nm"] + [f"{w:.1f},1.0e-11" for w in range(1300, 1801, 10)]
        table.write_text("\n".join(lines) + "\n")
        out = tmp_path / "rates.csv"
        code = run_cli(
            "sweep", "--setup", "2", "--protocol", "DS-BB84", "--var", "L0_km",
            "--start", "1", "--stop", "30", "--points", "2", "--out", str(out),
            "--table", str(table),
        )
        assert code == 0


class TestNoiseCommand:
    def test_writes_breakdown(self, tmp_path):
        out = tmp_path / "noise.csv"
        code = run_cli("noise", "--setup", "2", "--l0-start", "1", "--l0-stop", "50",
                       "--points", "5", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[3].startswith("l0_km,")
        assert len(lines) == 3 + 1 + 5


class TestCrossoverCommand:
    def test_prints_clock(self, capsys):
        assert run_cli("crossover", "--set", "link.coupling_loss_db=5") == 0
        out = capsys.readouterr().out
        assert "crossover clock" in out
