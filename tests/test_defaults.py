"""The nominal operating point is declared once, in ``DEFAULTS``.

Each model record reads its fields through a ``KeyTable`` (``KEYS``), and
its class defaults are those fields read from ``DEFAULTS``.  These tests
recompute every default from the ``DEFAULTS`` leaves themselves, the derived
ones by their rule, so a default restated anywhere else fails here.
"""

import inspect

import pytest

import qkd_access
from qkd_access import budget, cli, config, defaults, owc
from qkd_access.budget import DetectorParams, DwdmPlan, MdiLinkBudget
from qkd_access.defaults import DEFAULTS
from qkd_access.numerics import AttenuationCoefficient
from qkd_access.owc import CASE_PRESETS, BulbNoiseModel, RoomScenario
from qkd_access.protocols import Bb84Params, Gg02Params, MdiParams, gg02
from qkd_access.raman import builtin_cross_section_table


def leaf(dotted):
    node = DEFAULTS
    for key in dotted.split("."):
        node = node[key]
    return node


PRESET = CASE_PRESETS[DEFAULTS["case"]]
# Each derived field's rule, written out again from the leaves.
DERIVED = {
    "gate_s": lambda: leaf("dv.gate_ps") * 1e-12,
    "wavelength_m": lambda: leaf("network.quantum_start_nm") * 1e-9,
    "tx_x_m": lambda: PRESET["tx_frac"][0] * leaf("room.x_m"),
    "tx_y_m": lambda: PRESET["tx_frac"][1] * leaf("room.y_m"),
    "tx_semi_angle_deg": lambda: PRESET["semi_angle_deg"],
    "attenuation": lambda: AttenuationCoefficient(leaf("network.attenuation_db_per_km")),
}
# The fields a record takes without a default.
REQUIRED = {"psd_w_per_nm", "rx_bandwidth_nm"}

# (the constructor whose signature holds the defaults, the record's table)
RECORDS = [(record.__new__, record.KEYS) for record in (
    DetectorParams, RoomScenario, BulbNoiseModel, Bb84Params, MdiParams, Gg02Params, DwdmPlan)]
RECORDS.append((DwdmPlan.from_grid, DwdmPlan.GRID_KEYS))


def same(a, b):
    return type(a) is type(b) and repr(a) == repr(b)


@pytest.mark.parametrize("make,table", RECORDS,
                         ids=[make.__qualname__.split(".")[0] + ("" if make.__name__ == "__new__"
                              else ".from_grid") for make, _ in RECORDS])
def test_class_defaults_are_the_defaults_leaves(make, table):
    parameters = inspect.signature(make).parameters
    for field, keys in table.items():
        default = parameters[field].default
        if field in REQUIRED:
            assert default is inspect.Parameter.empty, field
        elif field == "drop_km":
            assert default == ()  # one nominal drop per user, see below
        elif field in DERIVED:
            assert same(default, DERIVED[field]()), field
        else:
            assert keys == (keys[0],) and same(default, leaf(keys[0])), field


def test_empty_drops_are_the_nominal_drop():
    plan = DwdmPlan.from_grid(raman_table=builtin_cross_section_table(), rx_bandwidth_nm=0.8)
    assert plan.drop_km == (leaf("network.drop_km"),) * leaf("network.n_users")


@pytest.mark.parametrize("function,parameter,key", [
    (budget.launch_power, "sensitivity_dbm", "network.sensitivity_dbm"),
    (budget.budget_setup2, "coupling_loss_db", "link.coupling_loss_db"),
    (budget.budget_setup3, "coupling_loss_db", "link.coupling_loss_db"),
    (budget.budget_setup3, "polarization_factor", "link.polarization_factor"),
    (budget.budget_setup4, "coupling_loss_db", "link.coupling_loss_db"),
    (budget.budget_setup4, "polarization_factor", "link.polarization_factor"),
    (MdiLinkBudget, "polarization_factor", "link.polarization_factor"),
    (budget.cv_budget, "coupling_loss_db", "link.coupling_loss_db"),
    (budget.cv_budget, "receiver_efficiency", "cv.receiver_efficiency"),
    (budget.cv_budget, "eps_receiver_measured", "cv.eps_receiver_measured"),
    (budget.cv_budget, "gate_s", None),
    (gg02.mutual_information, "receiver_eff", "cv.receiver_efficiency"),
    (gg02.mutual_information, "electronic", "cv.electronic_noise"),
    (gg02.holevo_bound, "receiver_eff", "cv.receiver_efficiency"),
    (gg02.holevo_bound, "electronic", "cv.electronic_noise"),
    (owc.los_gain_from_angles, "filter_transmission", "room.filter_transmission"),
])
def test_function_defaults_are_the_defaults_leaves(function, parameter, key):
    default = inspect.signature(function).parameters[parameter].default
    assert same(default, DERIVED[parameter]() if key is None else leaf(key))


def test_records_default_to_what_an_empty_config_builds():
    cfg = config.SimulationConfig.from_dict({})
    assert RoomScenario() == cfg.scenario()  # the configured case 3, not case 1
    assert RoomScenario().case == DEFAULTS["case"] == 3
    assert DetectorParams() == cfg.detectors()
    assert Bb84Params() == cfg.bb84_params()
    assert MdiParams() == cfg.mdi_params()
    assert Gg02Params() == cfg.gg02_params()
    psd = leaf("bulb.psd_w_per_nm")
    assert BulbNoiseModel(psd) == cfg.bulb_model(leaf("network.quantum_start_nm"))
    assert DwdmPlan.from_grid(raman_table=builtin_cross_section_table(),
                              rx_bandwidth_nm=leaf("network.rx_bandwidth_nm")) == cfg.plan()


def test_defaults_is_one_object_declared_once():
    assert config.DEFAULTS is defaults.DEFAULTS is qkd_access.DEFAULTS
    owners = [name for name in ("budget", "config", "defaults", "numerics", "owc", "protocols",
                                "raman", "sweep")
              if "DEFAULTS" in getattr(qkd_access, name).__all__]
    assert owners == ["defaults"]


@pytest.mark.parametrize("assignment,key", [
    ("dv.dark_count_per_pulse=2", "dv.dark_count_per_pulse"),
    ("dv.mu=-1", "dv.mu"),
    ("network.awg_insertion_loss_db=-1", "network.awg_insertion_loss_db"),
    ("room.fov_deg=200", "room.fov_deg"),
    ("cv.beta=2", "cv.beta"),
    ("bulb.psd_w_per_nm=-1", "bulb.psd_w_per_nm"),
    ("network.drop_km=-1", "network.drop_km"),
    ("link.wireless_wavelength_nm=-5", "link.wireless_wavelength_nm"),
])
def test_a_rejected_value_names_its_key(capsys, assignment, key):
    assert cli.main(["validate-config", "--set", assignment]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err.split("; change ", 1)[1].replace(" or ", ", ").strip().split(", ")
