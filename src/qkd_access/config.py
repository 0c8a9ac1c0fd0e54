"""Simulation configuration: defaults, file loading, and object builders.

The configuration is a nested dictionary whose defaults encode the nominal
network (32 users, 100 GHz DWDM grid in the C band, 10 km feeder, 500 m
drops) and the nominal device parameters, so an empty config file
reproduces the reference operating point.  A JSON file with the same
nesting overrides any subset; CLI flags override single keys by dotted
path (``dv.mu=0.4``).

Three transmitter placements are selected by ``case``:

* 1 -- centre of the floor, 20 degree half-power semi-angle;
* 2 -- corner of the room, same beam;
* 3 -- corner of the room, 1 degree beam aimed at the receiver.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass

from .budget import DetectorParams, DwdmPlan
from .numerics import AttenuationCoefficient
from .owc import BulbNoiseModel, RoomScenario
from .protocols import Bb84Params, Gg02Params, MdiParams
from .raman import RamanCrossSectionTable, builtin_cross_section_table

__all__ = ["DEFAULTS", "CASE_PRESETS", "SimulationConfig", "ConfigError"]


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


# (tx_x fraction of room x, tx_y fraction of room y, semi-angle in degrees)
CASE_PRESETS = {
    1: {"tx_frac": (0.5, 0.5), "semi_angle_deg": 20.0},
    2: {"tx_frac": (0.0, 0.0), "semi_angle_deg": 20.0},
    3: {"tx_frac": (0.0, 0.0), "semi_angle_deg": 1.0},
}

DEFAULTS: dict = {
    "case": 3,
    "room": {
        "x_m": 4.0,
        "y_m": 4.0,
        "z_m": 3.0,
        "fov_deg": 6.0,
        "concentrator_index": 1.5,
        "detector_area_m2": 1e-4,
        "filter_transmission": 1.0,
        # None -> case preset decides
        "tx_x_m": None,
        "tx_y_m": None,
        "tx_semi_angle_deg": None,
    },
    "bulb": {
        "psd_w_per_nm": 1e-5,
        "collection_factor": 2.4e-7,
        "filter_bandwidth_nm": 0.8,
        # direct override of the background count per pulse; None -> parametric model
        "n_b1_per_pulse": None,
    },
    "network": {
        "n_users": 32,
        "feeder_km": 10.0,
        "drop_km": 0.5,
        "awg_insertion_loss_db": 2.0,
        "attenuation_db_per_km": 0.2,
        "quantum_start_nm": 1555.62,
        "data_start_nm": 1585.2,
        "channel_spacing_nm": 0.8,
        "sensitivity_dbm": -38.5,
        "rx_bandwidth_nm": 0.8,
        # explicit grids override the generated ones
        "quantum_nm": None,
        "data_nm": None,
    },
    "link": {
        "coupling_loss_db": 10.0,
        "polarization_factor": 0.5,
        "wireless_wavelength_nm": 880.0,
    },
    "dv": {
        "mu": 0.5,
        "nu": 0.5,
        "sift_factor": 1.0,
        "ec_inefficiency": 1.16,
        "misalignment": 0.033,
        "dark_count_per_pulse": 1e-7,
        "gate_ps": 100.0,
        "eta_wireless": 0.6,
        "eta_telecom": 0.3,
        "fast_detectors": True,
        "clock_hz": 1e9,
    },
    "cv": {
        "beta": 0.95,
        "receiver_efficiency": 0.6,
        "electronic_noise": 0.015,
        "eps_receiver_measured": 0.002,
        # None -> optimize per operating point
        "modulation_variance_snu": None,
        "clock_hz": 25e6,
    },
    "raman_table": {
        "path": None,  # None -> built-in table
        "reference_pump_nm": 1550.0,
    },
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown configuration key: {here}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, here)
        elif isinstance(base[key], dict):
            raise ConfigError(f"{here} must be a section, got {value!r}")
        else:
            out[key] = value
    return out


def _parse_override_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def read_overrides(path: str | None) -> dict:
    """The JSON object in the config file at ``path`` ({} for None), unmerged."""
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            overrides = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return overrides


def apply_assignments(overrides: dict, assignments: list[str]) -> dict:
    """``overrides`` with ``section.key=value`` assignments set in place, later ones winning.

    Paths are checked against ``DEFAULTS``; the result is still to be merged
    by ``SimulationConfig.from_dict``.
    """
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, text = item.split("=", 1)
        *sections, leaf = dotted.strip().split(".")
        node, default = overrides, DEFAULTS
        for key in sections:
            if not isinstance(default.get(key), dict):
                raise ConfigError(f"unknown configuration section: {dotted}")
            default = default[key]
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"{key} must be a section, got {node!r}")
        if leaf not in default:
            raise ConfigError(f"unknown configuration key: {dotted}")
        node[leaf] = _parse_override_value(text)
    return overrides


def _non_finite(node, path: str = "") -> str | None:
    """Dotted path of the first NaN or infinite number in ``node``, or None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else path
    if isinstance(node, dict):
        items = ((f"{path}.{key}" if path else key, value) for key, value in node.items())
    elif isinstance(node, (list, tuple)):
        items = ((f"{path}[{i}]", value) for i, value in enumerate(node))
    else:
        return None
    for here, value in items:
        bad = _non_finite(value, here)
        if bad is not None:
            return bad
    return None


@dataclass
class SimulationConfig:
    """Validated configuration plus builders for the model objects.

    The builders ``raman_table()``, ``plan()``, ``scenario()``,
    ``detectors()`` and ``bulb_model()`` build a new object from ``data`` on
    every call; a sweep calls them once per run (see ``sweep``).
    """

    data: dict

    @classmethod
    def from_dict(cls, overrides: dict | None = None) -> "SimulationConfig":
        merged = _merge(DEFAULTS, overrides or {})
        cfg = cls(merged)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str | None) -> "SimulationConfig":
        return cls.from_dict(read_overrides(path))

    def override(self, assignments: list[str]) -> "SimulationConfig":
        """New config with ``section.key=value`` assignments applied."""
        return SimulationConfig.from_dict(apply_assignments(copy.deepcopy(self.data), assignments))

    def validate(self):
        bad = _non_finite(self.data)
        if bad is not None:
            raise ConfigError(f"{bad} must be a finite number")
        try:
            self.scenario()  # also rejects an unknown case
            self.plan()
            self.detectors()
            self.bb84_params()
            self.mdi_params()
            self.gg02_params()
            self.bulb_model(1550.0)  # checked also when n_b1_per_pulse fixes the count
            n_b1 = self.data["bulb"]["n_b1_per_pulse"]
            if n_b1 is not None and n_b1 < 0:
                raise ConfigError("bulb.n_b1_per_pulse must be >= 0")
            if self.data["link"]["coupling_loss_db"] < 0:
                raise ConfigError("link.coupling_loss_db must be >= 0")
            if self.data["dv"]["clock_hz"] <= 0 or self.data["cv"]["clock_hz"] < 0:
                raise ConfigError("clock rates must be positive")
            table = self.data["raman_table"]
            if table["path"] is not None and not isinstance(table["path"], str):
                raise ConfigError(f"raman_table.path must be a file path, got {table['path']!r}")
            pump = table["reference_pump_nm"]
            if isinstance(pump, bool) or not isinstance(pump, (int, float)) or pump <= 0:
                raise ConfigError(
                    f"raman_table.reference_pump_nm must be a number > 0, got {pump!r}"
                )
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def canonical_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json.encode()).hexdigest()

    # ---- builders -------------------------------------------------------

    def scenario(self, case: int | None = None) -> RoomScenario:
        case = self.data["case"] if case is None else case
        room = self.data["room"]
        if case not in CASE_PRESETS:
            raise ConfigError(f"case must be one of {sorted(CASE_PRESETS)}, got {case}")
        preset = CASE_PRESETS[case]
        tx_x = room["tx_x_m"]
        tx_y = room["tx_y_m"]
        semi = room["tx_semi_angle_deg"]
        return RoomScenario(
            room_x_m=room["x_m"],
            room_y_m=room["y_m"],
            room_z_m=room["z_m"],
            tx_x_m=preset["tx_frac"][0] * room["x_m"] if tx_x is None else tx_x,
            tx_y_m=preset["tx_frac"][1] * room["y_m"] if tx_y is None else tx_y,
            tx_semi_angle_deg=preset["semi_angle_deg"] if semi is None else semi,
            rx_fov_deg=room["fov_deg"],
            concentrator_index=room["concentrator_index"],
            detector_area_m2=room["detector_area_m2"],
            filter_transmission=room["filter_transmission"],
            case=case,
        )

    def bulb_model(self, wavelength_nm: float) -> BulbNoiseModel:
        bulb = self.data["bulb"]
        return BulbNoiseModel(
            psd_w_per_nm=bulb["psd_w_per_nm"],
            filter_bandwidth_nm=bulb["filter_bandwidth_nm"],
            gate_s=self.gate_s,
            wavelength_m=wavelength_nm * 1e-9,
            collection_factor=bulb["collection_factor"],
        )

    @property
    def gate_s(self) -> float:
        return self.data["dv"]["gate_ps"] * 1e-12

    def plan(self) -> DwdmPlan:
        net = self.data["network"]
        attenuation = AttenuationCoefficient(net["attenuation_db_per_km"])
        common = dict(
            feeder_km=net["feeder_km"],
            awg_insertion_loss_db=net["awg_insertion_loss_db"],
            attenuation=attenuation,
            sensitivity_dbm=net["sensitivity_dbm"],
        )
        if net["quantum_nm"] is not None or net["data_nm"] is not None:
            if net["quantum_nm"] is None or net["data_nm"] is None:
                raise ConfigError("explicit grids need both network.quantum_nm and network.data_nm")
            quantum = tuple(net["quantum_nm"])
            data = tuple(net["data_nm"])
            drops = (net["drop_km"],) * len(quantum)
            return DwdmPlan(quantum_nm=quantum, data_nm=data, drop_km=drops, **common)
        n = net["n_users"]
        return DwdmPlan.from_grid(
            n_users=n,
            quantum_start_nm=net["quantum_start_nm"],
            data_start_nm=net["data_start_nm"],
            spacing_nm=net["channel_spacing_nm"],
            drop_km=(net["drop_km"],) * n,
            **common,
        )

    def detectors(self) -> DetectorParams:
        dv = self.data["dv"]
        return DetectorParams(
            eta_wireless=dv["eta_wireless"],
            eta_telecom=dv["eta_telecom"],
            dark_count_per_pulse=dv["dark_count_per_pulse"],
            gate_s=self.gate_s,
        )

    def bb84_params(self) -> Bb84Params:
        dv = self.data["dv"]
        return Bb84Params(
            mu=dv["mu"],
            sift_factor=dv["sift_factor"],
            ec_inefficiency=dv["ec_inefficiency"],
            misalignment=dv["misalignment"],
        )

    def mdi_params(self) -> MdiParams:
        dv = self.data["dv"]
        return MdiParams(
            mu=dv["mu"],
            nu=dv["nu"],
            sift_factor=dv["sift_factor"],
            ec_inefficiency=dv["ec_inefficiency"],
            misalignment=dv["misalignment"],
            fast_detectors=dv["fast_detectors"],
        )

    def gg02_params(self) -> Gg02Params:
        cv = self.data["cv"]
        return Gg02Params(
            modulation_variance=cv["modulation_variance_snu"],
            beta=cv["beta"],
            receiver_efficiency=cv["receiver_efficiency"],
            electronic_noise=cv["electronic_noise"],
        )

    def raman_table(self) -> RamanCrossSectionTable:
        source = self.data["raman_table"]
        if source["path"] is None:
            return builtin_cross_section_table()
        return RamanCrossSectionTable.from_csv_file(source["path"], source["reference_pump_nm"])
