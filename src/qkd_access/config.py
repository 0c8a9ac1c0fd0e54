"""Simulation configuration: defaults, file loading, and object builders.

The configuration is a nested dictionary whose defaults encode the nominal
network (32 users, 100 GHz DWDM grid in the C band, 10 km feeder, 500 m
drops) and the nominal device parameters, so an empty config file
reproduces the reference operating point.  A JSON file with the same
nesting overrides any subset; CLI flags override single keys by dotted
path (``dv.mu=0.4``, a JSON value).  An override must have its default's
kind (``_KINDS``); a bad one's error starts with its dotted key.  ``case``
selects one of the transmitter placements of ``owc.CASE_PRESETS``.
"""

from __future__ import annotations

import hashlib
import json
import sys

from .budget import DetectorParams, DwdmPlan
from .numerics import AttenuationCoefficient
from .owc import CASE_PRESETS, BulbNoiseModel, RoomScenario
from .protocols import Bb84Params, Gg02Params, MdiParams
from .raman import RamanCrossSectionTable, TableRangeError, builtin_cross_section_table

__all__ = ["DEFAULTS", "CASE_PRESETS", "MAX_USERS", "SimulationConfig", "ConfigError"]


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


# The most users ``network.n_users`` may generate: four times the 1:256
# logical split of XG-PON (ITU-T G.987).  ``plan()`` builds per-user tuples
# and every point sums over all users' channels, so an unbounded count
# would allocate gigabytes before any other check.  At the default 0.8 nm
# spacing the built-in Raman table binds first: it covers 221 users.
MAX_USERS = 1024


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


def _finite(value) -> bool:
    """An int or float, not a bool, within float range: not NaN, inf or a 400-digit int."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and (
        abs(value) <= sys.float_info.max)


# Each leaf kind's name and test.  A leaf takes its default's kind, and a leaf
# whose default is None takes null or the kind that ``_NULL_LEAF_KINDS`` declares.
_KINDS = {
    bool: ("a boolean", lambda value: isinstance(value, bool)),
    int: ("an integer", lambda value: isinstance(value, int) and _finite(value)),
    float: ("a finite number", _finite),
    list: ("a list of finite numbers", lambda value: isinstance(value, (list, tuple))
           and all(map(_finite, value))),
    str: ("a file path", lambda value: isinstance(value, str)),
}
_NULL_LEAF_KINDS = {
    "room.tx_x_m": float, "room.tx_y_m": float, "room.tx_semi_angle_deg": float,
    "bulb.n_b1_per_pulse": float, "cv.modulation_variance_snu": float,
    "network.quantum_nm": list, "network.data_nm": list, "raman_table.path": str,
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    """``base`` with ``override`` merged in, as a new dict.

    Each key of ``override`` must name a section of ``base`` where it holds
    a dict, and else a value of ``base`` whose kind it has; errors name the
    dotted key.  The sections of ``base`` are copied and its leaves shared:
    every ``DEFAULTS`` leaf is an immutable scalar, None or bool, so editing
    the result in place never reaches ``base``.
    """
    out = {key: dict(value) if isinstance(value, dict) else value for key, value in base.items()}
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown configuration key: {here}")
        if isinstance(base[key], dict) != isinstance(value, dict):
            kind = "a section" if isinstance(base[key], dict) else "a value"
            raise ConfigError(f"{here} must be {kind}, got {value!r}")
        if not isinstance(value, dict):
            kind, fits = _KINDS[_NULL_LEAF_KINDS[here] if base[key] is None else type(base[key])]
            if not (fits(value) or base[key] is None and value is None):
                raise ConfigError(f"{here} must be {kind}, got {value!r}")
        out[key] = _merge(base[key], value, here) if isinstance(value, dict) else value
    return out


def read_overrides(path: str | None) -> dict:
    """The JSON object in the config file at ``path`` ({} for None), unmerged."""
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            overrides = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        except ValueError as exc:  # e.g. an integer too long to convert
            raise ConfigError(f"config file {path}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return overrides


def apply_assignments(overrides: dict, assignments: list[str]) -> dict:
    """``overrides`` with ``section.key=value`` assignments set in place, later ones winning.

    The result is still to be merged by ``SimulationConfig.from_dict``,
    which checks each path and kind.
    """
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, text = item.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text  # a bare word is a string
        except ValueError as exc:  # e.g. an integer too long to convert
            raise ConfigError(f"{dotted.strip()}: {exc}") from exc
        set_leaf(overrides, dotted, value)
    return overrides


def set_leaf(overrides: dict, dotted: str, value) -> None:
    """Set ``overrides[section]...[key] = value`` for a dotted path, unchecked until merged."""
    *sections, leaf = keys = dotted.strip().split(".")
    if not all(keys):
        raise ConfigError(f"override key must look like section.key, got {dotted!r}")
    node = overrides
    for key in sections:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{key} must be a section, got {node!r}")
    node[leaf] = value


class SimulationConfig:
    """Validated configuration plus builders for the model objects.

    The builders ``raman_table()``, ``plan()``, ``scenario()``,
    ``detectors()`` and ``bulb_model()`` build a new object from ``data`` on
    every call, except that the built-in Raman table is parsed once per
    process; a sweep calls them once per run (see ``sweep``).  ``from_dict``
    builds every model object to validate the config and keeps none: a run
    builds what it reads again, so that an edit of ``data`` reaches the
    next run.  Two configs are equal when their ``data`` is; a config is
    not hashable.
    """

    def __init__(self, data: dict):
        self.data = data

    def __eq__(self, other):
        return self.data == other.data if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(data={self.data!r})"

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
        import copy  # no other path needs it

        return SimulationConfig.from_dict(apply_assignments(copy.deepcopy(self.data), assignments))

    def validate(self):
        try:
            # the keyed leaf checks first: ``plan()`` also reads these leaves
            n_b1 = self.data["bulb"]["n_b1_per_pulse"]
            if n_b1 is not None and n_b1 < 0:
                raise ConfigError("bulb.n_b1_per_pulse must be >= 0")
            if self.data["link"]["coupling_loss_db"] < 0:
                raise ConfigError("link.coupling_loss_db must be >= 0")
            if self.data["network"]["rx_bandwidth_nm"] <= 0:
                raise ConfigError("network.rx_bandwidth_nm must be > 0")
            if self.data["dv"]["clock_hz"] <= 0:
                raise ConfigError("dv.clock_hz must be > 0")
            if self.data["cv"]["clock_hz"] < 0:
                raise ConfigError("cv.clock_hz must be >= 0")
            if not 0 <= self.data["link"]["polarization_factor"] <= 1:
                raise ConfigError("link.polarization_factor must be in [0, 1]")
            if self.data["raman_table"]["reference_pump_nm"] <= 0:
                raise ConfigError("raman_table.reference_pump_nm must be > 0")
            self.scenario()  # also rejects an unknown case
            self.plan()  # also loads the Raman table and checks that it covers the grid
            self.detectors()
            self.bb84_params()
            self.mdi_params()
            self.gg02_params()
            # checked also when n_b1_per_pulse fixes the count
            self.bulb_model(self.data["link"]["wireless_wavelength_nm"])
        except ConfigError:
            raise
        except ValueError as exc:
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
        """The fiber plan, bound to the Raman table and the receiver bandwidth."""
        net = self.data["network"]
        explicit = net["quantum_nm"] is not None or net["data_nm"] is not None
        if explicit and (net["quantum_nm"] is None or net["data_nm"] is None):
            raise ConfigError("explicit grids need both network.quantum_nm and network.data_nm")
        n = len(net["quantum_nm"]) if explicit else net["n_users"]
        if not explicit and not 1 <= n <= MAX_USERS:
            raise ConfigError(f"network.n_users must be in [1, {MAX_USERS}], got {n}")
        common = dict(
            raman_table=self.raman_table(),
            rx_bandwidth_nm=net["rx_bandwidth_nm"],
            feeder_km=net["feeder_km"],
            drop_km=(net["drop_km"],) * n,
            awg_insertion_loss_db=net["awg_insertion_loss_db"],
            attenuation=AttenuationCoefficient(net["attenuation_db_per_km"]),
            sensitivity_dbm=net["sensitivity_dbm"],
        )
        try:
            if explicit:
                return DwdmPlan(quantum_nm=tuple(net["quantum_nm"]), data_nm=tuple(net["data_nm"]),
                                **common)
            return DwdmPlan.from_grid(
                n_users=n,
                quantum_start_nm=net["quantum_start_nm"],
                data_start_nm=net["data_start_nm"],
                spacing_nm=net["channel_spacing_nm"],
                **common,
            )
        except TableRangeError as exc:
            grid = ("network.quantum_nm and network.data_nm" if explicit else
                    "network.n_users, network.channel_spacing_nm, network.quantum_start_nm, "
                    "network.data_start_nm")
            raise ConfigError(f"{exc}; change {grid} or raman_table.path") from None

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
