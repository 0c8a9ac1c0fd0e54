"""Simulation configuration: file loading, overrides and object builders.

The configuration is a nested dictionary over ``defaults.DEFAULTS``, the
nominal operating point, so an empty config file reproduces it.  A JSON
file with the same nesting overrides any subset; CLI flags override single
keys by dotted path (``dv.mu=0.4``, a JSON value).  An override must have
its default's kind (``_KINDS``); a bad one's error starts with its dotted
key, and a value a model record rejects names the keys the record read.
``case`` selects one of the transmitter placements of ``owc.CASE_PRESETS``.
"""

from __future__ import annotations

import hashlib
import json
import sys

from .budget import DetectorParams, DwdmPlan
from .defaults import DEFAULTS
from .owc import CASE_PRESETS, BulbNoiseModel, RoomScenario
from .protocols import Bb84Params, Gg02Params, MdiParams
from .raman import RamanCrossSectionTable, TableRangeError, builtin_cross_section_table

__all__ = ["CASE_PRESETS", "MAX_USERS", "SimulationConfig", "ConfigError"]


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


# The most users ``network.n_users`` may generate: four times the 1:256
# logical split of XG-PON (ITU-T G.987).  ``plan()`` builds per-user tuples
# and every point sums over all users' channels, so an unbounded count
# would allocate gigabytes before any other check.  At the default 0.8 nm
# spacing the built-in Raman table binds first: it covers 221 users.
MAX_USERS = 1024


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

    # Each builder reads its record's fields through the record's ``KeyTable``
    # (``KEYS``), and a record's ValueError names every key the table read.

    def _build(self, make, *tables, data: dict | None = None, keys=(), **given):
        """``make`` of the fields that ``tables`` read from ``data`` (this config's by
        default), with ``given`` in their place where given.  A ValueError, but for a
        grid the Raman table does not cover, names the tables' keys and then ``keys``."""
        try:
            fields = {}
            for table in tables:
                fields.update(table.read(self.data if data is None else data))
            return make(**{**fields, **given})
        except TableRangeError:
            raise
        except ValueError as exc:
            *rest, last = dict.fromkeys([key for table in tables for entry in table.values()
                                         for key in entry] + list(keys))
            raise ConfigError(f"{exc}; change {', '.join(rest)} or {last}") from exc

    def scenario(self, case: int | None = None) -> RoomScenario:
        data = self.data if case is None else {**self.data, "case": case}
        if data["case"] not in CASE_PRESETS:
            raise ConfigError(f"case must be one of {sorted(CASE_PRESETS)}, got {data['case']}")
        return self._build(RoomScenario, RoomScenario.KEYS, data=data)

    def bulb_model(self, wavelength_nm: float) -> BulbNoiseModel:
        """The bulb seen at ``wavelength_nm``.  Only the room link's wavelength can be
        rejected here, as user 1's quantum one is checked with the plan, so an error
        also names ``link.wireless_wavelength_nm``."""
        return self._build(BulbNoiseModel, BulbNoiseModel.KEYS,
                           keys=("link.wireless_wavelength_nm",),
                           wavelength_m=wavelength_nm * 1e-9)

    @property
    def gate_s(self) -> float:
        return self.detectors().gate_s

    def plan(self) -> DwdmPlan:
        """The fiber plan, bound to the Raman table and the receiver bandwidth."""
        net = self.data["network"]
        explicit = net["quantum_nm"] is not None or net["data_nm"] is not None
        if explicit and (net["quantum_nm"] is None or net["data_nm"] is None):
            raise ConfigError("explicit grids need both network.quantum_nm and network.data_nm")
        n = len(net["quantum_nm"]) if explicit else net["n_users"]
        if not explicit and not 1 <= n <= MAX_USERS:
            raise ConfigError(f"network.n_users must be in [1, {MAX_USERS}], got {n}")
        given = dict(raman_table=self.raman_table(), drop_km=(net["drop_km"],) * n)
        try:
            if explicit:
                return self._build(DwdmPlan, DwdmPlan.KEYS, quantum_nm=tuple(net["quantum_nm"]),
                                   data_nm=tuple(net["data_nm"]),
                                   keys=("network.quantum_nm", "network.data_nm"), **given)
            return self._build(DwdmPlan.from_grid, DwdmPlan.GRID_KEYS, DwdmPlan.KEYS, **given)
        except TableRangeError as exc:
            grid = ("network.quantum_nm and network.data_nm" if explicit else
                    "network.n_users, network.channel_spacing_nm, network.quantum_start_nm, "
                    "network.data_start_nm")
            raise ConfigError(f"{exc}; change {grid} or raman_table.path") from None

    def detectors(self) -> DetectorParams:
        return self._build(DetectorParams, DetectorParams.KEYS)

    def bb84_params(self) -> Bb84Params:
        return self._build(Bb84Params, Bb84Params.KEYS)

    def mdi_params(self) -> MdiParams:
        return self._build(MdiParams, MdiParams.KEYS)

    def gg02_params(self) -> Gg02Params:
        return self._build(Gg02Params, Gg02Params.KEYS)

    def raman_table(self) -> RamanCrossSectionTable:
        source = self.data["raman_table"]
        if source["path"] is None:
            return builtin_cross_section_table()
        return RamanCrossSectionTable.from_csv_file(source["path"], source["reference_pump_nm"])
