"""The nominal operating point, declared once.

``DEFAULTS`` is the nominal network (32 users, 100 GHz DWDM grid in the C
band, 10 km feeder, 500 m drops) and the nominal device parameters, as the
nested dictionary that ``config`` merges overrides into.  Each model record
reads its fields from it through a ``KeyTable``, which ``config``'s
builders read again from a merged config, so the class defaults and the
builders name the same leaves.  This module imports nothing from the
package, so every model module can import it.
"""

from collections import namedtuple

__all__ = ["DEFAULTS"]

DEFAULTS: dict = {
    "case": 3,
    "room": {
        "x_m": 4.0, "y_m": 4.0, "z_m": 3.0, "fov_deg": 6.0, "concentrator_index": 1.5,
        "detector_area_m2": 1e-4, "filter_transmission": 1.0,
        # None -> case preset decides
        "tx_x_m": None, "tx_y_m": None, "tx_semi_angle_deg": None,
    },
    "bulb": {
        "psd_w_per_nm": 1e-5, "collection_factor": 2.4e-7, "filter_bandwidth_nm": 0.8,
        # direct override of the background count per pulse; None -> parametric model
        "n_b1_per_pulse": None,
    },
    "network": {
        "n_users": 32, "feeder_km": 10.0, "drop_km": 0.5, "awg_insertion_loss_db": 2.0,
        "attenuation_db_per_km": 0.2, "quantum_start_nm": 1555.62, "data_start_nm": 1585.2,
        "channel_spacing_nm": 0.8,  # 100 GHz in the C band
        "sensitivity_dbm": -38.5,  # guarantees the classical channels' target BER
        "rx_bandwidth_nm": 0.8,
        # explicit grids override the generated ones
        "quantum_nm": None, "data_nm": None,
    },
    "link": {"coupling_loss_db": 10.0, "polarization_factor": 0.5, "wireless_wavelength_nm": 880.0},
    "dv": {
        "mu": 0.5, "nu": 0.5, "sift_factor": 1.0, "ec_inefficiency": 1.16, "misalignment": 0.033,
        "dark_count_per_pulse": 1e-7, "gate_ps": 100.0, "eta_wireless": 0.6, "eta_telecom": 0.3,
        "fast_detectors": True, "clock_hz": 1e9,
    },
    "cv": {
        "beta": 0.95, "receiver_efficiency": 0.6, "electronic_noise": 0.015,
        "eps_receiver_measured": 0.002,
        "modulation_variance_snu": None,  # None -> optimize per operating point
        "clock_hz": 25e6,
    },
    "raman_table": {"path": None, "reference_pump_nm": 1550.0},  # path None -> built-in table
}


class KeyTable(dict):
    """A record's fields, each mapped to the dotted ``DEFAULTS`` keys it is read from.

    A field given as a dotted key is that leaf; one given as (key or keys,
    rule) is ``rule`` of those leaves.  The keys are split into paths once,
    here, and ``nominal`` is ``read(DEFAULTS)``, the record's class defaults.
    """

    def __init__(self, **fields):
        super().__init__()
        self._reads = []
        for field, entry in fields.items():
            keys, rule = (entry, None) if isinstance(entry, str) else entry
            self[field] = (keys,) if isinstance(keys, str) else keys
            self._reads.append((field, [tuple(key.split(".")) for key in self[field]], rule))
        self.nominal = self.read(DEFAULTS)

    def read(self, data: dict) -> dict:
        """Each field as the leaves of ``data``, a merged config, give it."""
        out = {}
        for field, paths, rule in self._reads:
            leaves = []
            for path in paths:
                leaf = data
                for key in path:
                    leaf = leaf[key]
                leaves.append(leaf)
            out[field] = leaves[0] if rule is None else rule(*leaves)
        return out


def keyed_record(name: str, keys: KeyTable, required: int = 0):
    """A namedtuple with ``keys``' fields, in order, and ``keys.nominal`` as the
    defaults of all but the first ``required``; ``KEYS`` is the table."""
    base = namedtuple(name, tuple(keys), defaults=tuple(keys.nominal.values())[required:])
    base.KEYS = keys
    return base


# The detection gate in seconds, as the detector and bulb records read it.
GATE_S = ("dv.gate_ps", lambda ps: ps * 1e-12)
