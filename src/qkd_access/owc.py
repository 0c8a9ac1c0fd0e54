"""Indoor optical-wireless channel model.

Line-of-sight transmittance of a Lambertian source seen by a ceiling
receiver with a non-imaging concentrator, plus a parametric estimate of
the background photon count contributed by the room's artificial light
source.

Three transmitter placements are supported:

* case 1 -- transmitter at the centre of the floor, wide beam, pointing up;
* case 2 -- same transmitter moved to a corner of the room, still pointing up;
* case 3 -- transmitter in the corner with a narrow beam aimed straight at
  the receiver.

In every case the receiver sits at the centre of the ceiling and its
telescope is dynamically steered onto the source, so the incidence angle
relative to the receiver axis is zero.
"""

from __future__ import annotations

import math

from .defaults import DEFAULTS, GATE_S, KeyTable, keyed_record
from .numerics import LIGHTSPEED_M_S, PLANCK_J_S


__all__ = [
    "CASE_PRESETS",
    "RoomScenario",
    "BulbNoiseModel",
    "lambertian_order",
    "concentrator_gain",
    "los_gain_from_angles",
    "los_dc_gain",
    "bulb_noise_count",
]

# case -> (tx_x fraction of room x, tx_y fraction of room y, semi-angle in degrees)
CASE_PRESETS = {
    1: {"tx_frac": (0.5, 0.5), "semi_angle_deg": 20.0},
    2: {"tx_frac": (0.0, 0.0), "semi_angle_deg": 20.0},
    3: {"tx_frac": (0.0, 0.0), "semi_angle_deg": 1.0},
}


def lambertian_order(semi_angle_deg: float) -> float:
    """Lambertian mode number of a source with the given half-power semi-angle.

    m = -ln 2 / ln(cos(semi_angle)).  A 60 degree semi-angle gives m = 1
    (ideal Lambertian); narrow beams give large m.
    """
    if not 0.0 < semi_angle_deg < 90.0:
        raise ValueError(f"semi-angle must be in (0, 90) degrees, got {semi_angle_deg}")
    return -math.log(2.0) / math.log(math.cos(math.radians(semi_angle_deg)))


def concentrator_gain(incidence_deg: float, fov_deg: float, refractive_index: float) -> float:
    """Gain of an ideal non-imaging concentrator.

    n^2 / sin^2(FOV) for incidence angles inside the field of view, zero
    outside.
    """
    if incidence_deg < 0.0:
        raise ValueError(f"incidence angle must be >= 0, got {incidence_deg}")
    if incidence_deg > fov_deg:
        return 0.0
    s = math.sin(math.radians(fov_deg))
    return refractive_index**2 / (s * s)


def los_gain_from_angles(
    distance_m: float,
    order: float,
    area_m2: float,
    irradiance_deg: float,
    incidence_deg: float,
    fov_deg: float,
    refractive_index: float,
    filter_transmission: float = DEFAULTS["room"]["filter_transmission"],
) -> float:
    """Line-of-sight DC gain for explicit geometry angles.

    H = A (m+1) / (2 pi d^2) * cos^m(irradiance) * T_s * g(incidence)
        * cos(incidence)
    for incidence angles within the field of view, zero otherwise.  The
    result is clamped to [0, 1]: with a narrow source and a high-gain
    concentrator the formula can exceed unity at short range, which is
    unphysical for a passive channel.
    """
    if distance_m <= 0.0:
        raise ValueError(f"transmitter-receiver distance must be > 0, got {distance_m}")
    if incidence_deg > fov_deg:
        return 0.0
    gain = (
        area_m2
        * (order + 1.0)
        / (2.0 * math.pi * distance_m**2)
        * math.cos(math.radians(irradiance_deg)) ** order
        * filter_transmission
        * concentrator_gain(incidence_deg, fov_deg, refractive_index)
        * math.cos(math.radians(incidence_deg))
    )
    return min(max(gain, 0.0), 1.0)


def _placed(axis: int):
    """The transmitter's coordinate on ``axis``: its room leaf, or when that is
    None the case preset's fraction of the room's extent."""
    return lambda tx, extent, case: (CASE_PRESETS[case]["tx_frac"][axis] * extent if tx is None
                                     else tx)


class RoomScenario(keyed_record("RoomScenario", KeyTable(
    room_x_m="room.x_m", room_y_m="room.y_m", room_z_m="room.z_m",
    tx_x_m=(("room.tx_x_m", "room.x_m", "case"), _placed(0)),
    tx_y_m=(("room.tx_y_m", "room.y_m", "case"), _placed(1)),
    tx_semi_angle_deg=(("room.tx_semi_angle_deg", "case"),
                       lambda semi, case: CASE_PRESETS[case]["semi_angle_deg"] if semi is None
                       else semi),
    rx_fov_deg="room.fov_deg", concentrator_index="room.concentrator_index",
    detector_area_m2="room.detector_area_m2", filter_transmission="room.filter_transmission",
    case="case",
))):
    """Room geometry and transceiver placement for one of the three cases.

    The transmitter sits on the floor at (tx_x_m, tx_y_m, 0); the receiver
    is fixed at the ceiling centre (room_x_m/2, room_y_m/2, room_z_m).  The
    defaults are the configured case's placement (case 3).
    """

    __slots__ = ()

    def __init__(self, *_, **__):
        if self.case not in CASE_PRESETS:
            raise ValueError(f"case must be one of {sorted(CASE_PRESETS)}, got {self.case}")
        if not 0.0 < self.tx_semi_angle_deg < 90.0:
            raise ValueError(f"source semi-angle out of range: {self.tx_semi_angle_deg}")
        if not 0.0 < self.rx_fov_deg < 90.0:
            raise ValueError(f"receiver FOV out of range: {self.rx_fov_deg}")
        if self.concentrator_index < 1.0:
            raise ValueError(f"concentrator index must be >= 1, got {self.concentrator_index}")
        if self.detector_area_m2 <= 0.0:
            raise ValueError(f"detector area must be > 0, got {self.detector_area_m2}")
        if not 0.0 < self.filter_transmission <= 1.0:
            raise ValueError(f"filter transmission must be in (0, 1], got {self.filter_transmission}")
        if not (0.0 <= self.tx_x_m <= self.room_x_m and 0.0 <= self.tx_y_m <= self.room_y_m):
            raise ValueError("transmitter must lie inside the room footprint")
        if min(self.room_x_m, self.room_y_m, self.room_z_m) <= 0.0:
            raise ValueError("room dimensions must be positive")

    @property
    def rx_position_m(self) -> tuple[float, float, float]:
        return (self.room_x_m / 2.0, self.room_y_m / 2.0, self.room_z_m)

    @property
    def distance_m(self) -> float:
        """Transmitter-receiver separation."""
        rx, ry, rz = self.rx_position_m
        return math.sqrt((rx - self.tx_x_m) ** 2 + (ry - self.tx_y_m) ** 2 + rz**2)

    @property
    def irradiance_deg(self) -> float:
        """Angle between the source axis and the line to the receiver.

        Cases 1 and 2 point the source straight up, so this is the angle
        of the transmitter-receiver line from vertical.  Case 3 aims the
        source at the receiver, making the irradiance angle zero.
        """
        if self.case == 3:
            return 0.0
        return math.degrees(math.acos(self.room_z_m / self.distance_m))

    @property
    def incidence_deg(self) -> float:
        """Incidence angle at the receiver; zero because the telescope steers."""
        return 0.0


def los_dc_gain(scenario: RoomScenario) -> float:
    """Channel transmittance of the wireless link for a placement scenario."""
    return los_gain_from_angles(
        distance_m=scenario.distance_m,
        order=lambertian_order(scenario.tx_semi_angle_deg),
        area_m2=scenario.detector_area_m2,
        irradiance_deg=scenario.irradiance_deg,
        incidence_deg=scenario.incidence_deg,
        fov_deg=scenario.rx_fov_deg,
        refractive_index=scenario.concentrator_index,
        filter_transmission=scenario.filter_transmission,
    )


class BulbNoiseModel(keyed_record("BulbNoiseModel", KeyTable(
    psd_w_per_nm="bulb.psd_w_per_nm", filter_bandwidth_nm="bulb.filter_bandwidth_nm",
    gate_s=GATE_S, wavelength_m=("network.quantum_start_nm", lambda nm: nm * 1e-9),
    collection_factor="bulb.collection_factor",
), required=1)):
    """Parametric background-noise model for the room's light source.

    The photon count per detection gate is

        n_B = collection_factor * psd * bandwidth * gate / (h c / wavelength).

    The collection factor lumps together everything between the bulb and
    the detector (reflections, solid angle, FOV filtering); it has to be
    calibrated, since the radiometric detail is outside this model.
    """

    __slots__ = ()

    def __init__(self, *_, **__):
        if self.psd_w_per_nm < 0.0:
            raise ValueError(f"PSD must be >= 0, got {self.psd_w_per_nm}")
        for name in ("filter_bandwidth_nm", "gate_s", "wavelength_m"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if not 0.0 < self.collection_factor <= 1.0:
            raise ValueError(f"collection factor must be in (0, 1], got {self.collection_factor}")


def bulb_noise_count(model: BulbNoiseModel) -> float:
    """Background photons per gate collected from the light source."""
    photon_energy_j = PLANCK_J_S * LIGHTSPEED_M_S / model.wavelength_m
    collected_j = (
        model.collection_factor
        * model.psd_w_per_nm
        * model.filter_bandwidth_nm
        * model.gate_s
    )
    return collected_j / photon_energy_j
