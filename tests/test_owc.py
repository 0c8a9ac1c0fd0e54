"""Indoor wireless channel: LOS gain and bulb background."""

import math

import numpy as np
import pytest

from qkd_access.owc import (
    BulbNoiseModel,
    RoomScenario,
    bulb_noise_count,
    concentrator_gain,
    lambertian_order,
    los_dc_gain,
    los_gain_from_angles,
)


def scenario_for_case(case, **kwargs):
    base = dict(room_x_m=4.0, room_y_m=4.0, room_z_m=3.0, rx_fov_deg=6.0,
                concentrator_index=1.5, detector_area_m2=1e-4)
    if case == 1:
        base.update(tx_x_m=2.0, tx_y_m=2.0, tx_semi_angle_deg=20.0)
    elif case == 2:
        base.update(tx_x_m=0.0, tx_y_m=0.0, tx_semi_angle_deg=20.0)
    else:
        base.update(tx_x_m=0.0, tx_y_m=0.0, tx_semi_angle_deg=1.0)
    base.update(kwargs)
    return RoomScenario(case=case, **base)


class TestLambertianOrder:
    def test_ideal_lambertian(self):
        assert lambertian_order(60.0) == pytest.approx(1.0, abs=1e-15)

    def test_reference_values(self):
        assert lambertian_order(20.0) == pytest.approx(11.143405279234114, rel=1e-12, abs=0.0)
        assert lambertian_order(1.0) == pytest.approx(4550.704875571081, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("bad", [0.0, 90.0, -5.0, 120.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            lambertian_order(bad)


class TestConcentratorGain:
    def test_reference_value(self):
        assert concentrator_gain(0.0, 6.0, 1.5) == pytest.approx(205.92704467749201, rel=1e-12, abs=0.0)

    def test_outside_fov(self):
        assert concentrator_gain(7.0, 6.0, 1.5) == 0.0

    def test_unit_index_hemisphere(self):
        assert concentrator_gain(0.0, 90.0, 1.0) == pytest.approx(1.0, rel=1e-15, abs=0.0)


class TestLosGain:
    def test_case1_reference(self):
        # transmitter straight below the receiver: d=3 m, vertical beam
        assert los_dc_gain(scenario_for_case(1)) == pytest.approx(4.4221299286531556e-3, rel=1e-9, abs=0.0)

    def test_case2_reference(self):
        # corner placement: d = sqrt(2^2+2^2+3^2), irradiance angle acos(3/d)
        assert los_dc_gain(scenario_for_case(2)) == pytest.approx(6.7683855906770364e-5, rel=1e-9, abs=0.0)

    def test_case2_geometry(self):
        s = scenario_for_case(2)
        assert s.distance_m == pytest.approx(math.sqrt(17.0), rel=1e-12, abs=0.0)
        assert s.irradiance_deg == pytest.approx(43.313856658283051, rel=1e-12, abs=0.0)

    def test_case3_reference(self):
        # aimed narrow beam: irradiance angle zero despite the corner position
        assert los_dc_gain(scenario_for_case(3)) == pytest.approx(0.8775233724388741, rel=1e-9, abs=0.0)

    def test_clamped_to_unity(self):
        gain = los_gain_from_angles(
            distance_m=0.5, order=lambertian_order(1.0), area_m2=1e-2,
            irradiance_deg=0.0, incidence_deg=0.0, fov_deg=2.0, refractive_index=1.5,
        )
        assert gain == 1.0

    def test_zero_outside_fov(self):
        gain = los_gain_from_angles(
            distance_m=3.0, order=1.0, area_m2=1e-4,
            irradiance_deg=0.0, incidence_deg=10.0, fov_deg=6.0, refractive_index=1.5,
        )
        assert gain == 0.0

    def test_non_increasing_with_distance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            d = rng.uniform(1.0, 10.0)
            extra = rng.uniform(0.01, 5.0)
            kwargs = dict(order=11.0, area_m2=1e-4, irradiance_deg=rng.uniform(0, 40),
                          incidence_deg=0.0, fov_deg=6.0, refractive_index=1.5)
            assert los_gain_from_angles(distance_m=d + extra, **kwargs) <= los_gain_from_angles(
                distance_m=d, **kwargs
            )

    def test_centre_beats_corner(self):
        assert los_dc_gain(scenario_for_case(1)) >= los_dc_gain(scenario_for_case(2))

    def test_rejects_degenerate_distance(self):
        with pytest.raises(ValueError):
            los_gain_from_angles(
                distance_m=0.0, order=1.0, area_m2=1e-4, irradiance_deg=0.0,
                incidence_deg=0.0, fov_deg=6.0, refractive_index=1.5,
            )

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            scenario_for_case(1, tx_x_m=5.0)  # outside the 4 m footprint
        with pytest.raises(ValueError):
            scenario_for_case(1, rx_fov_deg=0.0)
        with pytest.raises(ValueError):
            scenario_for_case(1, concentrator_index=0.9)


class TestBulbNoise:
    def test_dark_room(self):
        model = BulbNoiseModel(psd_w_per_nm=0.0, filter_bandwidth_nm=1.0,
                               gate_s=100e-12, wavelength_m=880e-9, collection_factor=1e-3)
        assert bulb_noise_count(model) == 0.0

    def test_reference_value(self):
        # kappa * PSD * bandwidth * gate / (hc/lambda) at 880 nm
        model = BulbNoiseModel(psd_w_per_nm=1e-5, filter_bandwidth_nm=1.0,
                               gate_s=100e-12, wavelength_m=880e-9, collection_factor=1e-3)
        assert bulb_noise_count(model) == pytest.approx(4.4300225794375842, rel=1e-12, abs=0.0)

    def test_linear_in_each_factor(self):
        base = dict(psd_w_per_nm=2e-6, filter_bandwidth_nm=0.8, gate_s=100e-12,
                    wavelength_m=1555.62e-9, collection_factor=1e-4)
        reference = bulb_noise_count(BulbNoiseModel(**base))
        for key, scale in [("psd_w_per_nm", 2.0), ("filter_bandwidth_nm", 3.0),
                           ("gate_s", 5.0), ("collection_factor", 2.0)]:
            scaled = dict(base)
            scaled[key] = base[key] * scale
            assert bulb_noise_count(BulbNoiseModel(**scaled)) == pytest.approx(
                scale * reference, rel=1e-12, abs=0.0
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            BulbNoiseModel(psd_w_per_nm=-1e-6)
        with pytest.raises(ValueError):
            BulbNoiseModel(psd_w_per_nm=1e-6, gate_s=0.0)
