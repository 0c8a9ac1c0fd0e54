"""Each validation bound at its exact value, and the V_A search's path at fixed points.

A bound is tested on both sides of its edge with ``match=`` on its message,
so a check that moves its edge by one value, or that fails with another
error, fails here.
"""

import math

import pytest

from qkd_access import cli
from qkd_access.budget import DwdmPlan, cv_budget
from qkd_access.owc import RoomScenario
from qkd_access.protocols import Gg02Params, gg02
from qkd_access.protocols.mdi import single_photon_yield
from qkd_access.raman import RamanCrossSectionTable, builtin_cross_section_table

BELOW_ZERO = math.nextafter(0.0, -1.0)
ABOVE_ZERO = math.nextafter(0.0, 1.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)
BELOW_ONE = math.nextafter(1.0, 0.0)


def plan(**kwargs):
    return DwdmPlan.from_grid(raman_table=builtin_cross_section_table(), rx_bandwidth_nm=0.8,
                              **kwargs)


@pytest.mark.parametrize("setup", ["1-wireless", "2"])
def test_coherent_budget_at_zero_room_gain(setup):
    with pytest.raises(ValueError, match="^channel transmissivity is zero; budget undefined$"):
        cv_budget(setup, h_dc=0.0, n_b1=1e-6, plan=plan())
    # a gain whose product with the fiber's loss stays above the subnormals
    assert cv_budget(setup, h_dc=1e-300, n_b1=0.0, plan=plan()).transmissivity > 0.0


@pytest.mark.parametrize("assignment,code,message", [
    ("dv.clock_hz=0", 2, "dv.clock_hz must be > 0"),
    (f"dv.clock_hz={ABOVE_ZERO!r}", 0, None),
    ("link.polarization_factor=0", 0, None),
    ("link.polarization_factor=1", 0, None),
    (f"link.polarization_factor={BELOW_ZERO!r}", 2, "link.polarization_factor must be in [0, 1]"),
    (f"link.polarization_factor={ABOVE_ONE!r}", 2, "link.polarization_factor must be in [0, 1]"),
])
def test_config_bounds(capsys, assignment, code, message):
    assert cli.main(["validate-config", "--set", assignment]) == code
    if message is not None:
        assert capsys.readouterr().err == f"error: {message}\n"


def test_reference_pump_bound():
    wavelengths, gammas = (1500.0, 1600.0), (1e-9, 2e-9)
    with pytest.raises(ValueError, match=r"^reference pump wavelength must be > 0, got 0\.0$"):
        RamanCrossSectionTable(wavelengths, gammas, 0.0)
    assert RamanCrossSectionTable(wavelengths, gammas, 0.5).reference_pump_nm == 0.5


@pytest.mark.parametrize("pumps,rx_nm", [((1590.0,), 0.0), ((0.0,), 1555.0),
                                         ((1590.0, BELOW_ZERO), 1555.0)])
def test_lookup_wavelength_bound(pumps, rx_nm):
    with pytest.raises(ValueError, match="^wavelengths must be > 0$"):
        builtin_cross_section_table().gammas(pumps, rx_nm)


@pytest.mark.parametrize("fov", [0.0, 90.0])
def test_receiver_fov_bound(fov):
    with pytest.raises(ValueError, match=rf"^receiver FOV out of range: {fov}$"):
        RoomScenario(rx_fov_deg=fov)


@pytest.mark.parametrize("fov", [ABOVE_ZERO, math.nextafter(90.0, 0.0)])
def test_receiver_fov_inside_bound(fov):
    assert RoomScenario(rx_fov_deg=fov).rx_fov_deg == fov


@pytest.mark.parametrize("transmission", [0.0, ABOVE_ONE])
def test_filter_transmission_bound(transmission):
    with pytest.raises(ValueError, match=rf"^filter transmission must be in \(0, 1\], "
                                         rf"got {transmission!r}$"):
        RoomScenario(filter_transmission=transmission)


@pytest.mark.parametrize("transmission", [ABOVE_ZERO, 1.0])
def test_filter_transmission_inside_bound(transmission):
    assert RoomScenario(filter_transmission=transmission).filter_transmission == transmission


@pytest.mark.parametrize("eta_a,eta_b", [(BELOW_ZERO, 0.5), (ABOVE_ONE, 0.5), (0.5, BELOW_ZERO),
                                         (0.5, ABOVE_ONE)])
def test_mdi_transmissivity_bound(eta_a, eta_b):
    with pytest.raises(ValueError, match=r"^one-sided transmissivities must be in \[0, 1\]$"):
        single_photon_yield(eta_a, eta_b, 0.0)


@pytest.mark.parametrize("noise", [1.0, BELOW_ZERO])
def test_mdi_noise_bound(noise):
    with pytest.raises(ValueError, match=rf"^noise per detector must be in \[0, 1\), got {noise}$"):
        single_photon_yield(0.5, 0.5, noise)


def test_mdi_bounds_inside():
    for eta_a, eta_b, noise in [(0.0, 1.0, 0.0), (1.0, 0.0, BELOW_ONE)]:
        assert single_photon_yield(eta_a, eta_b, noise) >= 0.0


@pytest.mark.parametrize("quantum,data", [((1555.62, 1554.82), (1585.2,)),
                                          ((1555.62,), (1585.2, 1584.4))])
def test_grids_of_unequal_length(quantum, data):
    with pytest.raises(ValueError,
                       match="^quantum and data grids must be non-empty and equally sized$"):
        DwdmPlan(quantum, data, builtin_cross_section_table(), 0.8)


# (transmissivity, excess noise) -> (evaluations of K by the rate's search,
# V_A it returns, whether that is the range's top): a point with no key, two
# interior maxima and one at the top of the range.
SEARCH_PATHS = {
    (0.01, 0.1): (4, 3.729649609119026, False),
    (0.3, 0.02): (14, 8.085921811012765, False),
    (0.5, 0.01): (13, 17.011043426506724, False),
    (0.9, 0.005): (8, 100.0, True),
}


@pytest.mark.parametrize("point", SEARCH_PATHS, ids=str)
def test_modulation_search_path(monkeypatch, point):
    count = 0
    fraction = gg02._secret_fraction

    def counted(*args):
        evaluate = fraction(*args)

        def evaluate_counted(v_a):
            nonlocal count
            count += 1
            return evaluate(v_a)

        return evaluate_counted

    monkeypatch.setattr(gg02, "_secret_fraction", counted)
    v_a, k = gg02._best_modulation(*point, Gg02Params(), floor=0.0)
    evaluations, expected_v_a, at_top = SEARCH_PATHS[point]
    assert count == evaluations
    assert v_a == pytest.approx(expected_v_a, rel=1e-12)
    assert (v_a == gg02.MODULATION_SEARCH_RANGE[1]) == at_top
    assert (k < 0.0) == (point == (0.01, 0.1))
