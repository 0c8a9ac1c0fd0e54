"""Special functions and unit conversions."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkd_access.numerics import (
    AttenuationCoefficient,
    bessel_i0,
    binary_entropy,
    db_to_linear,
    geomspace,
    holevo_g,
    holevo_g_excess,
    linspace,
)

from oracles import bessel_i0_series


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_reference_value(self):
        # high-precision evaluation of -x log2 x - (1-x) log2 (1-x) at x=0.11
        assert binary_entropy(0.11) == pytest.approx(0.4999159581645280, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for x in rng.random(1000):
            assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) < 1e-12

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)


class TestHolevoG:
    def test_vacuum(self):
        assert holevo_g(1.0) == 0.0

    def test_exact_small_integer(self):
        # g(3) = 2 log2 2 - 1 log2 1 = 2
        assert holevo_g(3.0) == pytest.approx(2.0, abs=1e-14)

    def test_reference_value(self):
        # g(5) = 3 log2 3 - 2
        assert holevo_g(5.0) == pytest.approx(2.7548875021634685, abs=1e-14)

    def test_monotone(self):
        rng = np.random.default_rng(2)
        xs = 1.0 + 50.0 * rng.random(500)
        for x in xs:
            assert holevo_g(x + 0.5) > holevo_g(x)

    def test_clamp_window(self):
        assert holevo_g(1.0 - 1e-10) == 0.0

    def test_rejects_below_tolerance(self):
        with pytest.raises(ValueError):
            holevo_g(1.0 - 1e-6)

    @staticmethod
    def excess_reference(delta):
        """g(1 + delta) and g'(1 + delta) = log2((2 + delta) / delta) / 2, at 50 digits."""
        d = mpmath.mpf(delta)
        with mpmath.workdps(50):
            up = mpmath.log1p(d / 2) / mpmath.log(2)
            g = (1 + d / 2) * up - d / 2 * mpmath.log(d / 2, 2)
            slope = (up - mpmath.log(d / 2, 2)) / 2
        return float(g), float(slope)

    @pytest.mark.parametrize("delta", [1e-300, 1e-17, 1e-9, 0.5, 2.0, 99.0])
    def test_excess_form(self, delta):
        g, slope = self.excess_reference(delta)
        got = holevo_g_excess(delta)
        assert got[0] == pytest.approx(g, rel=1e-14, abs=0.0)
        assert got[1] == pytest.approx(slope, rel=1e-14, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(log_delta=st.floats(3.0, 18.0))
    def test_excess_form_far_from_unity(self, log_delta):
        # (1 + h) log2(1 + h) - h log2 h with h = delta / 2 lost 1.1e-3 bits at
        # delta = 1e12 and gave g = -4096 at 1e18; each form kept above h = 1
        # is a sum of non-negative terms, within a few ulp of 50 digits
        delta = 10.0 ** log_delta
        g, slope = self.excess_reference(delta)
        got = holevo_g_excess(delta)
        assert got[0] == pytest.approx(g, rel=1e-15, abs=0.0)
        assert got[1] == pytest.approx(slope, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("delta", [0.0, -1e-10, 5e-324])
    def test_excess_at_unit_eigenvalue(self, delta):
        # g'(1) is infinite; it reads 0 like g(1), so g'(x) dx/dV reads 0 there
        assert holevo_g_excess(delta) == (0.0, 0.0)


class TestBesselI0:
    def test_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_reference_values(self):
        assert bessel_i0(1.0) == pytest.approx(1.2660658777520083, rel=1e-12, abs=0.0)
        assert bessel_i0(2.0) == pytest.approx(2.2795853023360673, rel=1e-12, abs=0.0)

    def test_series_oracle_agreement(self):
        for x in np.linspace(0.0, 10.0, 201):
            ref = bessel_i0_series(float(x))
            assert bessel_i0(float(x)) == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_wide_range(self):
        # relative error stays tight out to x = 50 (60-term reference)
        for x in np.linspace(10.0, 50.0, 41):
            ref = bessel_i0_series(float(x), terms=60)
            assert bessel_i0(float(x)) == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_monotone_and_bounded_below(self):
        xs = np.linspace(0.0, 20.0, 200)
        values = [bessel_i0(float(x)) for x in xs]
        assert all(v >= 1.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_i0(-1.0)


class TestDecibels:
    def test_trivial(self):
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15, abs=0.0)
        assert db_to_linear(0.0) == 1.0

    def test_reference_value(self):
        assert db_to_linear(3.0) == pytest.approx(1.9952623149688796, rel=1e-14, abs=0.0)


class TestAttenuationCoefficient:
    def test_natural_units(self):
        alpha = AttenuationCoefficient(0.2)
        assert alpha.per_km == pytest.approx(0.2 * math.log(10.0) / 10.0, rel=1e-15, abs=0.0)
        assert alpha.per_km == pytest.approx(0.04605170185988091, rel=1e-12, abs=0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AttenuationCoefficient(-0.1)


# numpy is only an oracle here: the package builds its grids without it.
finite = st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True)


class TestLinspace:
    @settings(max_examples=500, deadline=None)
    @given(start=finite, stop=finite, num=st.integers(0, 300))
    def test_equals_numpy(self, start, stop, num):
        # numpy's grid, but where rounding carries a value past stop (a subnormal
        # range, or ends a few ulps apart), that value is stop
        clamp = min if start <= stop else max
        ref = [clamp(v, stop) for v in np.linspace(start, stop, num).tolist()]
        assert linspace(start, stop, num) == ref

    def test_subnormal_range_equals_numpy(self):
        # the step underflows to 0, so each value scales the range instead
        for stop, num in ((5e-324, 3), (5e-324, 4), (1.5e-323, 7)):
            assert linspace(0.0, stop, num) == np.linspace(0.0, stop, num).tolist()
        # there numpy's last formula value can pass stop, and ours is stop
        assert np.linspace(0.0, 1.5e-323, 6).tolist()[-2] == 2e-323
        assert linspace(0.0, 1.5e-323, 6) == [0.0, 5e-324, 1e-323, 1.5e-323, 1.5e-323, 1.5e-323]

    def test_short_grids(self):
        assert linspace(1.0, 5.0, 0) == []
        assert linspace(1.0, 5.0, 1) == [1.0]
        assert linspace(1.0, 5.0, 2) == [1.0, 5.0]
        with pytest.raises(ValueError):
            linspace(1.0, 5.0, -1)


class TestGeomspace:
    @settings(max_examples=500, deadline=None)
    @given(start=st.floats(1e-30, 1e30), decades=st.floats(1e-3, 30.0),
           num=st.integers(2, 200))
    def test_close_to_numpy(self, start, decades, num):
        stop = start * 10.0 ** decades
        ours = geomspace(start, stop, num)
        assert (ours[0], ours[-1]) == (start, stop)
        # np.geomspace is np.logspace over numpy's own log10 of the ends, a SIMD
        # kernel that can miss libm's log10 by an ulp; linspace then spreads that
        # over the grid.  So the oracle is np.logspace over libm's log10: the same
        # exponents, where the grids may differ only by pow's last bit.
        ref = np.logspace(math.log10(start), math.log10(stop), num).tolist()
        for a, b in zip(ours[1:-1], ref[1:-1]):
            assert abs(a - b) <= math.ulp(b)

    def test_endpoints_and_short_grids(self):
        assert geomspace(2.0, 2e6, 7)[::6] == [2.0, 2e6]
        assert geomspace(3.0, 30.0, 1) == [3.0]
        assert geomspace(3.0, 30.0, 0) == []


def _ulps_away(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def _monotone_from_start_to_stop(values, start, stop):
    return values == sorted(values, reverse=stop < start) and values[::len(values) - 1 or 1] == (
        [float(start), float(stop)][:len(values)])


class TestMonotoneGrids:
    """Every grid runs from start to stop without a step back, also where rounding
    would put a value past its neighbour: ends a few ulps apart."""

    @settings(max_examples=500, deadline=None)
    @given(start=finite, stop=finite, num=st.integers(0, 300))
    def test_linspace(self, start, stop, num):
        assert _monotone_from_start_to_stop(linspace(start, stop, num), start, stop)

    @settings(max_examples=500, deadline=None)
    @given(start=finite, ulps=st.integers(-40, 40), num=st.integers(0, 60))
    def test_linspace_close_ends(self, start, ulps, num):
        stop = _ulps_away(start, ulps)
        assert _monotone_from_start_to_stop(linspace(start, stop, num), start, stop)

    @settings(max_examples=500, deadline=None)
    @given(start=st.floats(1e-300, 1e300), stop=st.floats(1e-300, 1e300),
           num=st.integers(0, 200))
    def test_geomspace(self, start, stop, num):
        assert _monotone_from_start_to_stop(geomspace(start, stop, num), start, stop)

    @settings(max_examples=500, deadline=None)
    @given(start=st.floats(1e-300, 1e300), ulps=st.integers(-40, 40), num=st.integers(0, 60))
    def test_geomspace_close_ends(self, start, ulps, num):
        stop = _ulps_away(start, ulps)
        assert _monotone_from_start_to_stop(geomspace(start, stop, num), start, stop)

    def test_the_sweep_grid_that_stepped_back(self):
        start, stop = 3.1622776601683796e-06, 3.162277660168384e-06
        assert geomspace(start, stop, 3) == [start, start, stop]
