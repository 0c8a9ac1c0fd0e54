"""Raman cross-section table and scattering formulas."""

import hashlib
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkd_access.config import SimulationConfig
from qkd_access.numerics import AttenuationCoefficient
from qkd_access.raman import (
    RamanCrossSectionTable,
    RamanQuery,
    builtin_cross_section_table,
    photons_per_gate,
    raman_backward,
    raman_forward,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALPHA_02 = AttenuationCoefficient(0.2)


def flat_table(gamma=3e-9, lo=1300.0, hi=1800.0):
    wl = np.linspace(lo, hi, 101)
    return RamanCrossSectionTable(wl, np.full_like(wl, gamma), reference_pump_nm=1550.0)


def query(intensity=1.0, length=10.0, pump=1585.2, rx=1555.62, bandwidth=0.8, alpha=ALPHA_02):
    return RamanQuery(
        intensity_mw=intensity, length_km=length, pump_nm=pump, rx_nm=rx,
        rx_bandwidth_nm=bandwidth, attenuation=alpha,
    )


class TestCrossSectionTable:
    def test_reference_pump_lookup_is_interpolation(self):
        wl = np.array([1500.0, 1510.0, 1520.0])
        ga = np.array([1e-9, 3e-9, 2e-9])
        table = RamanCrossSectionTable(wl, ga, reference_pump_nm=1550.0)
        assert table.gamma(1550.0, 1510.0) == pytest.approx(3e-9, rel=1e-12, abs=0.0)
        mid = table.gamma(1550.0, 1505.0)
        assert 1e-9 < mid < 3e-9

    def test_detuning_shift(self):
        # A shifted pump must read the value at equal frequency detuning.
        wl = np.linspace(1400.0, 1700.0, 601)
        c = 299792458.0
        nu_ref = c / 1550e-9
        detuning_thz = (c / (wl * 1e-9) - nu_ref) / 1e12
        ga = 1e-9 * (1.0 + 0.05 * detuning_thz)  # linear in detuning -> interp exact
        table = RamanCrossSectionTable(wl, ga, reference_pump_nm=1550.0)
        pump, rx = 1585.2, 1555.62
        detuning = c / (rx * 1e-9) - c / (pump * 1e-9)
        expected = 1e-9 * (1.0 + 0.05 * detuning / 1e12)
        assert table.gamma(pump, rx) == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_out_of_range_rejected(self):
        table = flat_table(lo=1540.0, hi=1560.0)
        with pytest.raises(ValueError):
            table.gamma(1585.2, 1500.0)

    def test_vector_lookup_rejects_any_pump_out_of_range(self):
        table = flat_table(lo=1540.0, hi=1560.0)
        assert list(table.gammas([1550.0, 1549.2], 1550.0)) == [3e-9, 3e-9]
        with pytest.raises(ValueError, match="pump 1585.2 nm / receiver 1550.0 nm"):
            table.gammas([1550.0, 1585.2], 1550.0)

    def test_required_header(self):
        with pytest.raises(ValueError):
            RamanCrossSectionTable.from_csv_text("a,b\n1,2\n", 1550.0)

    def test_monotone_wavelengths_required(self):
        with pytest.raises(ValueError):
            RamanCrossSectionTable([1500.0, 1500.0], [1e-9, 1e-9], 1550.0)
        with pytest.raises(ValueError):
            RamanCrossSectionTable([1500.0, 1499.0], [1e-9, 1e-9], 1550.0)

    def test_csv_round_trip(self, tmp_path):
        text = "lambda_q_nm,gamma_per_km_nm\n1500.0,1.0e-09\n1600.0,2.0e-09\n"
        path = tmp_path / "table.csv"
        path.write_text(text)
        table = RamanCrossSectionTable.from_csv_file(path, 1550.0)
        assert table.gamma(1550.0, 1500.0) == pytest.approx(1e-9, abs=0.0)
        assert len(table.checksum) == 64

    def test_in_memory_checksum_hashes_float64_bytes(self):
        wl, ga = [1500.0, 1510.0, 1520.0], [1e-9, 3e-9, 2e-9]
        digest = hashlib.sha256()
        digest.update(np.asarray(wl, dtype=float).tobytes())
        digest.update(np.asarray(ga, dtype=float).tobytes())
        digest.update(b"1550.0")
        assert RamanCrossSectionTable(wl, ga, 1550.0).checksum == digest.hexdigest()

    def test_equal_rows_make_equal_tables(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("lambda_q_nm,gamma_per_km_nm\n1500.0,1.0e-09\n1600.0,2.0e-09\n")
        a, b = (RamanCrossSectionTable.from_csv_file(path, 1550.0) for _ in range(2))
        in_memory = RamanCrossSectionTable([1500, 1600], [1e-9, 2e-9], 1550)
        assert a is not b and a == b == in_memory and hash(a) == hash(b) == hash(in_memory)
        assert a != RamanCrossSectionTable([1500.0, 1600.0], [1e-9, 2e-9], 1551.0)
        assert a != RamanCrossSectionTable([1500.0, 1600.0], [1e-9, 3e-9], 1550.0)
        assert a != RamanCrossSectionTable([1500.0, 1601.0], [1e-9, 2e-9], 1550.0)
        assert a != (a.wavelengths_nm, a.gamma_per_km_nm, a.reference_pump_nm)

    def test_plans_from_one_table_file_are_equal(self):
        path = ROOT / "src" / "qkd_access" / "data" / "raman_gamma_1550nm.csv"
        cfg = SimulationConfig.from_dict({"raman_table": {"path": str(path)}})
        assert cfg.plan() == cfg.plan() == SimulationConfig.from_dict({}).plan()
        assert hash(cfg.plan()) == hash(cfg.plan())

    def test_repr_names_rows_pump_and_checksum(self):
        table = builtin_cross_section_table()
        assert repr(table) == (f"RamanCrossSectionTable(<{len(table.wavelengths_nm)} rows>, "
                               f"reference_pump_nm=1550.0, sha256={table.checksum})")
        assert " at 0x" not in repr(SimulationConfig.from_dict({}).plan())

    def test_builtin_table_loads(self):
        table = builtin_cross_section_table()
        # covers the full DWDM plan and has the Stokes peak near 13 THz
        assert table.gamma(1585.2, 1555.62) > 0.0
        peak_wl = table.wavelengths_nm[np.argmax(table.gamma_per_km_nm)]
        assert 1640.0 < peak_wl < 1680.0  # ~13 THz below the 1550 nm pump
        assert max(table.gamma_per_km_nm) == pytest.approx(1.35e-9, rel=0.05, abs=0.0)


C_M_S = 299792458.0


def numpy_interp(table, pumps_nm, rx_nm):
    """``np.interp`` over the table's detuning axis, built from its public columns."""
    nu_ref = C_M_S / (table.reference_pump_nm * 1e-9)
    xp = [C_M_S / (w * 1e-9) - nu_ref for w in reversed(table.wavelengths_nm)]
    fp = list(reversed(table.gamma_per_km_nm))
    detuning = [C_M_S / (rx_nm * 1e-9) - C_M_S / (p * 1e-9) for p in pumps_nm]
    return np.interp(detuning, xp, fp).tolist()


class TestLookupEqualsNumpyInterp:
    """The package interpolates without numpy; numpy is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(pumps=st.lists(st.floats(1500.0, 1600.0), min_size=1, max_size=40),
           rx=st.floats(1500.0, 1600.0))
    def test_random_lookups(self, pumps, rx):
        table = builtin_cross_section_table()
        assert list(table.gammas(pumps, rx)) == numpy_interp(table, pumps, rx)

    def test_every_node_hit(self):
        # the reference pump into a tabulated wavelength lands exactly on its node
        table = builtin_cross_section_table()
        for wl, gamma in zip(table.wavelengths_nm, table.gamma_per_km_nm):
            got = table.gammas((table.reference_pump_nm,), wl)
            assert list(got) == numpy_interp(table, (table.reference_pump_nm,), wl) == [gamma]

    def test_dwdm_grid(self):
        table = builtin_cross_section_table()
        pumps = tuple(1585.2 - 0.8 * k for k in range(32))
        assert list(table.grid_gammas(pumps, 1555.62)) == numpy_interp(table, pumps, 1555.62)


class TestScatteredPower:
    def test_no_length_no_power(self):
        table = flat_table()
        assert raman_forward(query(length=0.0), table) == 0.0
        assert raman_backward(query(length=0.0), table) == 0.0

    def test_no_pump_no_power(self):
        table = flat_table()
        assert raman_forward(query(intensity=0.0), table) == 0.0

    def test_forward_reference_value(self):
        # 1 mW, 10 km, alpha=0.2 dB/km, flat 3e-9, 0.8 nm
        got = raman_forward(query(), flat_table())
        assert got == pytest.approx(1.5142976267524638e-8, rel=1e-12, abs=0.0)

    def test_backward_reference_value(self):
        got = raman_backward(query(), flat_table())
        assert got == pytest.approx(1.5683924071545074e-8, rel=1e-12, abs=0.0)

    def test_backward_saturates(self):
        table = flat_table()
        alpha = ALPHA_02.per_km
        asymptote = 1.0 * 3e-9 * 0.8 / (2.0 * alpha)
        assert raman_backward(query(length=500.0), table) == pytest.approx(asymptote, rel=1e-8, abs=0.0)

    def test_transparent_fiber_limits(self):
        table = flat_table()
        tiny = AttenuationCoefficient(1e-8 * 10.0 / math.log(10.0))  # alpha_lin = 1e-8
        fwd = raman_forward(query(length=10.0, alpha=tiny), table)
        bwd = raman_backward(query(length=10.0, alpha=tiny), table)
        expected = 1.0 * 10.0 * 3e-9 * 0.8
        assert fwd == pytest.approx(expected, rel=1e-6, abs=0.0)
        assert bwd == pytest.approx(expected, rel=1e-6, abs=0.0)

    def test_zero_attenuation_exact(self):
        table = flat_table()
        none = AttenuationCoefficient(0.0)
        assert raman_backward(query(length=7.0, alpha=none), table) == pytest.approx(
            7.0 * 3e-9 * 0.8, rel=1e-12, abs=0.0
        )

    def test_backward_exceeds_forward(self):
        table = flat_table()
        for length in np.linspace(0.5, 100.0, 40):
            fwd = raman_forward(query(length=float(length)), table)
            bwd = raman_backward(query(length=float(length)), table)
            assert bwd > fwd

    def test_forward_peaks_at_inverse_alpha(self):
        table = flat_table()
        alpha = ALPHA_02.per_km
        peak = 1.0 / alpha
        step = 1e-3
        up = raman_forward(query(length=peak + step), table)
        down = raman_forward(query(length=peak - step), table)
        at = raman_forward(query(length=peak), table)
        assert at >= up and at >= down
        # derivative changes sign across the peak
        assert raman_forward(query(length=peak - 1.0), table) < at
        assert raman_forward(query(length=peak + 1.0), table) < at

    def test_linear_scaling(self):
        table2 = flat_table(gamma=6e-9)
        base = raman_forward(query(), flat_table())
        assert raman_forward(query(intensity=2.0), flat_table()) == pytest.approx(2 * base, rel=1e-12, abs=0.0)
        assert raman_forward(query(bandwidth=1.6), flat_table()) == pytest.approx(2 * base, rel=1e-12, abs=0.0)
        assert raman_forward(query(), table2) == pytest.approx(2 * base, rel=1e-12, abs=0.0)

    # float.hex() of (raman_forward, raman_backward) on the built-in table;
    # reordering a formula's factors moves these bits
    @pytest.mark.parametrize("kwargs,want", [
        ({}, ("0x1.e324134a7584fp-32", "0x1.f4666723948a0p-32")),
        (dict(intensity=3.7, length=87.3, pump=1570.0, rx=1549.3, bandwidth=0.4,
              alpha=AttenuationCoefficient(0.25)),
         ("0x1.0bde355bcb3eap-35", "0x1.fb1f26149066ap-32")),
        (dict(intensity=0.5, length=7.0, bandwidth=1.6, alpha=AttenuationCoefficient(0.0)),
         ("0x1.0c011dfe9801ep-31", "0x1.0c011dfe9801ep-31")),
    ])
    def test_pinned_bits(self, kwargs, want):
        q, table = query(**kwargs), builtin_cross_section_table()
        assert (raman_forward(q, table).hex(), raman_backward(q, table).hex()) == want

    def test_query_validation(self):
        with pytest.raises(ValueError):
            query(intensity=-1.0)
        with pytest.raises(ValueError):
            query(length=-0.1)
        with pytest.raises(ValueError):
            query(bandwidth=0.0)


class TestPhotonCount:
    def test_zero_power(self):
        assert photons_per_gate(0.0, 1555.62, 100e-12) == 0.0

    def test_reference_value(self):
        # 1.571e-11 W over 100 ps at 1555.62 nm, with the SI h and c, at 50 digits
        got = photons_per_gate(1.571e-8, 1555.62, 100e-12)
        assert got == pytest.approx(1.2302771863652040e-2, rel=1e-12, abs=0.0)

    def test_linear_in_gate(self):
        one = photons_per_gate(1e-8, 1555.62, 100e-12)
        two = photons_per_gate(1e-8, 1555.62, 200e-12)
        assert two == pytest.approx(2.0 * one, rel=1e-12, abs=0.0)
