#!/usr/bin/env python3
"""Raman scattering from the classical channels sharing the feeder fiber.

Each of the 32 users also runs a classical data channel whose launch power
tracks the path loss (fixed receiver sensitivity), so longer feeders mean
stronger pumps and more scattered light inside the quantum band.
"""

from qkd_access import (
    AttenuationCoefficient,
    RamanQuery,
    SimulationConfig,
    builtin_cross_section_table,
    raman_backward,
    raman_forward,
    raman_totals_setup1,
)
from qkd_access.raman import photons_per_gate

table = builtin_cross_section_table()
alpha = AttenuationCoefficient(0.2)

print("=== Cross section vs pump-receiver detuning (1550 nm reference pump) ===")
for rx in (1545.0, 1530.0, 1500.0, 1650.0, 1700.0):
    detuning_thz = (299792.458 / rx - 299792.458 / 1550.0)  # GHz -> THz via nm units
    print(f"receiver {rx:7.1f} nm ({detuning_thz:+6.1f} THz): "
          f"gamma = {table.gamma(1550.0, rx):.3e} /km/nm")
print("The Stokes peak sits near +13 THz; the anti-Stokes side, where the")
print("quantum grid lives, is thermally suppressed.")

print()
print("=== Forward vs backward scattering of one 1 mW channel ===")
query = lambda km: RamanQuery(intensity_mw=1.0, length_km=km, pump_nm=1585.2,
                              rx_nm=1555.62, rx_bandwidth_nm=0.8, attenuation=alpha)
print(f"{'L (km)':>7} {'forward (mW)':>14} {'backward (mW)':>14}")
for km in (1.0, 5.0, 10.0, 21.7, 50.0, 100.0):
    print(f"{km:7.1f} {raman_forward(query(km), table):14.3e} {raman_backward(query(km), table):14.3e}")
print("Forward power peaks near 1/alpha = 21.7 km and then decays with the")
print("pump; backward power saturates because it integrates the whole span.")

print()
print("=== Full-network totals at user 1 under the launch-power rule ===")
print(f"{'feeder (km)':>12} {'fwd (mW)':>12} {'bwd (mW)':>12} {'photons/gate':>14}")
for feeder in (5.0, 10.0, 20.0, 50.0, 100.0):
    cfg = SimulationConfig.from_dict({"network": {"feeder_km": feeder}})
    fwd, bwd = raman_totals_setup1(cfg.plan())
    photons = 0.3 * photons_per_gate(fwd + bwd, 1555.62, 100e-12)
    print(f"{feeder:12.0f} {fwd:12.3e} {bwd:12.3e} {photons:14.3e}")
print("Because transmit power grows with span loss, the backward total keeps")
print("climbing with distance and ends up the dominant background source.")
