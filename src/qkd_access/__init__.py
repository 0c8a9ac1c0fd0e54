"""Key-rate simulator for wireless-indoor QKD users on a DWDM access network.

The package models an indoor optical-wireless QKD link feeding a passive
optical network shared with classical data channels, and evaluates
asymptotic secret-key rates for decoy-state BB84, coherent-state CV-QKD
and measurement-device-independent QKD across four network setups,
including bulb background light and Raman scattering noise.
"""

from .budget import (
    CvLinkBudget,
    DetectorParams,
    DwdmPlan,
    LinkBudget,
    MdiLinkBudget,
    budget_setup1_fiber,
    budget_setup1_wireless,
    budget_setup2,
    budget_setup3,
    budget_setup4,
    cv_budget,
    fiber_transmittance,
    launch_power,
    raman_totals_setup1,
    raman_totals_setup3,
    raman_totals_setup4,
)
from .config import CASE_PRESETS, DEFAULTS, ConfigError, SimulationConfig
from .numerics import (
    AttenuationCoefficient,
    bessel_i0,
    binary_entropy,
    db_to_linear,
    holevo_g,
)
from .owc import (
    BulbNoiseModel,
    RoomScenario,
    bulb_noise_count,
    concentrator_gain,
    lambertian_order,
    los_dc_gain,
)
from .protocols import (
    Bb84Gains,
    Bb84Params,
    Gg02Params,
    MdiGains,
    MdiParams,
    decoy_gains,
    ds_bb84_rate,
    ds_bb84_rate_at,
    gain_and_qber,
    gg02_rate,
    gg02_rate_at,
    holevo_bound,
    mdi_rate_ds,
    mdi_rate_ds_at,
    mdi_rate_spp,
    mdi_rate_spp_at,
    mutual_information,
    single_photon_errors,
    single_photon_yield,
    spp_bb84_rate,
    spp_bb84_rate_at,
)
from .raman import (
    RamanCrossSectionTable,
    RamanQuery,
    builtin_cross_section_table,
    raman_backward,
    raman_forward,
)
from .sweep import (
    NoiseBreakdownResult,
    SweepPoint,
    SweepResult,
    SweepSpec,
    dv_cv_crossover,
    emit_csv,
    noise_breakdown,
    run_sweep,
)

__version__ = "0.1.0"
