"""Asymptotic key-rate formulas for the supported QKD protocols."""

from .bb84 import (
    Bb84Gains,
    Bb84Params,
    ds_bb84_rate,
    ds_bb84_rate_at,
    gain_and_qber,
    spp_bb84_rate,
    spp_bb84_rate_at,
)
from .gg02 import Gg02Params, gg02_rate, gg02_rate_at, holevo_bound, mutual_information
from .mdi import (
    MdiGains,
    MdiParams,
    decoy_gains,
    mdi_rate_ds,
    mdi_rate_ds_at,
    mdi_rate_spp,
    mdi_rate_spp_at,
    single_photon_errors,
    single_photon_yield,
)

__all__ = [
    "Bb84Gains",
    "Bb84Params",
    "ds_bb84_rate",
    "ds_bb84_rate_at",
    "gain_and_qber",
    "spp_bb84_rate",
    "spp_bb84_rate_at",
    "Gg02Params",
    "gg02_rate",
    "gg02_rate_at",
    "holevo_bound",
    "mutual_information",
    "MdiGains",
    "MdiParams",
    "decoy_gains",
    "mdi_rate_ds",
    "mdi_rate_ds_at",
    "mdi_rate_spp",
    "mdi_rate_spp_at",
    "single_photon_errors",
    "single_photon_yield",
]
