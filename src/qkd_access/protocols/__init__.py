"""Asymptotic key-rate formulas for the supported QKD protocols."""

from . import bb84, gg02, mdi
from .bb84 import *
from .gg02 import *
from .mdi import *

__all__ = [*bb84.__all__, *gg02.__all__, *mdi.__all__]
