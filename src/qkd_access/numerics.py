"""Shared special functions and the dB unit conversion.

Everything in here is a pure scalar function used by the channel-noise and
key-rate formulas: Shannon binary entropy, the bosonic entropy function
g(x) entering Holevo bounds and its slope, the modified Bessel function I0,
and the dB-to-linear power conversion; plus the two physical constants the
photon counts need and the linear and logarithmic grids the sweeps run over.
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = [
    "PLANCK_J_S",
    "LIGHTSPEED_M_S",
    "AttenuationCoefficient",
    "binary_entropy",
    "holevo_g",
    "holevo_g_excess",
    "bessel_i0",
    "db_to_linear",
    "linspace",
    "geomspace",
]

# Exact by definition in the 2019 SI.
PLANCK_J_S = 6.62607015e-34
LIGHTSPEED_M_S = 299792458.0

# x < 1 by at most this much is treated as floating-point noise in a
# symplectic eigenvalue and clamped to 1.
HOLEVO_G_CLAMP_TOL = 1e-9
_LN2 = math.log(2.0)


class AttenuationCoefficient(namedtuple("AttenuationCoefficient", "db_per_km")):
    """Fiber attenuation in both engineering (dB/km) and natural units.

    The exponential decay laws e^(-alpha*L) need the natural-log
    coefficient; link budgets quote dB/km. Keeping both on one object
    avoids silent unit mistakes.
    """

    __slots__ = ()

    def __init__(self, *_, **__):
        if not math.isfinite(self.db_per_km) or self.db_per_km < 0:
            raise ValueError(f"attenuation must be finite and >= 0, got {self.db_per_km}")

    @property
    def per_km(self) -> float:
        """Natural-log attenuation coefficient, 1/km."""
        return self.db_per_km * math.log(10.0) / 10.0


def binary_entropy(x: float) -> float:
    """Shannon binary entropy h(x) in bits, with h(0) = h(1) = 0.

    Raises ValueError if x is outside [0, 1].
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def holevo_g(x: float) -> float:
    """Entropy of a thermal bosonic state with symplectic eigenvalue x.

    g(x) = ((x+1)/2) log2((x+1)/2) - ((x-1)/2) log2((x-1)/2), continuously
    extended with g(1) = 0.  Values of x slightly below 1 (within
    ``HOLEVO_G_CLAMP_TOL``) are clamped to 1; anything lower is rejected,
    since physical symplectic eigenvalues satisfy x >= 1.
    """
    return holevo_g_excess(x - 1.0)[0]


def holevo_g_excess(delta: float) -> tuple[float, float]:
    """g(x) and g'(x) = log2((x+1)/(x-1)) / 2 in bits at x = 1 + delta.

    Taking the excess delta rather than x keeps the precision of an x close
    to 1.  At x = 1, where g' is infinite, both are 0, so a term g'(x) dx
    there reads 0.  A delta below 0 by at most ``HOLEVO_G_CLAMP_TOL`` is
    clamped to 0; anything lower is rejected.

    With h = delta / 2, g = (1 + h) log2(1 + h) - h log2 h.  Above h = 1
    that difference cancels (a wrong sign by delta = 1e18), so there g is
    taken as log2 h + (1 + h) log2(1 + 1/h) and g' as log2(1 + 1/h) / 2,
    each a sum of non-negative terms.
    """
    half = 0.5 * delta
    if half <= 0.0:  # also a delta so small that half of it rounds to 0
        if delta < -HOLEVO_G_CLAMP_TOL:
            raise ValueError(f"symplectic eigenvalue must be >= 1, got 1 - {-delta}")
        return 0.0, 0.0
    if half > 1.0:
        up = math.log1p(1.0 / half) / _LN2
        return math.log2(half) + (1.0 + half) * up, 0.5 * up
    up = math.log1p(half) / _LN2
    dn = math.log2(half)
    return (1.0 + half) * up - half * dn, 0.5 * (up - dn)


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Power series sum_k (x/2)^(2k) / (k!)^2, accumulated until the next
    term no longer changes the sum.  The arguments arising in this model
    are small (typically <= 1), where the series converges in a handful
    of terms; relative error stays below 1e-10 at least up to x = 50.
    """
    if x < 0.0:
        raise ValueError(f"bessel_i0 argument must be >= 0, got {x}")
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, 200):
        term *= q / (k * k)
        new_total = total + term
        if new_total == total:
            break
        total = new_total
    return total


def db_to_linear(value_db: float) -> float:
    """Convert a power ratio in dB to its linear equivalent, 10^(dB/10)."""
    return 10.0 ** (value_db / 10.0)


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` evenly spaced values from ``start`` to ``stop``, both included.

    Value i is ``i*step + start`` and the last is ``stop`` itself, the
    arithmetic of ``numpy.linspace``, so the grids match it bit for bit:
    ``num`` 0 gives [], 1 gives [start], and a negative ``num`` raises.
    One exception keeps the grid monotone from ``start`` to ``stop``: a
    value that rounding carries past ``stop`` is ``stop``.
    """
    if num < 0:
        raise ValueError(f"number of samples must be >= 0, got {num}")
    start, stop = float(start), float(stop)
    if num < 2:
        return [start] * num
    delta = stop - start
    step = delta / (num - 1)
    if step == 0.0:  # a subnormal range: scale delta by i/(num-1) instead, as numpy does
        values = [i / (num - 1) * delta + start for i in range(num)]
    else:
        values = [i * step + start for i in range(num)]
    values[-1] = stop
    # The formula values are monotone in i, so only the last few can pass
    # stop, as rounding can carry them in a subnormal range (numpy's too).
    i = num - 2
    while i > 0 and (stop < values[i] if delta > 0.0 else values[i] < stop):
        values[i] = stop
        i -= 1
    return values


def geomspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` log-spaced values from ``start`` to ``stop`` (both > 0), both exact.

    Each inner value is 10**v over ``linspace`` of the endpoints' log10;
    the endpoints are ``start`` and ``stop`` themselves.  The grid is
    monotone from ``start`` to ``stop``: the endpoints' log10 and each power
    round, which can move a value past its predecessor or an end when the
    points lie a few ulps apart, so each inner value is clamped between the
    value before it and ``stop``.
    """
    values = [10.0 ** v for v in linspace(math.log10(start), math.log10(stop), num)]
    if num > 0:
        values[0] = float(start)
    if num > 1:
        values[-1] = float(stop)
    if values != sorted(values, reverse=stop < start):  # a C-speed check of the rare case
        cap, floor = (min, max) if start <= stop else (max, min)
        for i in range(1, num - 1):
            values[i] = floor(values[i - 1], cap(values[i], values[-1]))
    return values
