"""Unit-safe conversion helpers.

The library keeps a small set of canonical internal units and converts at the
boundary:

========== ==================== =========================
Quantity   Canonical unit        Common alternates
========== ==================== =========================
power      watt (W)              kW, MW
energy     joule (J)             Wh, kWh, MWh, kW·h
time       second (s)            minute, hour, day, month
emissions  gram CO₂e (g)         kg, tonne
intensity  gCO₂e per kWh         kg/MWh (numerically equal)
========== ==================== =========================

Functions are deliberately tiny and total: they accept floats or numpy arrays
and return the same type (numpy broadcasting applies). Negative values are
rejected for physically non-negative quantities via :func:`ensure_nonnegative`
at construction sites, not inside every converter, so the converters stay
vectorisation-friendly.
"""

from __future__ import annotations

from numbers import Real
from typing import TypeVar

import numpy as np

from .errors import UnitError

__all__ = [
    "SECONDS_PER_MINUTE",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_DAY",
    "SECONDS_PER_WEEK",
    "SECONDS_PER_MONTH",
    "SECONDS_PER_YEAR",
    "JOULES_PER_KWH",
    "j_to_kwh",
    "g_to_tonnes",
    "emissions_g",
    "is_number",
    "ensure_nonnegative",
    "ensure_positive",
    "ensure_fraction",
]

_T = TypeVar("_T", float, np.ndarray)

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86_400.0
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY
#: Mean Gregorian month (365.2425 / 12 days) — used for coarse campaign spans.
SECONDS_PER_MONTH = 365.2425 / 12.0 * SECONDS_PER_DAY
SECONDS_PER_YEAR = 365.2425 * SECONDS_PER_DAY

JOULES_PER_KWH = 3.6e6


# --- conversions -----------------------------------------------------------

def j_to_kwh(value_j: _T) -> _T:
    """Convert joules to kilowatt-hours."""
    return value_j / JOULES_PER_KWH


def g_to_tonnes(grams: _T) -> _T:
    """Convert grams to metric tonnes."""
    return grams / 1e6


def emissions_g(energy_j_: _T, intensity_gco2_per_kwh: _T) -> _T:
    """Operational (scope 2) emissions in grams CO₂e.

    Parameters
    ----------
    energy_j_:
        Electrical energy consumed, in joules.
    intensity_gco2_per_kwh:
        Grid carbon intensity, in gCO₂e per kWh.
    """
    return j_to_kwh(energy_j_) * intensity_gco2_per_kwh


# --- validation -----------------------------------------------------------

def is_number(value: object) -> bool:
    """Whether ``value`` is a real number: not a bool, a string, None or a container.

    Plain ints and floats, all that a JSON parser yields, pass a type check;
    anything else falls back to ``numbers.Real`` (numpy scalars included),
    whose ABC check is several times slower.
    """
    return type(value) in (int, float) or (
        not isinstance(value, bool) and isinstance(value, Real)
    )


def ensure_nonnegative(value: float, name: str) -> float:
    """Return ``value`` unchanged, raising :class:`UnitError` if negative or NaN."""
    if not np.isfinite(value) or value < 0:
        raise UnitError(f"{name} must be a finite non-negative number, got {value!r}")
    return float(value)


def ensure_positive(value: float, name: str) -> float:
    """Return ``value`` unchanged, raising :class:`UnitError` unless strictly positive."""
    if not np.isfinite(value) or value <= 0:
        raise UnitError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def ensure_fraction(value: float, name: str) -> float:
    """Return ``value`` unchanged, raising :class:`UnitError` unless in [0, 1]."""
    if not np.isfinite(value) or not 0.0 <= value <= 1.0:
        raise UnitError(f"{name} must be within [0, 1], got {value!r}")
    return float(value)
