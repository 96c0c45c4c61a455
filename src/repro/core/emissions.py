"""Scope-2 / scope-3 emissions accounting (paper §2).

The paper splits facility emissions into:

* **Scope 2** — operational: electricity consumed × grid carbon intensity.
* **Scope 3** — embodied: manufacture, shipping and decommissioning,
  amortised over the service lifetime.

(There are no scope-1 emissions: the facility generates no energy on site.)

The paper defers the detailed ARCHER2 audit to future work but states the
regime conclusions; this module implements the accounting machinery with the
embodied total as an explicit parameter, defaulting to a published-literature
scale estimate (~10 ktCO₂e for an ARCHER2-class system — order of 1.5 tCO₂e
per dual-socket node plus fabric, storage and plant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..telemetry.series import TimeSeries
from ..units import SECONDS_PER_YEAR, ensure_positive, g_to_tonnes

__all__ = ["EmbodiedProfile", "EmissionsModel", "EmissionsBreakdown"]


@dataclass(frozen=True)
class EmbodiedProfile:
    """Scope-3 (embodied) emissions of the installed hardware.

    ``total_tco2e`` covers manufacture + shipping + decommissioning;
    ``lifetime_years`` is the service span the investment is amortised over.
    """

    total_tco2e: float = 10_000.0
    lifetime_years: float = 6.0

    def __post_init__(self) -> None:
        ensure_positive(self.total_tco2e, "total_tco2e")
        ensure_positive(self.lifetime_years, "lifetime_years")

    @property
    def annual_rate_tco2e(self) -> float:
        """Embodied emissions amortised per service year."""
        return self.total_tco2e / self.lifetime_years


@dataclass(frozen=True)
class EmissionsBreakdown:
    """Scope-2 and scope-3 totals for some accounting span."""

    scope2_tco2e: float
    scope3_tco2e: float

    @property
    def total_tco2e(self) -> float:
        """Combined emissions."""
        return self.scope2_tco2e + self.scope3_tco2e

    @property
    def scope2_share(self) -> float:
        """Operational fraction of total emissions."""
        total = self.total_tco2e
        return self.scope2_tco2e / total if total else 0.0


@dataclass(frozen=True)
class EmissionsModel:
    """Facility emissions model: an embodied profile plus a mean power draw."""

    embodied: EmbodiedProfile
    mean_power_kw: float

    def __post_init__(self) -> None:
        ensure_positive(self.mean_power_kw, "mean_power_kw")

    # -- scope 2 -----------------------------------------------------------

    def annual_energy_kwh(self) -> float:
        """Electricity consumed per service year at the mean power."""
        return self.mean_power_kw * SECONDS_PER_YEAR / 3600.0

    def scope2_tco2e_per_year(self, ci_g_per_kwh: float) -> float:
        """Annual operational emissions at a flat carbon intensity."""
        if ci_g_per_kwh < 0:
            raise ConfigurationError("carbon intensity must be non-negative")
        # lint: disable=REP104 -- tonnes over one accounting year IS the
        # per-year rate; the time division is implicit in annual_energy_kwh
        return g_to_tonnes(self.annual_energy_kwh() * ci_g_per_kwh)

    @staticmethod
    def scope2_from_series(
        power_kw: TimeSeries, ci_g_per_kwh: TimeSeries
    ) -> float:
        """Exact scope-2 tCO₂e from aligned power and CI series.

        Sample-by-sample product integration (each sample holds to the
        next); series must share timestamps.
        """
        if not np.array_equal(power_kw.times_s, ci_g_per_kwh.times_s):
            raise ConfigurationError("power and CI series must share timestamps")
        times = power_kw.times_s
        if len(times) < 2:
            raise ConfigurationError("need at least two samples to integrate")
        durations = np.diff(np.append(times, times[-1] + (times[-1] - times[-2])))
        kwh = np.nan_to_num(power_kw.values) * durations / 3600.0
        grams = np.dot(kwh, np.nan_to_num(ci_g_per_kwh.values))
        return g_to_tonnes(float(grams))

    # -- combined ------------------------------------------------------------

    def annual_breakdown(self, ci_g_per_kwh: float) -> EmissionsBreakdown:
        """Scope-2/scope-3 totals for one service year at flat CI."""
        return EmissionsBreakdown(
            scope2_tco2e=self.scope2_tco2e_per_year(ci_g_per_kwh),
            scope3_tco2e=self.embodied.annual_rate_tco2e,
        )

    def lifetime_breakdown(self, ci_g_per_kwh: float) -> EmissionsBreakdown:
        """Scope-2/scope-3 totals over the full service lifetime at flat CI."""
        years = self.embodied.lifetime_years
        return EmissionsBreakdown(
            scope2_tco2e=self.scope2_tco2e_per_year(ci_g_per_kwh) * years,
            scope3_tco2e=self.embodied.total_tco2e,
        )

    def crossover_ci_g_per_kwh(self) -> float:
        """Carbon intensity at which scope 2 equals scope 3.

        For an ARCHER2-scale system (≈3.5 MW facility, ≈10 ktCO₂e embodied
        over 6 years) this lands near 55 gCO₂/kWh — squarely inside the
        paper's 30–100 "balanced" band, whose edges correspond to scope-2 ≈
        half/double scope-3 (see :mod:`repro.core.regimes`).
        """
        return (
            self.embodied.annual_rate_tco2e * 1e6 / self.annual_energy_kwh()
        )
