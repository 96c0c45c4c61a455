"""Single-axis emissions-scenario sweeps (paper §2 quantified).

Sweeps carbon intensity, embodied totals and lifetimes through the emissions
model to map where each regime applies and what the optimal operating
posture is — the quantitative backing for the paper's qualitative §2
discussion and the R1 bench.

These are the one-dimensional companions to the full grid engine
(:mod:`repro.engine.plan` / :mod:`repro.engine.runner`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.emissions import EmbodiedProfile, EmissionsModel
from ..core.regimes import OptimisationTarget, Regime, advice, classify_ci, derive_band
from ..errors import AnalysisError

__all__ = ["ScenarioPoint", "ci_sweep", "lifetime_sensitivity", "regime_boundaries_map"]


@dataclass(frozen=True)
class ScenarioPoint:
    """One CI point of a scenario sweep."""

    ci_g_per_kwh: float
    scope2_tco2e_per_year: float
    scope3_tco2e_per_year: float
    scope2_share: float
    regime: Regime
    target: OptimisationTarget


def ci_sweep(
    model: EmissionsModel,
    ci_values_g_per_kwh: np.ndarray,
) -> list[ScenarioPoint]:
    """Evaluate the emissions balance at each carbon intensity."""
    ci_values = np.asarray(ci_values_g_per_kwh, dtype=float)
    if ci_values.ndim != 1 or len(ci_values) == 0:
        raise AnalysisError("ci_values must be a non-empty 1-D array")
    points: list[ScenarioPoint] = []
    scope3 = model.embodied.annual_rate_tco2e
    for ci in ci_values:
        scope2 = model.scope2_tco2e_per_year(float(ci))
        regime = classify_ci(float(ci))
        points.append(
            ScenarioPoint(
                ci_g_per_kwh=float(ci),
                scope2_tco2e_per_year=scope2,
                scope3_tco2e_per_year=scope3,
                scope2_share=scope2 / (scope2 + scope3),
                regime=regime,
                target=advice(regime),
            )
        )
    return points


def lifetime_sensitivity(
    mean_power_kw: float,
    embodied_tco2e: float,
    lifetimes_years: np.ndarray,
) -> dict[float, float]:
    """Scope-2/scope-3 crossover CI as a function of service lifetime.

    Longer service lives amortise embodied emissions further, pulling the
    crossover down — the §2 argument for "extracting the most output from
    each node hour for as long as possible".
    """
    out: dict[float, float] = {}
    for life in np.asarray(lifetimes_years, dtype=float):
        model = EmissionsModel(
            embodied=EmbodiedProfile(total_tco2e=embodied_tco2e, lifetime_years=float(life)),
            mean_power_kw=mean_power_kw,
        )
        out[float(life)] = model.crossover_ci_g_per_kwh()
    return out


def regime_boundaries_map(
    mean_power_kw: float,
    embodied_values_tco2e: np.ndarray,
    lifetime_years: float = 6.0,
    dominance_factor: float = 2.0,
) -> list[dict[str, float]]:
    """Derived [low, high] band for a range of embodied-emission estimates.

    Shows how robust the paper's 30/100 boundaries are to the (uncertain,
    deferred-to-future-work) embodied audit.
    """
    rows: list[dict[str, float]] = []
    for embodied in np.asarray(embodied_values_tco2e, dtype=float):
        model = EmissionsModel(
            embodied=EmbodiedProfile(
                total_tco2e=float(embodied), lifetime_years=lifetime_years
            ),
            mean_power_kw=mean_power_kw,
        )
        band = derive_band(model, dominance_factor)
        rows.append(
            {
                "embodied_tco2e": float(embodied),
                "low_ci": band.low_ci_g_per_kwh,
                "crossover_ci": band.crossover_ci_g_per_kwh,
                "high_ci": band.high_ci_g_per_kwh,
            }
        )
    return rows
