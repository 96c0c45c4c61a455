"""Experiment F1 — paper Figure 1: baseline cabinet power, Dec 2021 – Apr 2022.

Runs a five-month baseline campaign (Power Determinism, 2.25 GHz+turbo,
Christmas dip in the arrival stream) and reports the mean compute-cabinet
power — the paper's orange line at 3,220 kW — plus utilisation and the
inventory sanity check that the mean sits below the Table 2 full-load sum.
"""

from __future__ import annotations

from ..analysis.baseline import compare_to_inventory, summarise
from ..core.campaign import run_campaign
from ..core.interventions import InterventionSchedule
from ..core.reporting import format_kw, render_table
from ..facility.archer2 import ARCHER2_BASELINE_CABINET_POWER_KW
from .common import (
    CHRISTMAS_WINDOW_S,
    ExperimentResult,
    FIG1_DURATION_S,
    baseline_operating_state,
    figure_campaign_config,
)

__all__ = ["run", "PAPER_MEAN_KW"]

PAPER_MEAN_KW = ARCHER2_BASELINE_CABINET_POWER_KW


def run(
    duration_s: float = FIG1_DURATION_S,
    seed: int = 2021,
    holidays: tuple[tuple[float, float], ...] = (CHRISTMAS_WINDOW_S,),
) -> ExperimentResult:
    """Simulate the baseline window and summarise it.

    The default window includes the Christmas/New-Year arrival dip visible
    in the real Figure 1; pass ``holidays=()`` for an undisturbed baseline
    (useful for short windows where ten holiday days would dominate).
    """
    schedule = InterventionSchedule(baseline_operating_state())
    config = figure_campaign_config(duration_s, schedule, seed, holidays=holidays)
    result = run_campaign(config)
    # Streaming path: the baseline mean never needs the series resident,
    # so the same call scales to arbitrarily long measurement windows.
    stats = summarise(result.measured_kw)
    inventory_check = compare_to_inventory(
        summarise(result.measured_kw.scale_values(1e3)), config.inventory
    )
    rows = [
        ["Mean cabinet power", f"{format_kw(stats.mean)} kW"],
        ["Paper mean", f"{format_kw(PAPER_MEAN_KW)} kW"],
        ["Std deviation", f"{format_kw(stats.std)} kW"],
        ["5th / 95th percentile", f"{format_kw(stats.p5)} / {format_kw(stats.p95)} kW"],
        ["Window", f"{stats.span_days:.0f} days"],
        ["Mean node utilisation", f"{result.utilisation() * 100:.1f}%"],
        [
            "Fraction of Table 2 full load",
            f"{inventory_check['fraction_of_loaded'] * 100:.1f}%",
        ],
    ]
    table = render_table(
        ["Quantity", "Value"], rows, title="Figure 1: baseline power draw"
    )
    return ExperimentResult(
        experiment_id="F1",
        title="Baseline compute-cabinet power (paper Figure 1)",
        table=table,
        headline={
            "mean_kw": stats.mean,
            "paper_mean_kw": PAPER_MEAN_KW,
            "relative_error": (stats.mean - PAPER_MEAN_KW) / PAPER_MEAN_KW,
            "utilisation": result.utilisation(),
            "fraction_of_loaded": inventory_check["fraction_of_loaded"],
        },
        series={"measured_kw": result.measured_kw, "true_kw": result.true_kw},
    )
