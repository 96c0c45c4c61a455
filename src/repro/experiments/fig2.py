"""Experiment F2 — paper Figure 2: the BIOS determinism change, Apr–May 2022.

Two-month campaign with the Power→Performance Determinism intervention at
the mid-point. The paper reports 3,220 → 3,010 kW (−210 kW, −6.5 %); the
change-point detector must also recover the intervention time from the
telemetry alone.
"""

from __future__ import annotations

from ..analysis.changepoint import detect_single
from ..core.campaign import run_campaign
from ..core.interventions import BiosDeterminismChange, InterventionSchedule
from ..core.reporting import format_kw, render_table
from ..facility.archer2 import (
    ARCHER2_BASELINE_CABINET_POWER_KW,
    ARCHER2_POST_BIOS_CABINET_POWER_KW,
)
from ..units import SECONDS_PER_DAY
from .common import (
    ExperimentResult,
    FIG23_CHANGE_S,
    FIG23_DURATION_S,
    baseline_operating_state,
    figure_campaign_config,
)

__all__ = ["run", "PAPER_BEFORE_KW", "PAPER_AFTER_KW"]

PAPER_BEFORE_KW = ARCHER2_BASELINE_CABINET_POWER_KW
PAPER_AFTER_KW = ARCHER2_POST_BIOS_CABINET_POWER_KW


def run(
    duration_s: float = FIG23_DURATION_S,
    change_s: float = FIG23_CHANGE_S,
    seed: int = 123,
) -> ExperimentResult:
    """Simulate the BIOS-change window and assess the impact."""
    schedule = InterventionSchedule(
        baseline_operating_state(), [BiosDeterminismChange(time_s=change_s)]
    )
    config = figure_campaign_config(duration_s, schedule, seed)
    result = run_campaign(config)
    impact = result.impacts()[0]
    detected = detect_single(result.measured_kw)

    rows = [
        ["Mean before", f"{format_kw(impact.mean_before)} kW (paper {format_kw(PAPER_BEFORE_KW)})"],
        ["Mean after", f"{format_kw(impact.mean_after)} kW (paper {format_kw(PAPER_AFTER_KW)})"],
        ["Saving", f"{format_kw(impact.saving)} kW ({impact.relative_saving * 100:.1f}%)"],
        ["Paper saving", f"{format_kw(PAPER_BEFORE_KW - PAPER_AFTER_KW)} kW (6.5%)"],
        ["True change day", f"{change_s / SECONDS_PER_DAY:.1f}"],
        ["Detected change day", f"{detected.time_s / SECONDS_PER_DAY:.1f}"],
        ["Detection significance", f"{detected.significance:.1f}"],
    ]
    table = render_table(
        ["Quantity", "Value"], rows, title="Figure 2: BIOS determinism change"
    )
    return ExperimentResult(
        experiment_id="F2",
        title="BIOS determinism power-draw change (paper Figure 2)",
        table=table,
        headline={
            "mean_before_kw": impact.mean_before,
            "mean_after_kw": impact.mean_after,
            "saving_kw": impact.saving,
            "relative_saving": impact.relative_saving,
            "paper_saving_kw": PAPER_BEFORE_KW - PAPER_AFTER_KW,
            "detected_change_day": detected.time_s / SECONDS_PER_DAY,
            "true_change_day": change_s / SECONDS_PER_DAY,
        },
        series={"measured_kw": result.measured_kw},
    )
