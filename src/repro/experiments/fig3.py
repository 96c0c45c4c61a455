"""Experiment F3 — paper Figure 3: the 2.0 GHz default change, Nov–Dec 2022.

Two-month campaign starting from the post-BIOS state (Performance
Determinism) with the default-frequency intervention at the mid-point. The
paper reports 3,010 → 2,530 kW (−480 kW, −15 % of the original baseline).
The curated module-reset policy (>10 % impact apps back to 2.25 GHz+turbo)
is active, as on the real service.
"""

from __future__ import annotations

from ..analysis.changepoint import detect_single
from ..core.campaign import run_campaign
from ..core.interventions import DefaultFrequencyChange, InterventionSchedule
from ..core.reporting import format_kw, render_table
from ..facility.archer2 import (
    ARCHER2_POST_BIOS_CABINET_POWER_KW,
    ARCHER2_POST_FREQ_CABINET_POWER_KW,
)
from ..units import SECONDS_PER_DAY
from .common import (
    ExperimentResult,
    FIG23_CHANGE_S,
    FIG23_DURATION_S,
    figure_campaign_config,
    post_bios_operating_state,
)

__all__ = ["run", "PAPER_BEFORE_KW", "PAPER_AFTER_KW"]

PAPER_BEFORE_KW = ARCHER2_POST_BIOS_CABINET_POWER_KW
PAPER_AFTER_KW = ARCHER2_POST_FREQ_CABINET_POWER_KW


def run(
    duration_s: float = FIG23_DURATION_S,
    change_s: float = FIG23_CHANGE_S,
    seed: int = 2023,
) -> ExperimentResult:
    """Simulate the frequency-change window and assess the impact."""
    schedule = InterventionSchedule(
        post_bios_operating_state(), [DefaultFrequencyChange(time_s=change_s)]
    )
    config = figure_campaign_config(duration_s, schedule, seed)
    result = run_campaign(config)
    impact = result.impacts()[0]
    detected = detect_single(result.measured_kw)
    setting_split = result.simulation.node_hours_by_setting()
    total_nodeh = sum(setting_split.values())
    low_share = setting_split.get("2.0GHz", 0.0) / total_nodeh if total_nodeh else 0.0

    rows = [
        ["Mean before", f"{format_kw(impact.mean_before)} kW (paper {format_kw(PAPER_BEFORE_KW)})"],
        ["Mean after", f"{format_kw(impact.mean_after)} kW (paper {format_kw(PAPER_AFTER_KW)})"],
        ["Saving", f"{format_kw(impact.saving)} kW ({impact.relative_saving * 100:.1f}%)"],
        ["Paper saving", f"{format_kw(PAPER_BEFORE_KW - PAPER_AFTER_KW)} kW (16.0% of 3,010)"],
        ["True change day", f"{change_s / SECONDS_PER_DAY:.1f}"],
        ["Detected change day", f"{detected.time_s / SECONDS_PER_DAY:.1f}"],
        ["Node-hours at 2.0 GHz (whole window)", f"{low_share * 100:.0f}%"],
    ]
    table = render_table(
        ["Quantity", "Value"], rows, title="Figure 3: default CPU frequency change"
    )
    return ExperimentResult(
        experiment_id="F3",
        title="Default-frequency power-draw change (paper Figure 3)",
        table=table,
        headline={
            "mean_before_kw": impact.mean_before,
            "mean_after_kw": impact.mean_after,
            "saving_kw": impact.saving,
            "relative_saving": impact.relative_saving,
            "paper_saving_kw": PAPER_BEFORE_KW - PAPER_AFTER_KW,
            "detected_change_day": detected.time_s / SECONDS_PER_DAY,
            "true_change_day": change_s / SECONDS_PER_DAY,
            "low_freq_nodeh_share": low_share,
        },
        series={"measured_kw": result.measured_kw},
    )
