"""Experiment C1 — paper §5 headline numbers.

Runs a single continuous campaign through both interventions and reports
the paper's conclusion figures: −210 kW (6.5 %) from the BIOS change,
−480 kW (15 %) from the frequency change, −690 kW (21 %) cumulative against
the 3,220 kW baseline.
"""

from __future__ import annotations

from ..core.campaign import run_campaign
from ..core.interventions import (
    BiosDeterminismChange,
    DefaultFrequencyChange,
    InterventionSchedule,
)
from ..core.reporting import format_kw, render_table
from ..facility.archer2 import (
    ARCHER2_BASELINE_CABINET_POWER_KW,
    ARCHER2_POST_BIOS_CABINET_POWER_KW,
    ARCHER2_POST_FREQ_CABINET_POWER_KW,
)
from ..units import SECONDS_PER_DAY
from .common import ExperimentResult, baseline_operating_state, figure_campaign_config

__all__ = ["run", "PAPER"]

#: Paper §5: baseline, post-BIOS, post-frequency means (kW).
PAPER = {
    "baseline_kw": ARCHER2_BASELINE_CABINET_POWER_KW,
    "post_bios_kw": ARCHER2_POST_BIOS_CABINET_POWER_KW,
    "post_freq_kw": ARCHER2_POST_FREQ_CABINET_POWER_KW,
}


def run(
    phase_days: float = 30.0,
    seed: int = 17,
) -> ExperimentResult:
    """One campaign spanning all three phases (each ``phase_days`` long)."""
    phase_s = phase_days * SECONDS_PER_DAY
    schedule = InterventionSchedule(
        baseline_operating_state(),
        [
            BiosDeterminismChange(time_s=phase_s),
            DefaultFrequencyChange(time_s=2 * phase_s),
        ],
    )
    config = figure_campaign_config(3 * phase_s, schedule, seed)
    result = run_campaign(config)
    baseline, post_bios, post_freq = result.phase_means_kw()

    bios_saving = baseline - post_bios
    freq_saving = post_bios - post_freq
    total_saving = baseline - post_freq
    rows = [
        [
            "Baseline mean",
            f"{format_kw(baseline)} kW",
            f"{format_kw(PAPER['baseline_kw'])} kW",
        ],
        [
            "After BIOS change",
            f"{format_kw(post_bios)} kW (-{format_kw(bios_saving)}, "
            f"{bios_saving / baseline * 100:.1f}%)",
            f"{format_kw(PAPER['post_bios_kw'])} kW (-210, 6.5%)",
        ],
        [
            "After frequency change",
            f"{format_kw(post_freq)} kW (-{format_kw(freq_saving)}, "
            f"{freq_saving / post_bios * 100:.1f}% of post-BIOS)",
            f"{format_kw(PAPER['post_freq_kw'])} kW (-480, 15% of baseline)",
        ],
        [
            "Cumulative saving",
            f"{format_kw(total_saving)} kW ({total_saving / baseline * 100:.1f}%)",
            "690 kW (21%)",
        ],
    ]
    table = render_table(
        ["Phase", "Simulated", "Paper"], rows, title="Conclusions: combined savings"
    )
    return ExperimentResult(
        experiment_id="C1",
        title="Combined intervention savings (paper §5)",
        table=table,
        headline={
            "baseline_kw": baseline,
            "post_bios_kw": post_bios,
            "post_freq_kw": post_freq,
            "bios_saving_kw": bios_saving,
            "freq_saving_kw": freq_saving,
            "total_saving_kw": total_saving,
            "total_relative_saving": total_saving / baseline,
            "paper_total_relative_saving": (
                ARCHER2_BASELINE_CABINET_POWER_KW - ARCHER2_POST_FREQ_CABINET_POWER_KW
            )
            / ARCHER2_BASELINE_CABINET_POWER_KW,
        },
        series={"measured_kw": result.measured_kw},
    )
