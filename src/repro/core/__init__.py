"""Core contribution: emissions accounting, regimes, efficiency, interventions.

This package implements the paper's methodology on top of the substrate
packages: the §2 scope-2/scope-3 framework and regime rules, the §4
intervention machinery with §3-style impact measurement, and the §5
priority-driven decision framework.
"""

from .campaign import CampaignConfig, CampaignResult, run_campaign
from .carbon_aware import ShiftingOutcome, optimal_shift_savings
from .decision import (
    ARCHER2_WINTER_2022,
    DecisionEngine,
    OperatingPointScore,
    Priorities,
)
from .efficiency import (
    BASELINE_CONFIG,
    POST_BIOS_CONFIG,
    POST_FREQ_CONFIG,
    BenchmarkComparison,
    OperatingConfig,
    compare_app,
    comparison_table,
)
from .emissions import EmbodiedProfile, EmissionsBreakdown, EmissionsModel
from .lifetime import LifetimeCostModel, LifetimePosition
from .interventions import (
    BiosDeterminismChange,
    DefaultFrequencyChange,
    Intervention,
    InterventionImpact,
    InterventionSchedule,
    OperatingState,
    ScheduledEnvironment,
    assess_impact,
)
from .regimes import (
    PAPER_HIGH_CI,
    PAPER_LOW_CI,
    OptimisationTarget,
    Regime,
    RegimeBand,
    advice,
    classify_ci,
    derive_band,
)
from .reporting import format_kw, format_ratio, render_table
from .surrogate import SurrogateOutcome, SurrogateScenario, evaluate_surrogate
from .validation import Check, ValidationReport, validate_reproduction

__all__ = [
    "EmbodiedProfile",
    "EmissionsModel",
    "EmissionsBreakdown",
    "Regime",
    "OptimisationTarget",
    "PAPER_LOW_CI",
    "PAPER_HIGH_CI",
    "classify_ci",
    "advice",
    "RegimeBand",
    "derive_band",
    "OperatingConfig",
    "BASELINE_CONFIG",
    "POST_BIOS_CONFIG",
    "POST_FREQ_CONFIG",
    "BenchmarkComparison",
    "compare_app",
    "comparison_table",
    "OperatingState",
    "Intervention",
    "BiosDeterminismChange",
    "DefaultFrequencyChange",
    "InterventionSchedule",
    "ScheduledEnvironment",
    "InterventionImpact",
    "assess_impact",
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "ShiftingOutcome",
    "LifetimeCostModel",
    "LifetimePosition",
    "optimal_shift_savings",
    "Priorities",
    "OperatingPointScore",
    "DecisionEngine",
    "ARCHER2_WINTER_2022",
    "render_table",
    "SurrogateScenario",
    "SurrogateOutcome",
    "evaluate_surrogate",
    "Check",
    "ValidationReport",
    "validate_reproduction",
    "format_ratio",
    "format_kw",
]
