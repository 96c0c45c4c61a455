"""Workload substrate: roofline execution models, app profiles, job streams."""

from .applications import (
    AppProfile,
    CALIBRATION_LOW_GHZ,
    CALIBRATION_REFERENCE_GHZ,
    TABLE3_PAPER_ROWS,
    TABLE4_PAPER_ROWS,
    full_catalogue,
    paper_bios_benchmarks,
    paper_curated_apps,
    paper_frequency_benchmarks,
    synthetic_archetypes,
)
from .generator import JobStreamConfig, JobStreamGenerator
from .jobs import Job, JobRecord
from .mix import WorkloadMix, archer2_mix
from .toolchain import (
    REFERENCE_TOOLCHAINS,
    Toolchain,
    apply_toolchain,
    frequency_sensitivity_shift,
)
from .roofline import (
    ExecutionProfile,
    RooflineModel,
    compute_fraction_from_arithmetic_intensity,
    compute_fraction_from_perf_ratio,
)

__all__ = [
    "RooflineModel",
    "ExecutionProfile",
    "compute_fraction_from_perf_ratio",
    "compute_fraction_from_arithmetic_intensity",
    "AppProfile",
    "paper_frequency_benchmarks",
    "paper_bios_benchmarks",
    "paper_curated_apps",
    "synthetic_archetypes",
    "full_catalogue",
    "TABLE3_PAPER_ROWS",
    "TABLE4_PAPER_ROWS",
    "CALIBRATION_LOW_GHZ",
    "CALIBRATION_REFERENCE_GHZ",
    "Job",
    "JobRecord",
    "WorkloadMix",
    "archer2_mix",
    "Toolchain",
    "REFERENCE_TOOLCHAINS",
    "apply_toolchain",
    "frequency_sensitivity_shift",
    "JobStreamConfig",
    "JobStreamGenerator",
]
