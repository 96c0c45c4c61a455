"""Measurement analysis: baselines, change points, ratios, bootstrap intervals."""

from .baseline import BaselineStats, compare_to_inventory, summarise
from .autocorrelation import (
    AutocorrelationSummary,
    autocorrelation_function,
    integrated_autocorrelation_time,
    summarise_autocorrelation,
)
from .bootstrap import BootstrapInterval, block_bootstrap_mean, bootstrap_impact_delta
from .changepoint import (
    ChangePoint,
    binary_segmentation,
    cusum_statistic,
    detect_single,
    segment_means,
)
from .ratios import RatioEstimate, paired_ratio, ratio_of_means

__all__ = [
    "BaselineStats",
    "summarise",
    "compare_to_inventory",
    "AutocorrelationSummary",
    "autocorrelation_function",
    "integrated_autocorrelation_time",
    "summarise_autocorrelation",
    "BootstrapInterval",
    "block_bootstrap_mean",
    "bootstrap_impact_delta",
    "ChangePoint",
    "cusum_statistic",
    "detect_single",
    "binary_segmentation",
    "segment_means",
    "RatioEstimate",
    "ratio_of_means",
    "paired_ratio",
]

