"""Measurement analysis: baselines, change points, ratios, bootstrap intervals."""

from .baseline import BaselineStats, compare_to_inventory, summarise, summarise_streaming
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
    detect_single_streaming,
    segment_means,
    segment_means_streaming,
)
from .ratios import RatioEstimate, paired_ratio, ratio_of_means

__all__ = [
    "BaselineStats",
    "summarise",
    "summarise_streaming",
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
    "detect_single_streaming",
    "binary_segmentation",
    "segment_means",
    "segment_means_streaming",
    "RatioEstimate",
    "ratio_of_means",
    "paired_ratio",
]

