"""Measurement analysis: baselines and change points."""

from .baseline import BaselineStats, compare_to_inventory, summarise
from .changepoint import ChangePoint, detect_single, segment_means

__all__ = [
    "BaselineStats",
    "summarise",
    "compare_to_inventory",
    "ChangePoint",
    "detect_single",
    "segment_means",
]
