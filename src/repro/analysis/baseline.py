"""Baseline power statistics (paper §3.2).

The paper characterises the service's baseline as the mean compute-cabinet
power over a multi-month window (3,220 kW for Dec 2021 – Apr 2022, the
orange line in Figure 1). This module computes that mean plus the spread
statistics needed to judge whether later differences are real, and compares
measured baselines against the inventory's bounding values (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AnalysisError
from ..facility.inventory import FacilityInventory
from ..telemetry.series import TimeSeries
from ..telemetry.streaming import (
    DEFAULT_CHUNK_SIZE,
    ChunkedSeriesReader,
    MergingQuantileSketch,
    OnlineStats,
    as_chunk_reader,
)

__all__ = ["BaselineStats", "summarise", "compare_to_inventory"]


@dataclass(frozen=True)
class BaselineStats:
    """Summary statistics of a power series (all in the series' unit)."""

    mean: float
    std: float
    p5: float
    median: float
    p95: float
    minimum: float
    maximum: float
    n_samples: int
    span_days: float


def summarise(
    source: "TimeSeries | str | ChunkedSeriesReader",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> BaselineStats:
    """Baseline statistics over a (possibly gappy) power series, in one pass.

    Mean, standard deviation, min/max, count and span come from an
    :class:`OnlineStats` accumulator and match the batch
    :class:`TimeSeries` statistics to float accumulation error. The three
    percentiles come from one :class:`MergingQuantileSketch`: equal to
    ``np.nanpercentile`` below 16,384 valid samples (one sketch block),
    within the sketch's stated rank error beyond. Accepts anything
    :func:`~repro.telemetry.streaming.as_chunk_reader` does — an in-memory
    series, a telemetry CSV/NPZ path, or a reader — with chunk-bounded
    memory.
    """
    reader = as_chunk_reader(source, chunk_size)
    stats = OnlineStats(name=reader.name)
    quantiles = MergingQuantileSketch()
    for chunk in reader:
        stats.update(chunk.times_s, chunk.values)
        quantiles.update(chunk.values)
    if stats.n_valid == 0:
        raise AnalysisError(f"series {reader.name!r} has no valid samples")
    return BaselineStats(
        mean=stats.mean,
        std=stats.std,
        p5=quantiles.result(0.05),
        median=quantiles.result(0.5),
        p95=quantiles.result(0.95),
        minimum=stats.minimum,
        maximum=stats.maximum,
        n_samples=stats.n_valid,
        span_days=stats.span_s / 86_400.0,
    )


def compare_to_inventory(
    stats: BaselineStats, inventory: FacilityInventory
) -> dict[str, float]:
    """Relate a measured cabinet baseline to Table 2 bounding values.

    Returns the measured mean as a fraction of the inventory's fully loaded
    and idle compute-cabinet power — the §3.2 sanity check that the mean sits
    below full load (scheduling overheads) but far above idle (busy service).
    ``stats`` must be in watts.
    """
    loaded = inventory.compute_cabinet_power_w(1.0)
    idle = inventory.compute_cabinet_power_w(0.0)
    if loaded <= 0:
        raise AnalysisError("inventory has no compute-cabinet power")
    return {
        "measured_mean_w": stats.mean,
        "inventory_loaded_w": loaded,
        "inventory_idle_w": idle,
        "fraction_of_loaded": stats.mean / loaded,
        "fraction_of_idle": stats.mean / idle if idle else float("inf"),
    }
