"""Mean-shift change-point detection for power telemetry.

The paper's Figures 2 and 3 show step changes in cabinet power when each
intervention rolled out. Recovering the change time and the before/after
means *from the telemetry* (rather than from operator logs) is the analysis
this module provides:

* :func:`detect_single` — exact maximum-likelihood single change point for a
  Gaussian mean-shift model, O(n) via chunked prefix sums.
* :func:`segment_means` — before/after means at known change times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from ..telemetry.series import TimeSeries
from ..telemetry.streaming import (
    DEFAULT_CHUNK_SIZE,
    ChunkedSeriesReader,
    OnlineStats,
    as_chunk_reader,
)

__all__ = ["ChangePoint", "detect_single", "segment_means"]


@dataclass(frozen=True)
class ChangePoint:
    """A detected mean shift."""

    index: int
    time_s: float
    mean_before: float
    mean_after: float
    significance: float  # standardised |CUSUM| peak height


def detect_single(
    source: "TimeSeries | str | ChunkedSeriesReader",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> ChangePoint:
    """Maximum-likelihood single mean-shift location, chunk-bounded memory.

    Scans every split of the series, choosing the one minimising the pooled
    within-segment sum of squares — equivalently, maximising the
    between-segment sum of squares. Pass one accumulates the global count,
    mean and σ with :class:`OnlineStats`; pass two walks the prefix sums
    chunk by chunk, tracking the best split and the standardised CUSUM
    peak. The source must therefore be re-iterable: a series, a telemetry
    CSV/NPZ path, or a :class:`ChunkedSeriesReader`.
    """
    reader = as_chunk_reader(source, chunk_size)
    stats = OnlineStats()
    for chunk in reader:
        stats.update(chunk.times_s, chunk.values)
    n = stats.n_valid
    if n < 4:
        raise AnalysisError("need at least 4 valid samples for change detection")
    mean, sigma = stats.mean, stats.std
    total = mean * n

    seen = 0  # valid samples consumed before the current chunk
    prev_sum = 0.0  # prefix sum over those samples
    best_between = -np.inf
    best_k = 0
    best_time = np.nan
    best_prefix = 0.0
    cusum_peak = 0.0
    for chunk in reader:
        valid = ~np.isnan(chunk.values)
        vv = chunk.values[valid]
        m = len(vv)
        if m == 0:
            continue
        tv = chunk.times_s[valid]
        prefix = prev_sum + np.cumsum(vv)  # s_k for k = seen+1 .. seen+m
        if sigma > 0:
            ks = seen + np.arange(1, m + 1)
            cusum_peak = max(
                cusum_peak,
                float(np.abs(prefix - ks * mean).max()) / (sigma * np.sqrt(n)),
            )
        # Candidate splits whose right segment starts inside this chunk:
        # k = seen + i leaves the first k samples on the left and puts
        # tv[i] first on the right, with prefix sum s_k.
        k_arr = seen + np.arange(m)
        s_arr = np.concatenate(([prev_sum], prefix[:-1]))
        keep = (k_arr >= 1) & (k_arr <= n - 1)
        if np.any(keep):
            k = k_arr[keep]
            s = s_arr[keep]
            between = k * (n - k) / n * (s / k - (total - s) / (n - k)) ** 2
            i = int(np.argmax(between))
            if between[i] > best_between:
                best_between = float(between[i])
                best_k = int(k[i])
                best_time = float(tv[keep][i])
                best_prefix = float(s[i])
        seen += m
        prev_sum = float(prefix[-1])
    return ChangePoint(
        index=best_k,
        time_s=best_time,
        mean_before=best_prefix / best_k,
        mean_after=(total - best_prefix) / (n - best_k),
        significance=cusum_peak,
    )


def segment_means(
    source: "TimeSeries | str | ChunkedSeriesReader",
    change_times_s: list[float],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[float]:
    """Mean of each segment delimited by known change times, in one pass.

    Used when the intervention time is known from operator logs (as in the
    paper) rather than estimated: the Figures 2/3 before/after means.
    Accumulates a per-segment sum and count as chunks stream through, so
    the series never needs to be resident.
    """
    boundaries = np.array([-np.inf, *sorted(change_times_s), np.inf])
    sums = np.zeros(len(boundaries) - 1)
    counts = np.zeros(len(boundaries) - 1, dtype=int)
    total_valid = 0
    for chunk in as_chunk_reader(source, chunk_size):
        valid = ~np.isnan(chunk.values)
        vv = chunk.values[valid]
        if len(vv) == 0:
            continue
        total_valid += len(vv)
        segment = np.searchsorted(boundaries, chunk.times_s[valid], side="right") - 1
        np.add.at(sums, segment, vv)
        np.add.at(counts, segment, 1)
    if total_valid < 4:
        raise AnalysisError("need at least 4 valid samples for change detection")
    means: list[float] = []
    for i, count in enumerate(counts):
        if count == 0:
            raise AnalysisError(
                f"no samples in segment [{boundaries[i]}, {boundaries[i + 1]})"
            )
        means.append(float(sums[i] / count))
    return means
