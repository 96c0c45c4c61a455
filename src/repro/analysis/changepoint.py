"""Mean-shift change-point detection for power telemetry.

The paper's Figures 2 and 3 show step changes in cabinet power when each
intervention rolled out. Recovering the change time and the before/after
means *from the telemetry* (rather than from operator logs) is the analysis
this module provides:

* :func:`detect_single` — exact maximum-likelihood single change point for a
  Gaussian mean-shift model, O(n) via chunked prefix sums.
* :func:`segment_means` — before/after means at known change times.
* :func:`binary_segmentation` — recursive multi-change detection with a
  BIC-style penalty.
* :func:`cusum_statistic` — the standardised CUSUM curve, useful for plots
  and for significance checks.
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

__all__ = [
    "ChangePoint",
    "cusum_statistic",
    "detect_single",
    "binary_segmentation",
    "segment_means",
]


@dataclass(frozen=True)
class ChangePoint:
    """A detected mean shift."""

    index: int
    time_s: float
    mean_before: float
    mean_after: float
    significance: float  # standardised |CUSUM| peak height

    @property
    def delta(self) -> float:
        """Mean shift (after − before), series units."""
        return self.mean_after - self.mean_before

    @property
    def relative_change(self) -> float:
        """Shift as a fraction of the before-mean."""
        if self.mean_before == 0:
            return float("inf")
        return self.delta / self.mean_before


def _clean(series: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
    valid = ~np.isnan(series.values)
    if np.count_nonzero(valid) < 4:
        raise AnalysisError("need at least 4 valid samples for change detection")
    return series.times_s[valid], series.values[valid]


def cusum_statistic(series: TimeSeries) -> np.ndarray:
    """Standardised CUSUM curve ``C_k = (S_k − k·mean) / (σ√n)``.

    Peaks mark candidate change points; under the no-change null the curve
    stays within a Brownian-bridge envelope (|C| ≲ 1.36 at 5 % for large n,
    the Kolmogorov–Smirnov critical value).
    """
    _, values = _clean(series)
    n = len(values)
    sigma = values.std()
    if sigma == 0:
        return np.zeros(n)
    centred = np.cumsum(values - values.mean())
    return centred / (sigma * np.sqrt(n))


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


def binary_segmentation(
    series: TimeSeries,
    min_segment: int = 16,
    penalty: float | None = None,
    max_changes: int = 8,
) -> list[ChangePoint]:
    """Recursive multi-change detection.

    A split is accepted when it reduces the within-segment sum of squares by
    more than ``penalty`` (default: BIC, ``2·σ̂²·log n``). Returns change
    points in time order.
    """
    times, values = _clean(series)
    n = len(values)
    if penalty is None:
        sigma2 = float(np.var(values))
        penalty = 2.0 * sigma2 * np.log(n)

    changes: list[int] = []

    def recurse(lo: int, hi: int, depth: int) -> None:
        if hi - lo < 2 * min_segment or len(changes) >= max_changes:
            return
        seg = values[lo:hi]
        m = len(seg)
        prefix = np.cumsum(seg)
        total = prefix[-1]
        k = np.arange(min_segment, m - min_segment + 1)
        if len(k) == 0:
            return
        mean_left = prefix[k - 1] / k
        mean_right = (total - prefix[k - 1]) / (m - k)
        between = k * (m - k) / m * (mean_left - mean_right) ** 2
        best = int(np.argmax(between))
        if between[best] <= penalty:
            return
        split = lo + int(k[best])
        changes.append(split)
        recurse(lo, split, depth + 1)
        recurse(split, hi, depth + 1)

    recurse(0, n, 0)
    changes.sort()

    result: list[ChangePoint] = []
    boundaries = [0, *changes, n]
    cusum_peak = float(np.abs(cusum_statistic(series)).max())
    for i, split in enumerate(changes):
        before = values[boundaries[i] : split]
        after = values[split : boundaries[i + 2]]
        result.append(
            ChangePoint(
                index=split,
                time_s=float(times[split]),
                mean_before=float(before.mean()),
                mean_after=float(after.mean()),
                significance=cusum_peak,
            )
        )
    return result


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
