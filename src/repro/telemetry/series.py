"""Numpy-backed time series for power telemetry.

The fundamental data shape of the paper's §3: timestamped power samples from
the cabinet meters. The series is immutable, keeps timestamps strictly
increasing, and provides the batch statistics that the streaming
accumulators are checked against, plus slicing and scaling. NaN values are
meter dropouts, and every statistic skips them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SeriesShapeError

__all__ = ["TimeSeries"]


@dataclass(frozen=True)
class TimeSeries:
    """An irregular (or regular) scalar time series.

    ``times_s`` must be strictly increasing; ``values`` is any float signal
    (watts for power series). NaN values are allowed and represent meter
    dropouts; statistics skip them.
    """

    times_s: np.ndarray
    values: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        times = np.asarray(self.times_s, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.ndim != 1:
            raise SeriesShapeError("times and values must be 1-D")
        if len(times) != len(values):
            raise SeriesShapeError(
                f"length mismatch: {len(times)} times vs {len(values)} values"
            )
        if len(times) == 0:
            raise SeriesShapeError("series cannot be empty")
        if np.any(~np.isfinite(times)):
            raise SeriesShapeError("timestamps must be finite")
        if np.any(np.diff(times) <= 0):
            raise SeriesShapeError("timestamps must be strictly increasing")
        object.__setattr__(self, "times_s", times)
        object.__setattr__(self, "values", values)

    # -- basics ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.times_s)

    @property
    def t_start_s(self) -> float:
        """First timestamp."""
        return float(self.times_s[0])

    @property
    def t_end_s(self) -> float:
        """Last timestamp."""
        return float(self.times_s[-1])

    @property
    def span_s(self) -> float:
        """Covered span, seconds."""
        return self.t_end_s - self.t_start_s

    @property
    def n_valid(self) -> int:
        """Number of non-NaN samples."""
        return int(np.count_nonzero(~np.isnan(self.values)))

    # -- statistics -------------------------------------------------------------

    def mean(self) -> float:
        """Arithmetic mean over valid samples (the paper's orange lines)."""
        return float(np.nanmean(self.values))

    def std(self) -> float:
        """Standard deviation over valid samples."""
        return float(np.nanstd(self.values))

    def percentile(self, q: float | np.ndarray) -> float | np.ndarray:
        """Percentile(s) over valid samples."""
        out = np.nanpercentile(self.values, q)
        return float(out) if np.ndim(out) == 0 else out

    def min(self) -> float:
        """Minimum over valid samples."""
        return float(np.nanmin(self.values))

    def max(self) -> float:
        """Maximum over valid samples."""
        return float(np.nanmax(self.values))

    def time_weighted_mean(self) -> float:
        """Mean weighting each sample by its holding interval.

        For regular sampling this equals :meth:`mean`; for irregular series
        it is the better estimate of energy-relevant average power. NaN
        samples contribute neither value nor time. The final sample has no
        successor, so it is held for the last observed inter-sample interval
        (timestamp-offset independent, so epoch-second series weight
        correctly).
        """
        if len(self) == 1:
            # A sole NaN sample carries no information: NaN propagates.
            return float(self.values[0])
        intervals = np.diff(self.times_s)
        durations = np.append(intervals, intervals[-1])
        valid = ~np.isnan(self.values)
        if not np.any(valid):
            return float("nan")
        return float(
            np.dot(self.values[valid], durations[valid]) / durations[valid].sum()
        )

    # -- transforms --------------------------------------------------------------

    def slice(self, t_from_s: float, t_to_s: float) -> "TimeSeries":
        """Sub-series with ``t_from_s <= t < t_to_s``."""
        if t_to_s <= t_from_s:
            raise SeriesShapeError("t_to_s must exceed t_from_s")
        mask = (self.times_s >= t_from_s) & (self.times_s < t_to_s)
        if not np.any(mask):
            raise SeriesShapeError(
                f"no samples in [{t_from_s}, {t_to_s}) for series {self.name!r}"
            )
        return TimeSeries(self.times_s[mask], self.values[mask], self.name)

    def scale_values(self, factor: float) -> "TimeSeries":
        """Series with every value multiplied by a constant (e.g. W→kW)."""
        return TimeSeries(self.times_s, self.values * factor, self.name)
