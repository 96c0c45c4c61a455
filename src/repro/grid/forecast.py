"""Carbon-intensity forecasts as the carbon-aware scheduler reads them.

Carbon-aware operation (load shifting, maintenance-window placement) needs a
CI forecast, not just history. National grid operators publish 24–48 h
forecasts built from demand and weather models; this module holds the two
views of such a forecast that the malleable scheduler consumes:

* :class:`ForecastIndex` — exact window means and the greenest window over
  a step-function forecast, one cheap query per placement decision;
* :class:`ForecastFeed` — the same forecast as a live feed, refreshed on a
  cadence and held, growing stale, through the outages that
  :func:`sample_feed_outages` draws.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from ..telemetry.series import TimeSeries
from ..units import ensure_positive

__all__ = [
    "ForecastWindow",
    "ForecastIndex",
    "FeedOutage",
    "ForecastFeed",
    "sample_feed_outages",
]


@dataclass(frozen=True)
class ForecastWindow:
    """A candidate execution window with its exact mean carbon intensity."""

    t_start_s: float
    t_end_s: float
    mean_ci_g_per_kwh: float


class ForecastIndex:
    """Exact window queries over a step-function carbon-intensity forecast.

    Treats the series as previous-value hold — ``values[i]`` holds on
    ``[times_s[i], times_s[i+1])`` — extended flat beyond both ends, and
    precomputes the prefix integral so any window mean is an O(log n)
    lookup with no quadrature error. This is what the malleable scheduler
    calls on every placement decision, so it must be cheap and, for
    reproducibility, bit-deterministic: breakpoints, values and the prefix
    are kept as Python lists, and each query bisects them in plain float
    arithmetic, with no array call per query.
    """

    def __init__(self, series: TimeSeries) -> None:
        if np.any(np.isnan(series.values)):
            raise AnalysisError(
                "forecast series contains NaN samples; fill gaps before indexing"
            )
        self.series = series
        times, values = series.times_s, series.values
        # _prefix[i] = ∫ ci dt over [times[0], times[i]]
        segment = values[:-1] * np.diff(times)
        self._prefix: list[float] = np.concatenate(([0.0], np.cumsum(segment))).tolist()
        self._times: list[float] = times.tolist()
        self._values: list[float] = values.tolist()

    def ci_at(self, t_s: float) -> float:
        """Carbon intensity at ``t_s``, gCO₂/kWh (previous-value hold)."""
        return self._values[max(bisect_right(self._times, t_s) - 1, 0)]

    def _integral_to(self, t_s: float) -> float:
        """∫ ci dt from the first breakpoint to ``t_s`` (flat extension)."""
        times = self._times
        if t_s <= times[0]:
            return self._values[0] * (t_s - times[0])
        if t_s >= times[-1]:
            return self._prefix[-1] + self._values[-1] * (t_s - times[-1])
        idx = bisect_right(times, t_s) - 1
        return self._prefix[idx] + self._values[idx] * (t_s - times[idx])

    def _mean(self, t0_s: float, t1_s: float) -> float:
        """Mean over ``[t0_s, t1_s]``; the caller has checked the bounds."""
        return (self._integral_to(t1_s) - self._integral_to(t0_s)) / (t1_s - t0_s)

    def window_mean(self, t0_s: float, t1_s: float) -> float:
        """Exact mean carbon intensity over ``[t0_s, t1_s]``, gCO₂/kWh."""
        _check_finite(t0_s, t1_s)
        if t1_s <= t0_s:
            raise AnalysisError("window end must exceed window start")
        return self._mean(t0_s, t1_s)

    def greenest_window(
        self, duration_s: float, t_earliest_s: float, t_latest_s: float
    ) -> ForecastWindow:
        """Lowest-mean-CI window of ``duration_s`` starting in the slack range.

        The window mean is piecewise-linear in the start time (the CI is a
        step function), so the minimum lies where the window's start or end
        crosses a breakpoint, or at the range edges — only those candidates
        are evaluated. Ties break to the earliest start, which keeps the
        scheduler deterministic.
        """
        ensure_positive(duration_s, "duration_s")
        _check_finite(t_earliest_s, t_latest_s)
        if t_latest_s < t_earliest_s:
            raise AnalysisError("t_latest_s must not precede t_earliest_s")
        # Every candidate start lies in the slack range, so a duration above
        # half an ulp of its widest bound gives every window a positive width.
        if not duration_s > math.ulp(max(abs(t_earliest_s), abs(t_latest_s))) / 2:
            raise AnalysisError(
                f"duration_s {duration_s!r} is below the float resolution at {t_latest_s!r}"
            )
        times = self._times
        candidates = {t_earliest_s, t_latest_s}
        # Only breakpoints inside the slack range (window start crossings)
        # or inside its duration-shifted image (window end crossings) can
        # host a minimum — slice them out so a submission costs O(window),
        # not O(whole forecast), at million-job scale.
        candidates.update(
            times[bisect_right(times, t_earliest_s) : bisect_left(times, t_latest_s)]
        )
        lo = bisect_right(times, t_earliest_s + duration_s)
        hi = bisect_left(times, t_latest_s + duration_s)
        candidates.update(t - duration_s for t in times[lo:hi])
        best_start_s = t_earliest_s
        best_mean = float("inf")
        for start_s in sorted(candidates):
            mean = self._mean(start_s, start_s + duration_s)
            if mean < best_mean:
                best_mean = mean
                best_start_s = start_s
        return ForecastWindow(
            t_start_s=best_start_s,
            t_end_s=best_start_s + duration_s,
            mean_ci_g_per_kwh=best_mean,
        )


def _check_finite(t0_s: float, t1_s: float) -> None:
    """Refuse a NaN or infinite window bound: it would select no segment."""
    if not (math.isfinite(t0_s) and math.isfinite(t1_s)):
        raise AnalysisError(f"window bounds must be finite, got [{t0_s!r}, {t1_s!r}]")


@dataclass(frozen=True)
class FeedOutage:
    """One interval during which the carbon-intensity feed is unreachable.

    Refresh attempts inside ``[t_start_s, t_end_s)`` fail; the first
    attempt at or after ``t_end_s`` succeeds again.
    """

    t_start_s: float
    t_end_s: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t_start_s) and np.isfinite(self.t_end_s)):
            raise AnalysisError("outage bounds must be finite")
        if self.t_end_s <= self.t_start_s:
            raise AnalysisError(
                f"outage end {self.t_end_s} must exceed start {self.t_start_s}"
            )

    def covers(self, t_s: float) -> bool:
        """Whether a refresh attempt at ``t_s`` falls inside the outage."""
        return self.t_start_s <= t_s < self.t_end_s


class ForecastFeed:
    """A live CI feed: periodic refreshes over an index, with outages.

    Real carbon-intensity products are polled on a cadence (the national
    grid API publishes half-hourly); between refreshes consumers hold the
    last fetched value, and when the feed is down they keep holding it —
    growing stale — until a refresh succeeds again. ``ci_at`` returns the
    value as of the last *successful* refresh, and ``staleness_s`` tells a
    consumer how old that is, so it can degrade gracefully past a
    threshold. The feed holds no mutable state (everything is a pure
    function of time), so checkpointed simulations need not serialize it.
    """

    def __init__(
        self,
        index: ForecastIndex,
        refresh_interval_s: float = 1800.0,
        outages: tuple[FeedOutage, ...] = (),
    ) -> None:
        ensure_positive(refresh_interval_s, "refresh_interval_s")
        self.index = index
        self.refresh_interval_s = refresh_interval_s
        self.outages = tuple(sorted(outages, key=lambda o: o.t_start_s))
        for prev, cur in zip(self.outages, self.outages[1:]):
            if cur.t_start_s < prev.t_end_s:
                raise AnalysisError(
                    f"outages overlap: [{prev.t_start_s}, {prev.t_end_s}) and "
                    f"[{cur.t_start_s}, {cur.t_end_s})"
                )
        self._t0 = float(index.series.times_s[0])

    def last_refresh_s(self, t_s: float) -> float:
        """Time of the last successful refresh at or before ``t_s``.

        Refresh instants sit on the cadence grid anchored at the series
        start; the initial fetch at the anchor always succeeds (a feed that
        never connected has nothing to hold).
        """
        if t_s <= self._t0:
            return self._t0
        k = math.floor((t_s - self._t0) / self.refresh_interval_s + 1e-9)
        while k > 0:
            candidate = self._t0 + k * self.refresh_interval_s
            blocking = next((o for o in self.outages if o.covers(candidate)), None)
            if blocking is None:
                return candidate
            # Jump straight to the last grid instant before the outage began.
            k = math.floor(
                (blocking.t_start_s - self._t0) / self.refresh_interval_s - 1e-9
            )
        return self._t0

    def staleness_s(self, t_s: float) -> float:
        """Age of the data a consumer sees at ``t_s``, seconds."""
        return t_s - self.last_refresh_s(t_s)

    def is_stale(self, t_s: float, threshold_s: float) -> bool:
        """Whether the held value is older than ``threshold_s``."""
        return self.staleness_s(t_s) > threshold_s

    def ci_at(self, t_s: float) -> float:
        """CI as of the last successful refresh (held during outages)."""
        return self.index.ci_at(self.last_refresh_s(t_s))


def sample_feed_outages(
    duration_s: float,
    rng: np.random.Generator,
    mtbf_hours: float = 72.0,
    mttr_hours: float = 3.0,
) -> tuple[FeedOutage, ...]:
    """Seeded Poisson outage schedule for a forecast feed over a span.

    Outages arrive with exponential gaps (mean ``mtbf_hours`` measured from
    the end of the previous outage) and last an exponential ``mttr_hours``,
    truncated at the span end — non-overlapping by construction.
    """
    ensure_positive(duration_s, "duration_s")
    ensure_positive(mtbf_hours, "mtbf_hours")
    ensure_positive(mttr_hours, "mttr_hours")
    mtbf_s = mtbf_hours * 3600.0
    mttr_s = mttr_hours * 3600.0
    outages: list[FeedOutage] = []
    t = 0.0
    while True:
        start = t + float(rng.exponential(mtbf_s))
        if start >= duration_s:
            break
        end = min(start + float(rng.exponential(mttr_s)), duration_s)
        if end > start:
            outages.append(FeedOutage(start, end))
        t = end
    return tuple(outages)
