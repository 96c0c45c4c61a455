"""Grid-stress events and demand-response accounting.

The ARCHER2 interventions were made "specifically within the context of
reducing the power draw ... during Winter 2022/2023 when there were concerns
about power shortages on the UK power grid" (§3). This module models those
stress windows and quantifies what a facility-level power reduction frees up
for the grid — the "good grid citizen" framing of §1 and §5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..telemetry.series import TimeSeries
from ..units import SECONDS_PER_DAY, ensure_nonnegative, ensure_positive

__all__ = ["GridStressEvent", "GridStressGenerator", "demand_response_summary"]


@dataclass(frozen=True)
class GridStressEvent:
    """A window during which the grid asks large consumers to shed load."""

    start_s: float
    duration_s: float
    severity: float  # 0..1, 1 = most severe
    requested_reduction_kw: float

    def __post_init__(self) -> None:
        ensure_nonnegative(self.start_s, "start_s")
        ensure_positive(self.duration_s, "duration_s")
        if not 0.0 < self.severity <= 1.0:
            raise ConfigurationError("severity must be in (0, 1]")
        ensure_nonnegative(self.requested_reduction_kw, "requested_reduction_kw")

    @property
    def end_s(self) -> float:
        """End of the stress window."""
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class GridStressGenerator:
    """Draws winter-evening stress events (Poisson in count, clustered in time).

    UK stress events concentrate on cold weekday evenings; each event spans
    the evening peak (17:00–20:00 by default).
    """

    events_per_winter_month: float = 3.0
    mean_duration_hours: float = 3.0
    start_hour: float = 17.0
    requested_reduction_kw: float = 500.0

    def generate(
        self,
        t_start_s: float,
        t_end_s: float,
        rng: np.random.Generator,
    ) -> list[GridStressEvent]:
        """Events over a span, chronologically ordered."""
        if t_end_s <= t_start_s:
            raise ConfigurationError("t_end_s must exceed t_start_s")
        span_days = (t_end_s - t_start_s) / SECONDS_PER_DAY
        expected = self.events_per_winter_month * span_days / 30.44
        n_events = int(rng.poisson(expected))
        events: list[GridStressEvent] = []
        if n_events == 0:
            return events
        days = rng.choice(max(int(span_days), 1), size=n_events, replace=False if n_events <= max(int(span_days), 1) else True)
        for day in sorted(days):
            start = t_start_s + float(day) * SECONDS_PER_DAY + self.start_hour * 3600.0
            duration = float(rng.exponential(self.mean_duration_hours * 3600.0))
            duration = max(duration, 1800.0)
            if start + duration > t_end_s:
                continue
            events.append(
                GridStressEvent(
                    start_s=start,
                    duration_s=duration,
                    severity=float(rng.uniform(0.3, 1.0)),
                    requested_reduction_kw=self.requested_reduction_kw,
                )
            )
        return events


def demand_response_summary(
    baseline_power_kw: TimeSeries,
    reduced_power_kw: TimeSeries,
    events: list[GridStressEvent],
) -> dict[str, float]:
    """Quantify load shed during stress windows.

    Returns the mean kW freed during events, total event-hours covered and
    the fraction of events where the freed power met the requested
    reduction. Both series must share timestamps.
    """
    if not np.array_equal(baseline_power_kw.times_s, reduced_power_kw.times_s):
        raise ConfigurationError("series must share timestamps")
    if not events:
        return {"mean_freed_kw": 0.0, "event_hours": 0.0, "fulfilment": 0.0}
    times = baseline_power_kw.times_s
    freed = baseline_power_kw.values - reduced_power_kw.values
    in_any_event = np.zeros(len(times), dtype=bool)
    fulfilled = 0
    for event in events:
        mask = (times >= event.start_s) & (times < event.end_s)
        in_any_event |= mask
        if np.any(mask) and float(np.nanmean(freed[mask])) >= event.requested_reduction_kw:
            fulfilled += 1
    if not np.any(in_any_event):
        return {"mean_freed_kw": 0.0, "event_hours": 0.0, "fulfilment": 0.0}
    event_seconds = sum(e.duration_s for e in events)
    return {
        "mean_freed_kw": float(np.nanmean(freed[in_any_event])),
        "event_hours": event_seconds / 3600.0,
        "fulfilment": fulfilled / len(events),
    }
