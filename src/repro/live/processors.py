"""Processor protocol and the windowed statistics rollup stage.

A processor subscribes to one named stream and turns batches into alerts.
The pipeline owns routing, buffering and alert fan-out; processors own only
their incremental state, which keeps each one independently testable.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import MonitoringError
from ..telemetry.streaming import MergingQuantileSketch, OnlineStats
from ..units import SECONDS_PER_DAY
from .alerts import Alert, RollupAlert
from .events import StreamBatch

__all__ = ["Processor", "WindowedRollup"]


class Processor:
    """Base class: consume batches of one stream, emit alerts."""

    def __init__(self, stream: str) -> None:
        """Subscribe to ``stream``."""
        self.stream = stream

    def process(self, batch: StreamBatch) -> list[Alert]:
        """Absorb one batch; return any alerts it triggered."""
        raise NotImplementedError

    def finish(self) -> list[Alert]:
        """Flush end-of-stream state; return any final alerts."""
        return []

    def state_dict(self) -> dict:
        """Snapshot of incremental state: JSON values plus ``bytes`` (stateless: empty).

        Stateful subclasses override this together with
        :meth:`load_state_dict` so the supervisor can checkpoint a running
        pipeline and later resume it exactly.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (stateless: no-op)."""


class WindowedRollup(Processor):
    """Tumbling-window statistics over one stream.

    Each ``window_s``-wide window accumulates an
    :class:`~repro.telemetry.streaming.OnlineStats` and one shared
    :class:`~repro.telemetry.streaming.MergingQuantileSketch`, all in
    bounded memory. When a sample lands past the current window the closed
    window is emitted as a :class:`~repro.live.alerts.RollupAlert` — the
    monitor's always-on answer to "what did the last day look like".

    Window *k* covers ``[k * window_s, (k + 1) * window_s)`` —
    start-inclusive, end-exclusive — so a sample landing exactly on an
    edge opens window *k* and belongs to it alone, and :meth:`finish`
    never emits an empty final window (regression-pinned in
    ``tests/live/test_rollup_boundaries.py``).

    The bucketing below is vectorised by construction (NumPy window
    bucketing over whole batches) and both accumulators are
    chunking-invariant, so the result is a pure function of the sample
    sequence whatever the batch sizes.
    """

    def __init__(
        self,
        stream: str,
        window_s: float = SECONDS_PER_DAY,
        quantiles: tuple[float, ...] = (0.05, 0.5, 0.95),
    ) -> None:
        """Roll ``stream`` up into ``window_s`` tumbling windows."""
        super().__init__(stream)
        if not (math.isfinite(window_s) and window_s > 0):
            raise MonitoringError(f"window_s must be a finite positive number, got {window_s}")
        self.window_s = float(window_s)
        self.quantile_levels = tuple(quantiles)
        self._window_index: int | None = None
        self._stats = OnlineStats()
        self._sketch = MergingQuantileSketch()
        self.windows_closed = 0

    def process(self, batch: StreamBatch) -> list[Alert]:
        """Split the batch at window boundaries and accumulate each part."""
        alerts: list[Alert] = []
        times, values = batch.times_s, batch.values
        first = int(times[0] // self.window_s)
        if int(times[-1] // self.window_s) == first:
            # Fast path: the whole batch lands in one window (the common
            # case — batches span seconds to minutes, windows span a day),
            # so the per-sample bucketing below would find a single slice.
            if self._window_index is not None and first != self._window_index:
                alerts.append(self._close_window())
            if self._window_index is None:
                self._window_index = first
            self._stats.update_trusted(times, values)
            self._sketch.update(values)
            return alerts
        indices = np.floor_divide(times, self.window_s).astype(int)
        lo = 0
        while lo < len(times):
            index = int(indices[lo])
            hi = int(np.searchsorted(indices, index, side="right"))
            if self._window_index is not None and index != self._window_index:
                alerts.append(self._close_window())
            if self._window_index is None:
                self._window_index = index
            self._stats.update_trusted(times[lo:hi], values[lo:hi])
            self._sketch.update(values[lo:hi])
            lo = hi
        return alerts

    def finish(self) -> list[Alert]:
        """Close the final, possibly partial, window."""
        if self._window_index is None or self._stats.n_total == 0:
            return []
        return [self._close_window()]

    def _close_window(self) -> RollupAlert:
        stats, index = self._stats, self._window_index
        alert = RollupAlert(
            time_s=stats.t_end_s,
            stream=self.stream,
            window_start_s=index * self.window_s,
            window_end_s=(index + 1) * self.window_s,
            n_samples=stats.n_total,
            n_valid=stats.n_valid,
            mean=stats.mean,
            std=stats.std if stats.n_valid else math.nan,
            minimum=stats.minimum,
            maximum=stats.maximum,
            quantiles=tuple(
                (q, self._sketch.result(q)) for q in self.quantile_levels
            ),
        )
        self.windows_closed += 1
        self._window_index = None
        self._stats = OnlineStats()
        self._sketch = MergingQuantileSketch()
        return alert

    def state_dict(self) -> dict:
        """Snapshot the open window (stats + quantile sketch) exactly."""
        return {
            "window_index": self._window_index,
            "stats": self._stats.state_dict(),
            "sketch": self._sketch.state_dict(),
            "windows_closed": self.windows_closed,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore an open window snapshotted by :meth:`state_dict`."""
        self._window_index = state["window_index"]
        self._stats = OnlineStats.restore(state["stats"])
        self._sketch = MergingQuantileSketch.restore(state["sketch"])
        self.windows_closed = state["windows_closed"]
