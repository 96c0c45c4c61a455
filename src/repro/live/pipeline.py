"""The event-driven monitoring pipeline.

Wiring: interleaved sources → per-stream :class:`~repro.live.channel.
BoundedChannel` → subscribed processors → alerts → advisor + sinks.

The pipeline is deliberately single-threaded and pull-based: sources are
merged into one time-ordered flow (:func:`~repro.live.events.merge_batches`),
each batch is offered to its stream's bounded channel, and channels are
drained under a per-cycle sample budget. That budget is what makes
backpressure *observable*: when ingest outruns the budget, channels fill,
the overflow policy sheds samples, and the shed counts surface in
:class:`PipelineMetrics` instead of in an ever-growing queue.

Every alert a processor emits is fanned out to the registered sinks and to
the :class:`~repro.live.advisor.InterventionAdvisor` (if attached), whose
own advice alerts are fanned out in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from ..errors import MonitoringError
from .advisor import InterventionAdvisor
from .alerts import Alert, AlertSink
from .channel import OVERFLOW_POLICIES, BoundedChannel
from .events import StreamBatch, merge_batches
from .processors import Processor

__all__ = ["PipelineMetrics", "MonitorReport", "MonitorPipeline"]


@dataclass
class PipelineMetrics:
    """Counters and watermarks describing one pipeline run.

    The per-stream accounting identity — every sample offered is either
    processed, shed by channel overflow, or dead-lettered at admission —
    holds at all times::

        samples_in == samples_processed + samples_dropped + samples_dead_lettered

    The dead-letter, sanitise, crash, gap and checkpoint counters are only
    advanced by the fault-tolerant :class:`~repro.live.supervisor.
    SupervisedPipeline`; under the plain pipeline they stay zero.
    """

    batches_in: dict[str, int] = field(default_factory=dict)
    samples_in: dict[str, int] = field(default_factory=dict)
    samples_processed: dict[str, int] = field(default_factory=dict)
    samples_dropped: dict[str, int] = field(default_factory=dict)
    samples_dead_lettered: dict[str, int] = field(default_factory=dict)
    batches_dead_lettered: dict[str, int] = field(default_factory=dict)
    samples_sanitised: dict[str, int] = field(default_factory=dict)
    channel_high_watermarks: dict[str, int] = field(default_factory=dict)
    alerts_emitted: dict[str, int] = field(default_factory=dict)
    processor_crashes: dict[str, int] = field(default_factory=dict)
    processor_restarts: dict[str, int] = field(default_factory=dict)
    processors_quarantined: list[str] = field(default_factory=list)
    data_gaps_detected: dict[str, int] = field(default_factory=dict)
    checkpoints_written: int = 0
    watermark_time_s: float = -math.inf

    @property
    def total_samples_in(self) -> int:
        """Samples offered across all streams."""
        return sum(self.samples_in.values())

    @property
    def total_samples_dropped(self) -> int:
        """Samples shed by channel overflow across all streams."""
        return sum(self.samples_dropped.values())

    @property
    def total_samples_dead_lettered(self) -> int:
        """Samples rejected at admission across all streams."""
        return sum(self.samples_dead_lettered.values())

    @property
    def total_alerts(self) -> int:
        """Alerts emitted across all types."""
        return sum(self.alerts_emitted.values())

    def reconciles(self) -> bool:
        """Whether the per-stream accounting identity holds for every stream."""
        return all(
            self.samples_in[stream]
            == self.samples_processed.get(stream, 0)
            + self.samples_dropped.get(stream, 0)
            + self.samples_dead_lettered.get(stream, 0)
            for stream in self.samples_in
        )

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of every counter."""
        return {
            "batches_in": dict(self.batches_in),
            "samples_in": dict(self.samples_in),
            "samples_processed": dict(self.samples_processed),
            "samples_dropped": dict(self.samples_dropped),
            "samples_dead_lettered": dict(self.samples_dead_lettered),
            "batches_dead_lettered": dict(self.batches_dead_lettered),
            "samples_sanitised": dict(self.samples_sanitised),
            "channel_high_watermarks": dict(self.channel_high_watermarks),
            "alerts_emitted": dict(self.alerts_emitted),
            "processor_crashes": dict(self.processor_crashes),
            "processor_restarts": dict(self.processor_restarts),
            "processors_quarantined": list(self.processors_quarantined),
            "data_gaps_detected": dict(self.data_gaps_detected),
            "checkpoints_written": self.checkpoints_written,
            "watermark_time_s": self.watermark_time_s,
        }

    def load_state_dict(self, state: dict) -> None:
        """Overwrite every counter in place from a :meth:`state_dict` snapshot."""
        self.batches_in = dict(state["batches_in"])
        self.samples_in = dict(state["samples_in"])
        self.samples_processed = dict(state["samples_processed"])
        self.samples_dropped = dict(state["samples_dropped"])
        self.samples_dead_lettered = dict(state["samples_dead_lettered"])
        self.batches_dead_lettered = dict(state["batches_dead_lettered"])
        self.samples_sanitised = dict(state["samples_sanitised"])
        self.channel_high_watermarks = dict(state["channel_high_watermarks"])
        self.alerts_emitted = dict(state["alerts_emitted"])
        self.processor_crashes = dict(state["processor_crashes"])
        self.processor_restarts = dict(state["processor_restarts"])
        self.processors_quarantined = list(state["processors_quarantined"])
        self.data_gaps_detected = dict(state["data_gaps_detected"])
        self.checkpoints_written = state["checkpoints_written"]
        self.watermark_time_s = state["watermark_time_s"]

    @classmethod
    def restore(cls, state: dict) -> "PipelineMetrics":
        """Rebuild metrics from a :meth:`state_dict` snapshot."""
        out = cls()
        out.load_state_dict(state)
        return out


@dataclass(frozen=True)
class MonitorReport:
    """Outcome of one pipeline run: metrics plus every emitted alert."""

    metrics: PipelineMetrics
    alerts: tuple[Alert, ...]

    def alerts_of(self, alert_type: type) -> list[Alert]:
        """Emitted alerts of one class, in emission order."""
        return [a for a in self.alerts if isinstance(a, alert_type)]


class MonitorPipeline:
    """Routes interleaved telemetry through processors to alert sinks."""

    def __init__(
        self,
        channel_capacity_samples: int = 1 << 18,
        channel_policy: str = "drop_oldest",
        max_samples_per_drain: int | None = None,
        sinks: Iterable[AlertSink] = (),
    ) -> None:
        """Create an empty pipeline; attach processors before :meth:`run`.

        ``max_samples_per_drain`` caps how many queued samples each stream's
        processors may consume per ingested batch (``None`` = drain fully,
        the lossless default). Batches are atomic: a queued batch larger
        than the remaining budget waits for a later cycle. A finite cap
        therefore models a consumer slower than ingest — channels fill, the
        overflow policy sheds, and the shed counts surface in the metrics.
        """
        # Channel parameters are validated here, up front, rather than on
        # first overflow deep inside the channel.
        if channel_policy not in OVERFLOW_POLICIES:
            raise MonitoringError(
                f"unknown overflow policy {channel_policy!r}; "
                f"choose from {OVERFLOW_POLICIES}"
            )
        if channel_capacity_samples < 1:
            raise MonitoringError(
                f"channel_capacity_samples must be >= 1, "
                f"got {channel_capacity_samples}"
            )
        if max_samples_per_drain is not None and max_samples_per_drain < 1:
            raise MonitoringError("max_samples_per_drain must be >= 1 or None")
        self._channels: dict[str, BoundedChannel] = {}
        self._processors: dict[str, list[Processor]] = {}
        self._sinks: list[AlertSink] = list(sinks)
        self._advisor: InterventionAdvisor | None = None
        self._capacity = channel_capacity_samples
        self._policy = channel_policy
        self._drain_budget = max_samples_per_drain
        self._alerts: list[Alert] = []
        self.metrics = PipelineMetrics()

    # -- wiring ----------------------------------------------------------------

    def add_processor(self, processor: Processor) -> "MonitorPipeline":
        """Subscribe a processor to its stream; returns ``self`` for chaining."""
        stream = processor.stream
        if stream not in self._channels:
            self._channels[stream] = BoundedChannel(
                name=stream,
                capacity_samples=self._capacity,
                policy=self._policy,
            )
            self._processors[stream] = []
        self._processors[stream].append(processor)
        return self

    def set_advisor(self, advisor: InterventionAdvisor) -> "MonitorPipeline":
        """Attach the advisor observing every emitted alert."""
        self._advisor = advisor
        return self

    def add_sink(self, sink: AlertSink) -> "MonitorPipeline":
        """Attach an alert sink."""
        self._sinks.append(sink)
        return self

    # -- execution -------------------------------------------------------------

    def run(self, *sources: Iterable[StreamBatch]) -> MonitorReport:
        """Consume the sources to exhaustion and return the report.

        Sources are per-stream batch iterators (see
        :func:`~repro.live.events.series_batches`); they are merged into
        one time-ordered flow before routing.
        """
        if not self._processors:
            raise MonitoringError("pipeline has no processors attached")
        metrics = self.metrics
        for batch in self._merged(sources):
            stream = batch.stream
            metrics.batches_in[stream] = metrics.batches_in.get(stream, 0) + 1
            metrics.samples_in[stream] = metrics.samples_in.get(stream, 0) + len(batch)
            batch = self._admit(batch)
            if batch is None:
                continue
            channel = self._channels.get(stream)
            if channel is None:
                raise MonitoringError(
                    f"no processor subscribed to stream {stream!r}; "
                    f"known streams: {sorted(self._channels)}"
                )
            channel.put(batch)
            self._drain(stream, self._drain_budget)
            self._after_ingest(batch)
        for stream in self._channels:
            self._drain(stream, None)  # final drain is always complete
        self._before_finish()
        for processors in self._processors.values():
            for processor in processors:
                self._finish_processor(processor)
        self._sync_channel_metrics()
        return MonitorReport(metrics=metrics, alerts=tuple(self._alerts))

    # -- supervision hooks (overridden by SupervisedPipeline) ------------------

    def _merged(self, sources: tuple[Iterable[StreamBatch], ...]) -> Iterable[StreamBatch]:
        """The merged event flow; strict ordering under the plain pipeline."""
        return merge_batches(*sources)

    def _admit(self, batch: StreamBatch) -> StreamBatch | None:
        """Validate one ingested batch; ``None`` means it was rejected.

        The plain pipeline admits everything (the strict merge already
        enforces ordering); the supervisor overrides this with dead-letter
        validation and value sanitisation.
        """
        return batch

    def _invoke(self, processor: Processor, batch: StreamBatch) -> None:
        """Feed one batch to one processor (supervisor adds crash isolation)."""
        self._dispatch(processor.process(batch))

    def _finish_processor(self, processor: Processor) -> None:
        """Flush one processor at end of stream."""
        self._dispatch(processor.finish())

    def _after_ingest(self, batch: StreamBatch) -> None:
        """Post-ingest hook (supervisor: watchdogs + periodic checkpoints)."""

    def _before_finish(self) -> None:
        """Pre-finish hook (supervisor: trailing-gap detection)."""

    def _sync_channel_metrics(self) -> None:
        """Publish channel drop/watermark counters into the metrics."""
        for stream, channel in self._channels.items():
            self.metrics.samples_dropped[stream] = channel.dropped_samples
            self.metrics.channel_high_watermarks[stream] = (
                channel.high_watermark_samples
            )

    def _drain(self, stream: str, budget: int | None) -> None:
        channel = self._channels[stream]
        processors = self._processors[stream]
        consumed = 0
        while True:
            queued = channel.peek()
            if queued is None:
                break
            if budget is not None and consumed + len(queued) > budget:
                break
            batch = channel.get()
            consumed += len(batch)
            self.metrics.samples_processed[stream] = (
                self.metrics.samples_processed.get(stream, 0) + len(batch)
            )
            self.metrics.watermark_time_s = max(
                self.metrics.watermark_time_s, batch.t_end_s
            )
            for processor in processors:
                self._invoke(processor, batch)

    def _dispatch(self, alerts: list[Alert]) -> None:
        for alert in alerts:
            self._record(alert)
            if self._advisor is not None:
                for advice_alert in self._advisor.observe(alert):
                    self._record(advice_alert)

    def _record(self, alert: Alert) -> None:
        self._alerts.append(alert)
        name = type(alert).__name__
        self.metrics.alerts_emitted[name] = self.metrics.alerts_emitted.get(name, 0) + 1
        for sink in self._sinks:
            sink.emit(alert)
