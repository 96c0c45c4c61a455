"""The event-driven monitoring pipeline.

Wiring: interleaved sources → subscribed processors → alerts → advisor + sinks.

The pipeline is single-threaded and pull-based: sources are merged into one
time-ordered flow (:func:`~repro.live.events.merge_batches`), and each batch
is handed straight to the processors subscribed to its stream before the
next batch is pulled. Nothing is queued between ingest and processing, so
memory is bounded by the caller's batch size and no sample is shed.

Every alert a processor emits is fanned out to the registered sinks and to
the :class:`~repro.live.advisor.InterventionAdvisor` (if attached), whose
own advice alerts are fanned out in turn.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from ..errors import MonitoringError
from ..ledger import Ledger
from .advisor import InterventionAdvisor
from .alerts import Alert, AlertSink
from .events import StreamBatch, merge_batches
from .processors import Processor

__all__ = ["PipelineMetrics", "MonitorReport", "MonitorPipeline"]


@dataclass
class PipelineMetrics(Ledger):
    """Counters and watermarks describing one pipeline run.

    The per-stream accounting identity — every sample offered is either
    processed or dead-lettered at admission — holds at all times, for every
    stream in any of the four counters::

        samples_in == samples_processed + samples_dropped + samples_dead_lettered

    Nothing sheds samples between ingest and processing, so
    ``samples_dropped`` reads zero; it keeps its place in the identity and
    in checkpoints.

    The dead-letter, sanitise, crash, gap and checkpoint counters are only
    advanced by the fault-tolerant :class:`~repro.live.supervisor.
    SupervisedPipeline`; under the plain pipeline they stay zero.
    """

    IDENTITIES = (
        ("samples_in", ("samples_processed", "samples_dropped", "samples_dead_lettered")),
    )

    batches_in: Counter[str] = field(default_factory=Counter)
    samples_in: Counter[str] = field(default_factory=Counter)
    samples_processed: Counter[str] = field(default_factory=Counter)
    samples_dropped: Counter[str] = field(default_factory=Counter)
    samples_dead_lettered: Counter[str] = field(default_factory=Counter)
    batches_dead_lettered: Counter[str] = field(default_factory=Counter)
    samples_sanitised: Counter[str] = field(default_factory=Counter)
    alerts_emitted: Counter[str] = field(default_factory=Counter)
    processor_crashes: Counter[str] = field(default_factory=Counter)
    processor_restarts: Counter[str] = field(default_factory=Counter)
    processors_quarantined: list[str] = field(default_factory=list)
    data_gaps_detected: Counter[str] = field(default_factory=Counter)
    checkpoints_written: int = 0
    watermark_time_s: float = -math.inf

    @property
    def total_samples_in(self) -> int:
        """Samples offered across all streams."""
        return sum(self.samples_in.values())

    @property
    def total_samples_dropped(self) -> int:
        """Samples shed across all streams; always zero."""
        return sum(self.samples_dropped.values())

    @property
    def total_samples_dead_lettered(self) -> int:
        """Samples rejected at admission across all streams."""
        return sum(self.samples_dead_lettered.values())


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

    def __init__(self, sinks: Iterable[AlertSink] = ()) -> None:
        """Create an empty pipeline; attach processors before :meth:`run`."""
        self._processors: dict[str, list[Processor]] = {}
        self._sinks: list[AlertSink] = list(sinks)
        self._advisor: InterventionAdvisor | None = None
        self._alerts: list[Alert] = []
        self.metrics = PipelineMetrics()

    # -- wiring ----------------------------------------------------------------

    def add_processor(self, processor: Processor) -> "MonitorPipeline":
        """Subscribe a processor to its stream; returns ``self`` for chaining."""
        self._processors.setdefault(processor.stream, []).append(processor)
        return self

    def set_advisor(self, advisor: InterventionAdvisor) -> "MonitorPipeline":
        """Attach the advisor observing every emitted alert."""
        self._advisor = advisor
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
            metrics.batches_in[stream] += 1
            metrics.samples_in[stream] += len(batch)
            batch = self._admit(batch)
            if batch is None:
                continue
            processors = self._processors.get(stream)
            if processors is None:
                raise MonitoringError(
                    f"no processor subscribed to stream {stream!r}; "
                    f"known streams: {sorted(self._processors)}"
                )
            metrics.samples_processed[stream] += len(batch)
            metrics.watermark_time_s = max(metrics.watermark_time_s, batch.t_end_s)
            for processor in processors:
                self._invoke(processor, batch)
            self._after_ingest(batch)
        self._before_finish()
        for processors in self._processors.values():
            for processor in processors:
                self._finish_processor(processor)
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

    def _dispatch(self, alerts: list[Alert]) -> None:
        for alert in alerts:
            self._record(alert)
            if self._advisor is not None:
                for advice_alert in self._advisor.observe(alert):
                    self._record(advice_alert)

    def _record(self, alert: Alert) -> None:
        self._alerts.append(alert)
        name = type(alert).__name__
        self.metrics.alerts_emitted[name] += 1
        for sink in self._sinks:
            sink.emit(alert)
