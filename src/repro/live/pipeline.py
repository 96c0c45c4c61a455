"""The event-driven monitoring pipeline.

Wiring: interleaved sources → subscribed processors → alerts → advisor + sinks.

The pipeline is single-threaded and pull-based: sources are merged into one
time-ordered flow (:func:`~repro.live.events.merge_batches`), and each batch
is admitted and handed straight to the processors subscribed to its stream
before the next batch is pulled. Nothing is queued between ingest and
processing, so memory is bounded by the caller's batch size and no sample
is shed.

Every alert a processor emits is fanned out to the registered sinks and to
the :class:`~repro.live.advisor.InterventionAdvisor` (if attached), whose
own advice alerts are fanned out in turn.

This module holds the wiring and the run loop; the loop's steps —
admission, crash-isolated processing, staleness watchdogs and checkpoints —
are :class:`~repro.live.supervisor.SupervisedPipeline`'s, the one pipeline
to construct (or let :func:`~repro.live.monitor.build_monitor` build).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..errors import MonitoringError
from ..ledger import Ledger
from .advisor import InterventionAdvisor
from .alerts import Alert, AlertSink
from .events import StreamBatch
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
    in checkpoints. On clean telemetry the dead-letter, sanitise, crash and
    gap counters stay zero too.
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
    """Wiring and the run loop of :class:`~repro.live.supervisor.SupervisedPipeline`.

    The loop's steps are the supervised pipeline's, so this class is only
    its base: construct that one, or call
    :func:`~repro.live.monitor.build_monitor`. The two classes keep apart
    the names perfbench traces: ``MonitorPipeline.run`` and
    ``SupervisedPipeline.checkpoint``.
    """

    # The run loop's steps, each defined once, by SupervisedPipeline.
    _merged: Callable[[tuple[Iterable[StreamBatch], ...]], Iterable[StreamBatch]]
    _admit: Callable[[StreamBatch], StreamBatch | None]
    _invoke: Callable[[Processor, StreamBatch], None]
    _after_ingest: Callable[[StreamBatch], None]
    _before_finish: Callable[[], None]
    _finish_processor: Callable[[Processor], None]

    def __init__(self, sinks: Iterable[AlertSink] = ()) -> None:
        """Create an empty pipeline; attach processors before :meth:`run`."""
        if type(self) is MonitorPipeline:
            raise TypeError(
                "MonitorPipeline is the base of SupervisedPipeline; "
                "construct that, or call build_monitor()"
            )
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
        one time-ordered flow before routing. A batch that admission
        rejects is dead-lettered and counted, never routed.
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
            metrics.samples_processed[stream] += len(batch)
            metrics.watermark_time_s = max(metrics.watermark_time_s, batch.t_end_s)
            for processor in self._processors[stream]:
                self._invoke(processor, batch)
            self._after_ingest(batch)
        self._before_finish()
        for processors in self._processors.values():
            for processor in processors:
                self._finish_processor(processor)
        return MonitorReport(metrics=metrics, alerts=tuple(self._alerts))

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
