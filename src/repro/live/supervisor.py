"""Fault-tolerant supervision: the steps of the live monitoring pipeline.

A facility monitor is always on, and its telemetry and processors fail in
mundane ways. :class:`SupervisedPipeline` supplies the steps of the run
loop in :class:`~repro.live.pipeline.MonitorPipeline`, and is the one
pipeline :func:`~repro.live.monitor.build_monitor` builds:

* **admission control** — out-of-order/duplicate batches and batches for
  unknown streams are *dead-lettered* (recorded in a bounded
  :class:`DeadLetterStore`, counted in the metrics, announced via
  :class:`~repro.live.alerts.DeadLetterAlert`) instead of aborting; ±inf
  values are sanitised to NaN before they can poison any accumulator;
* **crash isolation** — a processor that raises is caught, counted and
  scheduled for restart after an exponential backoff with seeded jitter
  (all in *stream time*, so runs are reproducible); after
  ``max_restarts`` restarts it is quarantined and the rest of the
  pipeline carries on;
* **staleness watchdogs** — a stream whose last sample falls too far
  behind the merge position (the start of the batch being ingested)
  raises a :class:`~repro.live.alerts.DataGapAlert` and flips the advisor
  into degraded mode until the stream recovers;
* **checkpoint/resume** — the complete pipeline state (every processor,
  the advisor, metrics, alert history, supervision state including the
  backoff RNG) is periodically written via
  :mod:`~repro.live.checkpoint`; a new pipeline can load the file and
  continue *bit-identically*, re-skipping the already-processed prefix
  of a replayed source.

On clean telemetry admission, crash isolation and the watchdogs stay
silent: they add no alert and move no counter.

Throughout, the per-stream accounting identity holds:
``samples_in == samples_processed + samples_dropped + samples_dead_lettered``.
"""

from __future__ import annotations

import json
import math
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..errors import CheckpointError, HpcemError, MonitoringError
from .alerts import DataGapAlert, DeadLetterAlert, DegradedModeAlert, ProcessorCrashAlert
from .checkpoint import (
    LoadedCheckpoint,
    alert_from_dict,
    alert_to_dict,
    read_checkpoint,
    save_checkpoint,
)
from .events import StreamBatch, merge_batches
from .pipeline import MonitorPipeline
from .processors import Processor

__all__ = ["SupervisorConfig", "DeadLetterStore", "SupervisedPipeline"]


@contextmanager
def _restoring(component: str) -> Iterator[None]:
    """Re-raise what a torn-but-parseable checkpoint component raises on
    restore — a missing key, a value of the wrong type or shape, or the
    component's own validation error — as a :class:`CheckpointError`
    naming the component."""
    try:
        yield
    except (LookupError, TypeError, ValueError, RecursionError, HpcemError) as exc:
        raise CheckpointError(
            f"checkpoint component {component!r} is malformed: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


@dataclass(frozen=True)
class SupervisorConfig:
    """Tuning of the supervision layer.

    Restart policy: a crashed processor waits
    ``backoff_base_s * backoff_multiplier**(crashes - 1)`` (capped at
    ``backoff_cap_s``) of *stream time* before its next batch, with a
    multiplicative jitter of ±``backoff_jitter_fraction`` drawn from an RNG
    seeded by ``seed`` — deterministic, and checkpointed so a resumed run
    draws the same jitter. After ``max_restarts`` restarts the next crash
    quarantines the processor for the rest of the run.

    ``staleness_timeout_s`` is how far the merge position (the start of the
    batch being ingested) may advance past a stream's last sample before
    the watchdog declares a data gap.
    ``checkpoint_path``, a file in an existing directory (checked here, so
    a bad path fails before any data is ingested), enables periodic
    checkpoints roughly every ``checkpoint_every_s`` of stream time, each
    written after a batch is processed, so the snapshot is at a batch
    boundary. The checkpoints alternate between two slot files, the path
    and the path with ``.1`` appended (see :mod:`~repro.live.checkpoint`).
    """

    max_restarts: int = 3
    backoff_base_s: float = 1800.0
    backoff_multiplier: float = 2.0
    backoff_cap_s: float = 6 * 3600.0
    backoff_jitter_fraction: float = 0.1
    seed: int = 0
    staleness_timeout_s: float = 2 * 3600.0
    checkpoint_path: str | Path | None = None
    checkpoint_every_s: float = 24 * 3600.0
    dead_letter_capacity: int = 256

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise MonitoringError("max_restarts must be non-negative")
        if not self.backoff_base_s > 0:
            raise MonitoringError("backoff_base_s must be positive")
        if self.backoff_multiplier < 1:
            raise MonitoringError("backoff_multiplier must be at least 1")
        if not self.backoff_cap_s >= self.backoff_base_s:
            raise MonitoringError("backoff_cap_s must be >= backoff_base_s")
        if not 0 <= self.backoff_jitter_fraction < 1:
            raise MonitoringError("backoff_jitter_fraction must be in [0, 1)")
        if not self.staleness_timeout_s > 0:
            raise MonitoringError("staleness_timeout_s must be positive")
        if not self.checkpoint_every_s > 0:
            raise MonitoringError("checkpoint_every_s must be positive")
        if self.dead_letter_capacity < 1:
            raise MonitoringError("dead_letter_capacity must be at least 1")
        if self.checkpoint_path is not None:
            path = Path(self.checkpoint_path)
            if path.is_dir() or not path.parent.is_dir():
                raise MonitoringError(
                    f"checkpoint_path {path} must name a file in an existing directory"
                )


class DeadLetterStore:
    """Bounded record of rejected batches (most recent kept, all counted).

    Entries are compact summaries — stream, reason, sample count, time span
    — not the batch payloads, so the store stays small no matter how noisy
    the transport gets; totals keep counting past the capacity.
    """

    def __init__(self, capacity: int = 256) -> None:
        """Keep at most ``capacity`` recent entries."""
        if capacity < 1:
            raise MonitoringError(f"capacity must be at least 1, got {capacity}")
        self.capacity = int(capacity)
        self.entries: deque[dict] = deque(maxlen=self.capacity)
        self.total_batches = 0
        self.total_samples = 0

    def add(self, batch: StreamBatch, reason: str) -> dict:
        """Record one rejected batch; returns the stored summary."""
        entry = {
            "stream": batch.stream,
            "reason": reason,
            "n_samples": len(batch),
            "t_start_s": batch.t_start_s,
            "t_end_s": batch.t_end_s,
        }
        self.entries.append(entry)
        self.total_batches += 1
        self.total_samples += len(batch)
        return entry

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot (entries + totals)."""
        return {
            "capacity": self.capacity,
            "entries": list(self.entries),
            "total_batches": self.total_batches,
            "total_samples": self.total_samples,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.capacity = state["capacity"]
        self.entries = deque(state["entries"], maxlen=self.capacity)
        self.total_batches = state["total_batches"]
        self.total_samples = state["total_samples"]


class SupervisedPipeline(MonitorPipeline):
    """The live monitoring pipeline, hardened against faulty telemetry,
    crashing processors and process death. See the module docstring for the
    full fault model."""

    def __init__(self, supervisor_config: SupervisorConfig | None = None, **kwargs) -> None:
        """Create the supervised pipeline; ``kwargs`` go to the base pipeline."""
        super().__init__(**kwargs)
        self.supervisor_config = supervisor_config or SupervisorConfig()
        cfg = self.supervisor_config
        self.dead_letters = DeadLetterStore(cfg.dead_letter_capacity)
        self._rng = np.random.default_rng(cfg.seed)
        self._admit_watermark: dict[str, float] = {}
        self._last_seen: dict[str, float] = {}
        self._stale: set[str] = set()
        self._retry_at: dict[str, float] = {}
        self._quarantined: set[str] = set()
        self._keys: dict[int, str] = {}
        self._resume_skip: dict[str, int] = {}
        self._last_checkpoint_s: float | None = None
        #: JSON text of the first alerts of the append-only history, kept
        #: from earlier checkpoints so each alert is encoded once.
        self._alert_json: list[bytes] = []

    # -- admission control -----------------------------------------------------

    def _merged(self, sources: tuple[Iterable[StreamBatch], ...]) -> Iterable[StreamBatch]:
        """The merged flow, minus any already-processed prefix when resuming
        from a checkpoint."""
        flow = merge_batches(*sources)
        if any(self._resume_skip.values()):
            return self._skip_replayed(flow)
        return flow

    def _skip_replayed(self, flow: Iterable[StreamBatch]) -> Iterator[StreamBatch]:
        """Drop the first N already-ingested samples of each stream.

        Resuming replays the sources from the start (they are deterministic,
        fault injection included); everything the checkpointed run already
        counted into ``samples_in`` is skipped so no sample is double
        counted. A batch straddling the boundary is split.
        """
        remaining = dict(self._resume_skip)
        for batch in flow:
            left = remaining.get(batch.stream, 0)
            if left <= 0:
                yield batch
            elif left >= len(batch):
                remaining[batch.stream] = left - len(batch)
            else:
                remaining[batch.stream] = 0
                yield StreamBatch(
                    batch.stream, batch.times_s[left:], batch.values[left:]
                )

    def _admit(self, batch: StreamBatch) -> StreamBatch | None:
        """Dead-letter unroutable or time-travelling batches; sanitise ±inf.

        Returns ``None`` for a dead-lettered batch. The per-stream watermark
        is the one ordering check: a batch must start after the last
        admitted batch of its stream ended, so a rewind and a redelivery
        starting exactly at that end are both dead-lettered.
        """
        stream = batch.stream
        if stream not in self._processors:
            self._dead_letter(batch, "no processor subscribed to stream")
            return None
        watermark = self._admit_watermark.get(stream)
        if watermark is not None and batch.t_start_s <= watermark:
            self._dead_letter(batch, "out-of-order or duplicate delivery")
            return None
        self._admit_watermark[stream] = batch.t_end_s
        nonfinite = np.isinf(batch.values)
        if nonfinite.any():
            values = batch.values.copy()
            values[nonfinite] = np.nan
            self.metrics.samples_sanitised[stream] += int(nonfinite.sum())
            batch = StreamBatch(stream, batch.times_s, values)
        return batch

    def _dead_letter(self, batch: StreamBatch, reason: str) -> None:
        metrics = self.metrics
        stream = batch.stream
        metrics.samples_dead_lettered[stream] += len(batch)
        metrics.batches_dead_lettered[stream] += 1
        self.dead_letters.add(batch, reason)
        self._dispatch(
            [
                DeadLetterAlert(
                    time_s=batch.t_end_s,
                    stream=stream,
                    reason=reason,
                    n_samples=len(batch),
                    t_start_s=batch.t_start_s,
                    t_end_s=batch.t_end_s,
                )
            ]
        )

    # -- crash isolation -------------------------------------------------------

    def _processor_key(self, processor: Processor) -> str:
        """Stable identity for a processor: stream, type, registration index."""
        key = self._keys.get(id(processor))
        if key is None:
            counts: Counter[tuple[str, str]] = Counter()
            for stream, processors in self._processors.items():
                for p in processors:
                    pair = (stream, type(p).__name__)
                    counts[pair] += 1
                    suffix = f"#{counts[pair]}" if counts[pair] > 1 else ""
                    self._keys[id(p)] = f"{stream}:{type(p).__name__}{suffix}"
            key = self._keys[id(processor)]
        return key

    def _invoke(self, processor: Processor, batch: StreamBatch) -> None:
        """Feed one batch to one processor under crash isolation.

        Quarantined processors are skipped; processors in backoff skip
        batches until stream time reaches their retry time, at which point
        they restart (state intact — they simply missed the interim)."""
        key = self._processor_key(processor)
        if key in self._quarantined:
            return
        retry_at = self._retry_at.get(key)
        if retry_at is not None:
            if batch.t_end_s < retry_at:
                return
            del self._retry_at[key]
            self.metrics.processor_restarts[key] += 1
        try:
            self._dispatch(processor.process(batch))
        except Exception as exc:  # noqa: BLE001 — isolation is the whole point
            self._crash(key, batch.t_end_s, exc)

    def _finish_processor(self, processor: Processor) -> None:
        """Flush one processor at end of stream, still crash-isolated."""
        key = self._processor_key(processor)
        if key in self._quarantined:
            return
        try:
            self._dispatch(processor.finish())
        except Exception as exc:  # noqa: BLE001
            self._crash(key, self.metrics.watermark_time_s, exc)

    def _crash(self, key: str, now_s: float, exc: Exception) -> None:
        cfg = self.supervisor_config
        metrics = self.metrics
        metrics.processor_crashes[key] += 1
        crashes = metrics.processor_crashes[key]
        quarantined = crashes > cfg.max_restarts
        if quarantined:
            self._quarantined.add(key)
            self._retry_at.pop(key, None)
            metrics.processors_quarantined.append(key)
            retry_at = math.inf
        else:
            delay = min(
                cfg.backoff_cap_s,
                cfg.backoff_base_s * cfg.backoff_multiplier ** (crashes - 1),
            )
            delay *= 1.0 + cfg.backoff_jitter_fraction * float(
                self._rng.uniform(-1.0, 1.0)
            )
            retry_at = now_s + delay
            self._retry_at[key] = retry_at
        self._dispatch(
            [
                ProcessorCrashAlert(
                    time_s=now_s,
                    stream=key.split(":", 1)[0],
                    processor=key,
                    error=f"{type(exc).__name__}: {exc}",
                    crashes=crashes,
                    retry_at_s=retry_at,
                    quarantined=quarantined,
                )
            ]
        )

    # -- staleness watchdogs & degraded mode -----------------------------------

    def _after_ingest(self, batch: StreamBatch) -> None:
        """Track per-stream freshness; raise/clear gaps; maybe checkpoint.

        Staleness is judged at the merge position, this batch's start:
        batches arrive in start order, so nothing still to come starts
        earlier. The scan runs before this stream's ``last_seen`` advances,
        so its own silence is caught (and at once recovered) even when no
        other stream delivered during it.
        """
        cfg = self.supervisor_config
        metrics = self.metrics
        stream = batch.stream
        position = batch.t_start_s
        tripped = False
        for watched in self._processors:
            last = self._last_seen.get(watched)
            if last is None or watched in self._stale:
                continue
            gap = position - last
            if gap > cfg.staleness_timeout_s:
                self._stale.add(watched)
                metrics.data_gaps_detected[watched] += 1
                self._dispatch(
                    [
                        DataGapAlert(
                            time_s=position, stream=watched, last_seen_s=last, gap_s=gap
                        )
                    ]
                )
                tripped = True
        if tripped:
            self._update_degraded(position)
        if stream in self._stale:
            last = self._last_seen.get(stream, math.nan)
            self._stale.discard(stream)
            self._dispatch(
                [
                    DataGapAlert(
                        time_s=position,
                        stream=stream,
                        last_seen_s=last,
                        gap_s=position - last,
                        recovered=True,
                    )
                ]
            )
            self._update_degraded(position)
        self._last_seen[stream] = batch.t_end_s
        self._maybe_checkpoint(metrics.watermark_time_s)

    def _before_finish(self) -> None:
        """Detect trailing gaps (a stream that died before the run ended)."""
        cfg = self.supervisor_config
        now = self.metrics.watermark_time_s
        for stream, last in self._last_seen.items():
            gap = now - last
            if stream not in self._stale and gap > cfg.staleness_timeout_s:
                self._stale.add(stream)
                self.metrics.data_gaps_detected[stream] += 1
                self._dispatch(
                    [DataGapAlert(time_s=now, stream=stream, last_seen_s=last, gap_s=gap)]
                )

    def _update_degraded(self, now_s: float) -> None:
        degraded = bool(self._stale)
        advisor = self._advisor
        if advisor is None or advisor.degraded == degraded:
            return
        advisor.set_degraded(degraded)
        self._dispatch(
            [
                DegradedModeAlert(
                    time_s=now_s,
                    stream="advisor",
                    entered=degraded,
                    stale_streams=tuple(sorted(self._stale)),
                )
            ]
        )

    # -- checkpoint / resume ---------------------------------------------------

    def _maybe_checkpoint(self, now_s: float) -> None:
        cfg = self.supervisor_config
        if cfg.checkpoint_path is None:
            return
        if self._last_checkpoint_s is None:
            self._last_checkpoint_s = now_s
            return
        if now_s - self._last_checkpoint_s < cfg.checkpoint_every_s:
            return
        # The file holds this checkpoint's own count and time, so a run
        # resumed from it checkpoints where the uninterrupted run does; the
        # pipeline commits both once the file is written.
        sequence = self.metrics.checkpoints_written + 1
        payload = self.checkpoint()
        payload["metrics"]["checkpoints_written"] = sequence
        payload["last_checkpoint_s"] = now_s
        save_checkpoint(cfg.checkpoint_path, payload, sequence)
        self.metrics.checkpoints_written = sequence
        self._last_checkpoint_s = now_s

    def checkpoint(self) -> dict:
        """Snapshot the complete pipeline state: JSON values plus ``bytes``
        — the rollup sketches' float64 arrays and the alert history as one
        JSON array — which :func:`~repro.live.checkpoint.save_checkpoint`
        stores as raw sections.
        """
        processors = [
            {
                "stream": stream,
                "type": type(processor).__name__,
                "state": processor.state_dict(),
            }
            for stream, group in self._processors.items()
            for processor in group
        ]
        advisor = self._advisor
        encoded = self._alert_json
        encoded.extend(
            json.dumps(alert_to_dict(a), separators=(",", ":")).encode()
            for a in self._alerts[len(encoded) :]
        )
        return {
            "processors": processors,
            "advisor": advisor.state_dict() if advisor is not None else None,
            "metrics": self.metrics.state_dict(),
            "alerts": b"[" + b",".join(encoded) + b"]",
            "dead_letters": self.dead_letters.state_dict(),
            "admit_watermark": dict(self._admit_watermark),
            "last_seen": dict(self._last_seen),
            "stale": sorted(self._stale),
            "retry_at": dict(self._retry_at),
            "quarantined": sorted(self._quarantined),
            "rng_state": self._rng.bit_generator.state,
            "last_checkpoint_s": self._last_checkpoint_s,
        }

    def load_checkpoint_payload(self, payload: dict) -> None:
        """Restore a :meth:`checkpoint` payload into this (fresh) pipeline.

        The pipeline must have been assembled with the same processors in
        the same order as the one that wrote the checkpoint; a mismatch
        raises :class:`~repro.errors.CheckpointError`. After loading, a
        :meth:`~repro.live.pipeline.MonitorPipeline.run` over the *same
        deterministic sources* skips the already-processed prefix and
        continues bit-identically with the interrupted run.

        A torn payload that still parses — a component missing a key or
        holding a value of the wrong type, a sketch array that is not whole
        float64 bytes, a bad RNG state — raises
        :class:`~repro.errors.CheckpointError` naming the component. The
        pipeline may then be partly restored and must be discarded.
        """
        current = [
            (stream, type(processor).__name__, processor)
            for stream, group in self._processors.items()
            for processor in group
        ]
        with _restoring("processors"):
            recorded = [(p["stream"], p["type"], p["state"]) for p in payload["processors"]]
        if [(s, t) for s, t, _ in current] != [(s, t) for s, t, _ in recorded]:
            raise CheckpointError(
                "checkpoint does not match this pipeline's processors: "
                f"expected {[(s, t) for s, t, _ in recorded]}, "
                f"assembled {[(s, t) for s, t, _ in current]}"
            )
        for (_, _, processor), (_, _, state) in zip(current, recorded):
            with _restoring(f"processor {self._processor_key(processor)}"):
                processor.load_state_dict(state)
        with _restoring("advisor"):
            advisor_state = payload["advisor"]
        if (advisor_state is None) != (self._advisor is None):
            raise CheckpointError(
                "checkpoint and pipeline disagree about having an advisor"
            )
        if self._advisor is not None:
            with _restoring("advisor"):
                self._advisor.load_state_dict(advisor_state)
        with _restoring("metrics"):
            self.metrics.load_state_dict(payload["metrics"])
        with _restoring("alerts"):
            self._alerts = [alert_from_dict(d) for d in json.loads(payload["alerts"])]
        self._alert_json = []
        with _restoring("dead_letters"):
            self.dead_letters.load_state_dict(payload["dead_letters"])
        with _restoring("supervision state"):
            self._admit_watermark = dict(payload["admit_watermark"])
            self._last_seen = dict(payload["last_seen"])
            self._stale = set(payload["stale"])
            self._retry_at = dict(payload["retry_at"])
            self._quarantined = set(payload["quarantined"])
            self._last_checkpoint_s = payload["last_checkpoint_s"]
        with _restoring("rng_state"):
            # lint: allow-unseeded -- placeholder generator; exact state restored below
            self._rng = np.random.default_rng()
            self._rng.bit_generator.state = payload["rng_state"]
        self._resume_skip = dict(self.metrics.samples_in)

    def resume_from(self, path: str | Path) -> LoadedCheckpoint:
        """Load the newest valid slot of a checkpoint written by this
        pipeline shape; returns what was read (see
        :func:`~repro.live.checkpoint.read_checkpoint`)."""
        loaded = read_checkpoint(path)
        self.load_checkpoint_payload(loaded.payload)
        return loaded
