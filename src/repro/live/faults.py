"""Chaos injection: seeded fault wrappers around live telemetry sources.

Facility telemetry at ARCHER2 scale fails in mundane, recurring ways —
meters drop out, collectors stall and lose their buffers, transport layers
re-deliver or reorder, collector clocks jump, sensors glitch to absurd
values, and streams end mid-campaign. The fault-tolerant supervisor
(:mod:`~repro.live.supervisor`) exists to survive exactly these, and this
module is how we *prove* it does: every fault class has a composable,
seed-reproducible injector that wraps any ``Iterable[StreamBatch]`` source
and accounts for every sample it touches, so tests can reconcile what was
injected against what the pipeline reports sanitised or dead-lettered.

Injectors are single-use per stream: each carries its own RNG, and a fresh
instance (or :meth:`FaultInjector.reset`) reproduces the identical fault
sequence for the same seed. Chain them with :func:`apply_faults`, or build
the standard named suite with :func:`chaos_chain` (the CLI's
``--inject-faults`` spellings).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from ..errors import MonitoringError
from .events import StreamBatch

__all__ = [
    "FaultInjector",
    "DropoutInjector",
    "StallInjector",
    "DuplicateInjector",
    "ReorderInjector",
    "ClockSkewInjector",
    "SpikeInjector",
    "TruncateInjector",
    "FAULT_NAMES",
    "apply_faults",
    "chaos_chain",
]


class FaultInjector:
    """Base class: a seeded, accounting fault wrapper for one batch source.

    Subclasses implement :meth:`apply` as a generator over the wrapped
    source and advance the shared counters:

    * ``batches_seen`` / ``batches_affected`` — traffic and blast radius;
    * ``samples_corrupted`` — samples whose values were altered in place;
    * ``samples_duplicated`` — extra samples added to the flow;
    * ``samples_removed`` — samples deleted from the flow;
    * ``samples_displaced`` — samples delivered out of time order (they
      still flow, but a supervisor will dead-letter them).
    """

    name = "fault"

    def __init__(self, seed: int = 0) -> None:
        """Create the injector with its own deterministic RNG."""
        self._seed = seed
        self.rng = np.random.default_rng(seed)
        self.batches_seen = 0
        self.batches_affected = 0
        self.samples_corrupted = 0
        self.samples_duplicated = 0
        self.samples_removed = 0
        self.samples_displaced = 0

    def reset(self) -> "FaultInjector":
        """Rewind the RNG and counters so a re-application is identical."""
        self.rng = np.random.default_rng(self._seed)
        self.batches_seen = 0
        self.batches_affected = 0
        self.samples_corrupted = 0
        self.samples_duplicated = 0
        self.samples_removed = 0
        self.samples_displaced = 0
        return self

    def apply(self, source: Iterable[StreamBatch]) -> Iterator[StreamBatch]:
        """Yield the faulted view of ``source``."""
        raise NotImplementedError

    def __call__(self, source: Iterable[StreamBatch]) -> Iterator[StreamBatch]:
        """Alias for :meth:`apply`, so chains read as function composition."""
        return self.apply(source)

    def summary(self) -> dict:
        """The injector's accounting, for reconciliation and reporting."""
        return {
            "fault": self.name,
            "batches_seen": self.batches_seen,
            "batches_affected": self.batches_affected,
            "samples_corrupted": self.samples_corrupted,
            "samples_duplicated": self.samples_duplicated,
            "samples_removed": self.samples_removed,
            "samples_displaced": self.samples_displaced,
        }


class DropoutInjector(FaultInjector):
    """Meter dropouts: random samples become NaN (value lost, time kept).

    The pipeline handles NaN natively (skipped and counted by every
    processor), so dropouts must flow through without raising and without
    resurrecting values downstream.
    """

    name = "dropout"

    def __init__(self, p_sample: float = 0.02, seed: int = 0) -> None:
        """NaN each sample independently with probability ``p_sample``."""
        super().__init__(seed)
        if not 0 <= p_sample <= 1:
            raise MonitoringError(f"p_sample must be in [0, 1], got {p_sample}")
        self.p_sample = p_sample

    def apply(self, source: Iterable[StreamBatch]) -> Iterator[StreamBatch]:
        """NaN-out a random subset of each batch's values."""
        for batch in source:
            self.batches_seen += 1
            hit = self.rng.random(len(batch)) < self.p_sample
            fresh = hit & ~np.isnan(batch.values)
            if not fresh.any():
                yield batch
                continue
            values = batch.values.copy()
            values[fresh] = np.nan
            self.batches_affected += 1
            self.samples_corrupted += int(fresh.sum())
            yield StreamBatch(batch.stream, batch.times_s, values)


class StallInjector(FaultInjector):
    """A stalled collector: every sample in a time window is lost.

    Unlike a dropout, the *timestamps* vanish too — downstream sees a data
    gap, which is what the supervisor's staleness watchdog must detect.
    """

    name = "stall"

    def __init__(self, start_s: float, duration_s: float, seed: int = 0) -> None:
        """Lose all samples with ``start_s <= t < start_s + duration_s``."""
        super().__init__(seed)
        if duration_s <= 0:
            raise MonitoringError(f"duration_s must be positive, got {duration_s}")
        self.start_s = float(start_s)
        self.end_s = float(start_s) + float(duration_s)

    def apply(self, source: Iterable[StreamBatch]) -> Iterator[StreamBatch]:
        """Delete the stall window from the flow, splitting batches at its edges."""
        for batch in source:
            self.batches_seen += 1
            keep = (batch.times_s < self.start_s) | (batch.times_s >= self.end_s)
            lost = int(len(batch) - keep.sum())
            if lost == 0:
                yield batch
                continue
            self.batches_affected += 1
            self.samples_removed += lost
            if not keep.any():
                continue
            # The kept part may straddle the window; each side is contiguous
            # and strictly increasing, so emit it per side.
            for side in (batch.times_s < self.start_s, batch.times_s >= self.end_s):
                mask = keep & side
                if mask.any():
                    yield StreamBatch(
                        batch.stream, batch.times_s[mask], batch.values[mask]
                    )


class DuplicateInjector(FaultInjector):
    """At-least-once transport: some batches are delivered twice.

    The duplicate starts exactly where the original ended in stream time,
    which is precisely the boundary case :func:`~repro.live.events.
    merge_batches` rejects in strict mode and a supervisor must dead-letter.
    """

    name = "duplicate"

    def __init__(self, p_batch: float = 0.05, seed: int = 0) -> None:
        """Re-deliver each batch with probability ``p_batch``."""
        super().__init__(seed)
        if not 0 <= p_batch <= 1:
            raise MonitoringError(f"p_batch must be in [0, 1], got {p_batch}")
        self.p_batch = p_batch

    def apply(self, source: Iterable[StreamBatch]) -> Iterator[StreamBatch]:
        """Yield each batch, then occasionally yield it again."""
        for batch in source:
            self.batches_seen += 1
            yield batch
            if self.rng.random() < self.p_batch:
                self.batches_affected += 1
                self.samples_duplicated += len(batch)
                yield batch


class ReorderInjector(FaultInjector):
    """Out-of-order delivery: adjacent batches occasionally swap places.

    The late batch is counted as displaced; a supervisor dead-letters it
    (its span is behind the stream's watermark by the time it arrives).
    """

    name = "reorder"

    def __init__(self, p_swap: float = 0.05, seed: int = 0) -> None:
        """Swap a batch with its successor with probability ``p_swap``."""
        super().__init__(seed)
        if not 0 <= p_swap <= 1:
            raise MonitoringError(f"p_swap must be in [0, 1], got {p_swap}")
        self.p_swap = p_swap

    def apply(self, source: Iterable[StreamBatch]) -> Iterator[StreamBatch]:
        """Yield batches, occasionally emitting a successor before its prior."""
        iterator = iter(source)
        for batch in iterator:
            self.batches_seen += 1
            if self.rng.random() < self.p_swap:
                successor = next(iterator, None)
                if successor is not None:
                    self.batches_seen += 1
                    self.batches_affected += 2
                    self.samples_displaced += len(batch)
                    yield successor
                    yield batch
                    continue
            yield batch


class ClockSkewInjector(FaultInjector):
    """A collector clock jump: from ``onset_s`` every timestamp shifts.

    A negative ``offset_s`` makes the stream appear to travel back in time
    at the seam — the supervisor dead-letters skewed batches until their
    shifted timestamps pass the watermark again. A positive offset opens a
    synthetic gap instead.
    """

    name = "skew"

    def __init__(self, offset_s: float, onset_s: float, seed: int = 0) -> None:
        """Shift timestamps at or after ``onset_s`` by ``offset_s``."""
        super().__init__(seed)
        if offset_s == 0:
            raise MonitoringError("offset_s must be non-zero")
        self.offset_s = float(offset_s)
        self.onset_s = float(onset_s)

    def apply(self, source: Iterable[StreamBatch]) -> Iterator[StreamBatch]:
        """Shift the post-onset part of the flow, splitting a straddling batch."""
        for batch in source:
            self.batches_seen += 1
            if batch.t_end_s < self.onset_s:
                yield batch
                continue
            self.batches_affected += 1
            before = batch.times_s < self.onset_s
            if before.any():
                yield StreamBatch(
                    batch.stream, batch.times_s[before], batch.values[before]
                )
            after = ~before
            self.samples_displaced += int(after.sum())
            yield StreamBatch(
                batch.stream,
                batch.times_s[after] + self.offset_s,
                batch.values[after],
            )


class SpikeInjector(FaultInjector):
    """Sensor glitches: random samples become absurd spikes or ±inf.

    Finite spikes must flow through (a real monitor cannot tell a glitch
    from a genuine transient a priori); non-finite values must be sanitised
    to NaN by the supervisor before they poison the accumulators.
    """

    name = "spike"

    def __init__(
        self,
        p_sample: float = 0.002,
        spike_factor: float = 25.0,
        p_inf: float = 0.25,
        seed: int = 0,
    ) -> None:
        """Corrupt each sample with probability ``p_sample``; a ``p_inf``
        fraction of corruptions become ±inf instead of finite spikes."""
        super().__init__(seed)
        if not 0 <= p_sample <= 1:
            raise MonitoringError(f"p_sample must be in [0, 1], got {p_sample}")
        if not 0 <= p_inf <= 1:
            raise MonitoringError(f"p_inf must be in [0, 1], got {p_inf}")
        self.p_sample = p_sample
        self.spike_factor = float(spike_factor)
        self.p_inf = p_inf
        self.samples_nonfinite = 0

    def apply(self, source: Iterable[StreamBatch]) -> Iterator[StreamBatch]:
        """Corrupt a random subset of values, some to non-finite garbage."""
        for batch in source:
            self.batches_seen += 1
            hit = (self.rng.random(len(batch)) < self.p_sample) & ~np.isnan(
                batch.values
            )
            if not hit.any():
                yield batch
                continue
            values = batch.values.copy()
            to_inf = hit & (self.rng.random(len(batch)) < self.p_inf)
            to_spike = hit & ~to_inf
            values[to_spike] = values[to_spike] * self.spike_factor
            values[to_inf] = np.where(
                self.rng.random(int(to_inf.sum())) < 0.5, np.inf, -np.inf
            )
            self.batches_affected += 1
            self.samples_corrupted += int(hit.sum())
            self.samples_nonfinite += int(to_inf.sum())
            yield StreamBatch(batch.stream, batch.times_s, values)

    def summary(self) -> dict:
        """Accounting including the non-finite subset."""
        out = super().summary()
        out["samples_nonfinite"] = self.samples_nonfinite
        return out


class TruncateInjector(FaultInjector):
    """A stream that dies mid-campaign: nothing at or after ``cut_s`` arrives.

    The rest of the source is still drained (uncounted telemetry would make
    reconciliation impossible) but never delivered, so downstream sees a
    clean early end — the trailing-gap case for the staleness watchdog.
    """

    name = "truncate"

    def __init__(self, cut_s: float, seed: int = 0) -> None:
        """Suppress every sample with ``t >= cut_s``."""
        super().__init__(seed)
        self.cut_s = float(cut_s)

    def apply(self, source: Iterable[StreamBatch]) -> Iterator[StreamBatch]:
        """Deliver the pre-cut flow; count (but never yield) the remainder."""
        for batch in source:
            self.batches_seen += 1
            if batch.t_end_s < self.cut_s:
                yield batch
                continue
            keep = batch.times_s < self.cut_s
            self.batches_affected += 1
            self.samples_removed += int(len(batch) - keep.sum())
            if keep.any():
                yield StreamBatch(batch.stream, batch.times_s[keep], batch.values[keep])


def apply_faults(
    source: Iterable[StreamBatch], *injectors: FaultInjector
) -> Iterable[StreamBatch]:
    """Chain injectors around a source, first injector innermost."""
    for injector in injectors:
        source = injector.apply(source)
    return source


#: Names accepted by :func:`chaos_chain` and the CLI's ``--inject-faults``.
FAULT_NAMES = (
    "dropout",
    "stall",
    "duplicate",
    "reorder",
    "skew",
    "spike",
    "truncate",
)


def chaos_chain(
    names: Iterable[str],
    duration_s: float,
    seed: int = 0,
    stall_at_fraction: float = 0.4,
) -> list[FaultInjector]:
    """Build the standard named fault suite, scaled to a scenario's span.

    Each injector draws its RNG from an independent child of ``seed`` (so
    adding or removing one fault never perturbs the others), and the
    time-anchored faults land at fixed fractions of ``duration_s``:
    the stall covers 5 % of the span starting at ``stall_at_fraction``,
    the clock skew (−30 min) hits at 70 %, and truncation cuts at 90 %.
    """
    if duration_s <= 0:
        raise MonitoringError(f"duration_s must be positive, got {duration_s}")
    if not 0 < stall_at_fraction < 0.95:
        raise MonitoringError("stall_at_fraction must be in (0, 0.95)")
    requested = list(names)
    unknown = sorted(set(requested) - set(FAULT_NAMES))
    if unknown:
        raise MonitoringError(
            f"unknown fault name(s) {unknown}; choose from {list(FAULT_NAMES)}"
        )
    children = np.random.SeedSequence(seed).spawn(len(FAULT_NAMES))
    seeds = {name: child for name, child in zip(FAULT_NAMES, children)}
    builders = {
        "dropout": lambda: DropoutInjector(p_sample=0.02, seed=seeds["dropout"]),
        "stall": lambda: StallInjector(
            start_s=stall_at_fraction * duration_s,
            duration_s=0.05 * duration_s,
            seed=seeds["stall"],
        ),
        "duplicate": lambda: DuplicateInjector(p_batch=0.05, seed=seeds["duplicate"]),
        "reorder": lambda: ReorderInjector(p_swap=0.05, seed=seeds["reorder"]),
        "skew": lambda: ClockSkewInjector(
            offset_s=-1800.0, onset_s=0.7 * duration_s, seed=seeds["skew"]
        ),
        "spike": lambda: SpikeInjector(p_sample=0.002, seed=seeds["spike"]),
        "truncate": lambda: TruncateInjector(
            cut_s=0.9 * duration_s, seed=seeds["truncate"]
        ),
    }
    # Apply in registry order regardless of request order, so a composed
    # suite is reproducible independent of how the names were spelled.
    return [builders[name]() for name in FAULT_NAMES if name in requested]
