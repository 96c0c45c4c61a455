"""Event model for the live monitoring pipeline.

The batch analysis layer consumes complete :class:`~repro.telemetry.series.
TimeSeries`; the live layer instead consumes a *stream* of
:class:`StreamBatch` events — small contiguous slabs of one named telemetry
stream (cabinet power, grid carbon intensity, …). Batches from different
streams are interleaved into one global, time-ordered event flow by
:func:`merge_batches`, which is what lets a single pipeline watch power and
carbon intensity together, the way the paper's operational loop does.

A batch of length 1 is a single live sample, so the same machinery serves
true sample-at-a-time ingest and high-throughput chunked replay.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..errors import SeriesShapeError
from ..telemetry.series import TimeSeries
from ..telemetry.streaming import ChunkedSeriesReader, as_chunk_reader

__all__ = [
    "POWER_STREAM",
    "CI_STREAM",
    "StreamBatch",
    "series_batches",
    "merge_batches",
]

#: Canonical stream name for compute-cabinet power, kW.
POWER_STREAM = "power_kw"
#: Canonical stream name for grid carbon intensity, gCO₂e/kWh.
CI_STREAM = "ci_g_per_kwh"

#: Default batch granularity for replayed series (samples per batch).
DEFAULT_BATCH_SIZE = 4096


@dataclass(frozen=True)
class StreamBatch:
    """One contiguous slab of one telemetry stream.

    ``times_s`` must be finite and strictly increasing; ``values`` may
    contain NaN (dropped meter samples). Both arrays are 1-D and of equal
    length ≥ 1.
    """

    stream: str
    times_s: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times_s, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.ndim != 1:
            raise SeriesShapeError("batch times and values must be 1-D")
        if len(times) != len(values):
            raise SeriesShapeError(
                f"batch length mismatch: {len(times)} times vs {len(values)} values"
            )
        if len(times) == 0:
            raise SeriesShapeError("batch must contain at least one sample")
        if np.any(~np.isfinite(times)):
            raise SeriesShapeError("batch timestamps must be finite")
        if np.any(np.diff(times) <= 0):
            raise SeriesShapeError("batch timestamps must be strictly increasing")
        object.__setattr__(self, "times_s", times)
        object.__setattr__(self, "values", values)

    @classmethod
    def trusted(cls, stream: str, times_s: np.ndarray, values: np.ndarray) -> "StreamBatch":
        """Construct from pre-validated float arrays, skipping the checks.

        Only for sources whose arrays already satisfy the batch contract —
        the chunks of a ``ChunkedSeriesReader``, which validates every
        chunk. The arithmetic downstream is unchanged; only the redundant
        re-validation of every replayed batch is skipped.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "stream", stream)
        object.__setattr__(out, "times_s", times_s)
        object.__setattr__(out, "values", values)
        return out

    def __len__(self) -> int:
        return len(self.times_s)

    @property
    def t_start_s(self) -> float:
        """Timestamp of the first sample in the batch."""
        return float(self.times_s[0])

    @property
    def t_end_s(self) -> float:
        """Timestamp of the last sample in the batch."""
        return float(self.times_s[-1])


def series_batches(
    stream: str,
    source: "TimeSeries | str | Path | ChunkedSeriesReader",
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Iterator[StreamBatch]:
    """Replay any chunkable telemetry source as a stream of batches.

    Accepts everything :func:`~repro.telemetry.streaming.as_chunk_reader`
    does — an in-memory series, a telemetry CSV/NPZ path, or an existing
    reader — so recorded campaigns replay through the live pipeline
    unchanged. A malformed file raises ``SeriesShapeError``.
    """
    # The reader validates every chunk (a file is refused exactly when
    # load_csv/load_npz would refuse it); re-checking every batch would be
    # the hot loop's single largest fixed cost.
    for chunk in as_chunk_reader(source, batch_size):
        yield StreamBatch.trusted(stream, chunk.times_s, chunk.values)


def merge_batches(*sources: Iterable[StreamBatch]) -> Iterator[StreamBatch]:
    """Interleave per-stream batch iterators into one time-ordered flow.

    A k-way heap merge on batch start time: batches are emitted in
    non-decreasing ``t_start_s`` order, which bounds how far apart the
    pipeline's per-stream watermarks can drift (one batch span). Within a
    stream the input order is preserved.

    The merge checks no ordering within a stream: a batch that starts at or
    before the end of its stream's previous one (a rewind, or a redelivery
    starting exactly where the previous batch ended) passes through, and
    the pipeline's admission dead-letters it (see
    :class:`~repro.live.supervisor.SupervisedPipeline`).
    """
    heap: list[tuple[float, int, StreamBatch, Iterator[StreamBatch]]] = []
    for seq, source in enumerate(sources):
        iterator = iter(source)
        first = next(iterator, None)
        if first is not None:
            heap.append((first.t_start_s, seq, first, iterator))
    heapq.heapify(heap)
    while heap:
        _, seq, batch, iterator = heapq.heappop(heap)
        yield batch
        following = next(iterator, None)
        if following is not None:
            heapq.heappush(heap, (following.t_start_s, seq, following, iterator))
