"""Single-pass streaming statistics for facility-scale power telemetry.

A five-month cabinet series at 900 s cadence is small, but the same pipeline
at 1 Hz across hundreds of cabinets is not: the batch
:class:`~repro.telemetry.series.TimeSeries` statistics materialise the whole
series in memory and rescan it per call. This module is the constant-memory
alternative the analysis layer feeds from:

* :class:`OnlineStats` — Welford/Chan accumulator for mean, variance,
  min/max, NaN-aware valid counts and the time-weighted mean, updatable in
  arbitrary chunks.
* :class:`MergingQuantileSketch` — a block-merging quantile summary whose
  state depends only on the sequence of observations, never on how they
  were chunked, so scalar and vectorised consumers agree bit-for-bit.
* :class:`ChunkedSeriesReader` — fixed-size chunk iteration over a
  :class:`TimeSeries`, a telemetry CSV, or an NPZ archive; re-iterable so
  multi-pass algorithms (change-point detection) can rewind.
* :func:`stream_stats` — one-call reduction of any chunk source.

Any chunking of a series yields the same statistics as the batch methods to
within floating-point accumulation error (regression-tested at 1e-9), so a
months-long series never needs to be fully resident.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from ..errors import SeriesShapeError, TelemetryError
from .io import DEFAULT_CHUNK_SIZE, iter_csv, load_npz
from .series import TimeSeries

__all__ = [
    "SeriesChunk",
    "OnlineStats",
    "MergingQuantileSketch",
    "ChunkedSeriesReader",
    "as_chunk_reader",
    "stream_stats",
]


class SeriesChunk(NamedTuple):
    """One contiguous slab of a time series: parallel time/value arrays."""

    times_s: np.ndarray
    values: np.ndarray


class OnlineStats:
    """Single-pass accumulator over timestamped samples.

    Maintains, in O(1) state, everything :class:`TimeSeries` computes by
    rescanning: NaN-aware valid count, mean and variance (Welford, with
    Chan's parallel merge for chunk updates), min/max, and the
    time-weighted mean via interval accumulation. Feed it any chunking of a
    series — sample by sample via :meth:`push` or slab by slab via
    :meth:`update` — and the results agree with the batch statistics to
    float accumulation error.

    Time-weighting follows :meth:`TimeSeries.time_weighted_mean`: sample
    *i* is held for ``t[i+1] - t[i]``, the final sample for the last
    observed interval, and NaN samples contribute neither value nor time.
    """

    __slots__ = (
        "name",
        "_n_total",
        "_n_valid",
        "_mean",
        "_m2",
        "_min",
        "_max",
        "_t_first",
        "_t_last",
        "_v_last",
        "_last_dt",
        "_tw_sum",
        "_tw_weight",
    )

    def __init__(self, name: str = "") -> None:
        """Start an empty accumulator (optionally tagged with a series name)."""
        self.name = name
        self._n_total = 0
        self._n_valid = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._t_first = math.nan
        self._t_last = math.nan
        self._v_last = math.nan
        self._last_dt = math.nan
        self._tw_sum = 0.0
        self._tw_weight = 0.0

    # -- ingestion -------------------------------------------------------------

    def update(self, times_s: np.ndarray, values: np.ndarray) -> "OnlineStats":
        """Fold one chunk of samples in; returns ``self`` for chaining.

        Chunks must continue the strictly-increasing timestamp order of
        everything already absorbed.
        """
        times = np.asarray(times_s, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or values.ndim != 1:
            raise SeriesShapeError("chunk times and values must be 1-D")
        if len(times) != len(values):
            raise SeriesShapeError(
                f"chunk length mismatch: {len(times)} times vs {len(values)} values"
            )
        if len(times) == 0:
            return self
        if np.any(~np.isfinite(times)):
            raise SeriesShapeError("chunk timestamps must be finite")
        if np.any(np.diff(times) <= 0):
            raise SeriesShapeError("chunk timestamps must be strictly increasing")
        if self._n_total and times[0] <= self._t_last:
            raise SeriesShapeError(
                f"chunk starts at t={times[0]} but {self._t_last} was already seen; "
                "chunks must arrive in strictly increasing time order"
            )
        return self._fold_chunk(times, values)

    def update_trusted(self, times_s: np.ndarray, values: np.ndarray) -> "OnlineStats":
        """Fold a pre-validated chunk in, skipping the shape and order checks.

        For hot paths feeding float slices of batches that were already
        validated at construction (the live rollup's window slices): the
        arithmetic is byte-for-byte :meth:`update`'s — only the error
        checks are skipped — so the resulting state is bit-identical.
        """
        if len(times_s) == 0:
            return self
        return self._fold_chunk(times_s, values)

    def _fold_chunk(self, times: np.ndarray, values: np.ndarray) -> "OnlineStats":
        """Accumulate one non-empty, validated chunk (shared by both updates)."""
        # Time-weighting: the pending last sample's interval completes at the
        # chunk's first timestamp, then every in-chunk interval completes.
        # The interval/holder arrays are built by direct assignment — the
        # same pairwise differences a diff over the concatenation computes,
        # without materialising the concatenated copies.
        m = len(times)
        if self._n_total == 0:
            self._t_first = float(times[0])
            dts = times[1:] - times[:-1] if m >= 2 else None
            holders = values[:-1] if m >= 2 else None
        else:
            dts = np.empty(m)
            dts[0] = times[0] - self._t_last
            np.subtract(times[1:], times[:-1], out=dts[1:])
            holders = np.empty(m)
            holders[0] = self._v_last
            holders[1:] = values[:-1]
        if dts is not None:
            held = ~np.isnan(holders)
            self._tw_sum += float(np.dot(holders[held], dts[held]))
            self._tw_weight += float(dts[held].sum())
            self._last_dt = float(dts[-1])

        # Value moments: per-chunk batch statistics merged via Chan's formula.
        valid = ~np.isnan(values)
        n_b = int(np.count_nonzero(valid))
        if n_b:
            vv = values[valid]
            mean_b = float(vv.mean())
            m2_b = float(np.sum((vv - mean_b) ** 2))
            n_a = self._n_valid
            if n_a == 0:
                self._mean, self._m2 = mean_b, m2_b
            else:
                delta = mean_b - self._mean
                n_ab = n_a + n_b
                self._mean += delta * n_b / n_ab
                self._m2 += m2_b + delta * delta * n_a * n_b / n_ab
            self._n_valid += n_b
            self._min = min(self._min, float(vv.min()))
            self._max = max(self._max, float(vv.max()))

        self._n_total += len(times)
        self._t_last = float(times[-1])
        self._v_last = float(values[-1])
        return self

    def push(self, time_s: float, value: float) -> "OnlineStats":
        """Fold a single sample in (live-ingest convenience)."""
        return self.update(np.array([time_s]), np.array([value]))

    @classmethod
    def from_series(cls, series: TimeSeries) -> "OnlineStats":
        """Accumulator equivalent to the batch statistics of ``series``."""
        return cls(name=series.name).update(series.times_s, series.values)

    # -- persistence -----------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of the accumulator (see ``restore``)."""
        return {slot: getattr(self, slot) for slot in OnlineStats.__slots__}

    def load_state_dict(self, state: dict) -> None:
        """Overwrite this accumulator in place from a :meth:`state_dict` snapshot.

        The round-trip is exact: every statistic of the restored accumulator
        is bit-identical to the original's, so a checkpointed monitor resumes
        with no drift.
        """
        for slot in OnlineStats.__slots__:
            if slot != "name":
                setattr(self, slot, state[slot])
        self.name = state.get("name", self.name)

    @classmethod
    def restore(cls, state: dict) -> "OnlineStats":
        """Rebuild an accumulator from a :meth:`state_dict` snapshot."""
        out = cls(state.get("name", ""))
        out.load_state_dict(state)
        return out

    # -- results ---------------------------------------------------------------

    @property
    def n_total(self) -> int:
        """Total samples absorbed, NaN dropouts included."""
        return self._n_total

    @property
    def n_valid(self) -> int:
        """Non-NaN samples absorbed."""
        return self._n_valid

    @property
    def mean(self) -> float:
        """Arithmetic mean over valid samples (NaN while empty)."""
        return self._mean if self._n_valid else math.nan

    @property
    def variance(self) -> float:
        """Population variance over valid samples, matching ``np.nanstd**2``."""
        return self._m2 / self._n_valid if self._n_valid else math.nan

    @property
    def std(self) -> float:
        """Population standard deviation over valid samples."""
        return math.sqrt(self.variance) if self._n_valid else math.nan

    @property
    def minimum(self) -> float:
        """Minimum over valid samples (NaN while empty)."""
        return self._min if self._n_valid else math.nan

    @property
    def maximum(self) -> float:
        """Maximum over valid samples (NaN while empty)."""
        return self._max if self._n_valid else math.nan

    @property
    def t_start_s(self) -> float:
        """First timestamp absorbed."""
        return self._t_first

    @property
    def t_end_s(self) -> float:
        """Last timestamp absorbed."""
        return self._t_last

    @property
    def span_s(self) -> float:
        """Covered span, seconds."""
        return self._t_last - self._t_first if self._n_total else math.nan

    @property
    def time_weighted_mean(self) -> float:
        """Interval-weighted mean, matching the batch semantics exactly."""
        if self._n_total == 0:
            return math.nan
        if self._n_total == 1:
            return self._v_last
        tw_sum, weight = self._tw_sum, self._tw_weight
        if not math.isnan(self._v_last):
            tw_sum += self._v_last * self._last_dt
            weight += self._last_dt
        if weight <= 0:
            return math.nan
        return tw_sum / weight


class MergingQuantileSketch:
    """Deterministic block-merging quantile summary over a value stream.

    Observations fill a fixed buffer of ``block_size`` values; every time
    the buffer fills *exactly*, the sorted block is merged into a bounded
    summary of ``summary_size`` equally-weighted points (a one-level
    weight-collapsing merge in the spirit of Greenwald–Khanna / KLL
    compactors). Because compaction happens at fixed sample counts and all
    arithmetic is array-deterministic, the sketch state is a pure function
    of the observation *sequence* — feeding samples one at a time or in
    arbitrary chunks yields bit-identical state and results. That property
    is what makes rollup results independent of how the stream is batched.

    Memory is O(block_size + summary_size); rank error after *F* folds is
    about ``F / (4 * summary_size)`` of the distribution, exact while fewer
    than ``block_size`` observations have been absorbed. NaN observations
    are skipped, matching ``np.nanpercentile``'s intent.
    """

    def __init__(self, block_size: int = 16384, summary_size: int = 2048) -> None:
        """Buffer ``block_size`` values per fold; keep ``summary_size`` points."""
        if block_size < 2:
            raise TelemetryError(f"block_size must be >= 2, got {block_size}")
        if summary_size < 2:
            raise TelemetryError(f"summary_size must be >= 2, got {summary_size}")
        self.block_size = int(block_size)
        self.summary_size = int(summary_size)
        # Allocated on first observation: an idle sketch (a rollup window
        # that never receives its stream) costs no block-sized buffer.
        self._buffer: np.ndarray | None = None
        self._fill = 0
        self._summary = np.empty(0, dtype=float)
        self._weight = 0.0
        self._n_valid = 0

    def add(self, x: float) -> None:
        """Absorb one observation (NaN ignored)."""
        if math.isnan(x):
            return
        if self._buffer is None:
            self._buffer = np.empty(self.block_size, dtype=float)
        self._buffer[self._fill] = x
        self._fill += 1
        self._n_valid += 1
        if self._fill == self.block_size:
            self._fold()

    def update(self, values: np.ndarray) -> "MergingQuantileSketch":
        """Absorb a chunk of observations; returns ``self`` for chaining."""
        chunk = np.asarray(values, dtype=float)
        if chunk.ndim != 1:
            raise SeriesShapeError("chunk values must be 1-D")
        chunk = chunk[~np.isnan(chunk)]
        if not len(chunk):
            return self
        if self._buffer is None:
            self._buffer = np.empty(self.block_size, dtype=float)
        self._n_valid += len(chunk)
        pos = 0
        while pos < len(chunk):
            take = min(self.block_size - self._fill, len(chunk) - pos)
            self._buffer[self._fill : self._fill + take] = chunk[pos : pos + take]
            self._fill += take
            pos += take
            if self._fill == self.block_size:
                self._fold()
        return self

    def _fold(self) -> None:
        """Collapse the full buffer and the summary into a fresh summary."""
        values, weights = self._merged(np.sort(self._buffer))
        cum = np.cumsum(weights)
        del weights
        total = float(cum[-1])
        m = self.summary_size
        # One representative per equal-mass stratum: the first point whose
        # cumulative weight reaches the stratum's centre of mass.
        targets = (np.arange(m) + 0.5) * (total / m)
        picks = np.minimum(np.searchsorted(cum, targets, side="left"), len(values) - 1)
        self._summary = values[picks]
        self._weight = total / m
        self._fill = 0

    def _merged(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weighted merge of the summary with a sorted block of unit weights.

        The stable argsort keeps summary points ahead of equal block values
        (deterministic tie order); the block itself needs no stable sort —
        its entries all carry unit weight, so equal values are
        interchangeable.
        """
        n_s = len(self._summary)
        if not n_s:
            return block, np.ones(len(block))
        n = n_s + len(block)
        values = np.concatenate((self._summary, block))
        del block  # drop the sorted copy before the argsort transient peaks
        weights = np.empty(n)
        weights[:n_s] = self._weight
        weights[n_s:] = 1.0
        order = np.argsort(values, kind="stable")
        values = values.take(order)
        weights = weights.take(order)
        del order
        return values, weights

    def result(self, q: float) -> float:
        """Estimate the ``q``-quantile (NaN if nothing absorbed yet)."""
        if not 0.0 < q < 1.0:
            raise TelemetryError(f"quantile must be in (0, 1), got {q}")
        if self._n_valid == 0:
            return math.nan
        pending = (
            self._buffer[: self._fill]
            if self._buffer is not None
            else np.empty(0, dtype=float)
        )
        if not len(self._summary):
            return float(np.percentile(pending, 100.0 * q))
        values, weights = self._merged(np.sort(pending))
        cum = np.cumsum(weights)
        centres = cum - weights / 2.0
        return float(np.interp(q * cum[-1], centres, values))

    # -- persistence -----------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of the sketch (see ``restore``): JSON values plus bytes.

        The ``pending`` and ``summary`` arrays are ``bytes`` of
        little-endian float64 — exact by construction. A monitor
        checkpoint stores them raw as body sections; on their own the
        snapshot is not ``json.dumps``-able.
        """
        pending = self._buffer[: self._fill] if self._buffer is not None else ()
        return {
            "block_size": self.block_size,
            "summary_size": self.summary_size,
            "n_valid": self._n_valid,
            "pending": np.asarray(pending, dtype="<f8").tobytes(),
            "summary": np.asarray(self._summary, dtype="<f8").tobytes(),
            "summary_weight": self._weight,
        }

    def load_state_dict(self, state: dict) -> None:
        """Overwrite the sketch in place from a :meth:`state_dict` snapshot.

        The round-trip is bit-exact, so a restored sketch continues
        bit-identically. An array that is not bytes of whole float64
        values, or whose length disagrees with ``n_valid`` (a truncated
        snapshot), raises :class:`~repro.errors.TelemetryError`.
        """
        block_size = int(state["block_size"])
        summary_size = int(state["summary_size"])
        n_valid = int(state["n_valid"])
        packed = {"pending": state["pending"], "summary": state["summary"]}
        for name, raw in packed.items():
            if not isinstance(raw, bytes) or len(raw) % 8:
                raise TelemetryError(f"sketch {name!r} is not bytes of whole float64 values")
        pending = np.frombuffer(packed["pending"], dtype="<f8").astype(float)
        summary = np.frombuffer(packed["summary"], dtype="<f8").astype(float)
        # Folds happen at exact multiples of block_size, each leaving a
        # summary of exactly summary_size points.
        folded = n_valid >= block_size
        if len(pending) != n_valid % block_size or len(summary) != (
            summary_size if folded else 0
        ):
            raise TelemetryError(
                f"sketch state is inconsistent: {len(pending)} pending and "
                f"{len(summary)} summary values for n_valid={n_valid}, "
                f"block_size={block_size}, summary_size={summary_size}"
            )
        self.block_size = block_size
        self.summary_size = summary_size
        self._fill = len(pending)
        if self._fill:
            self._buffer = np.empty(self.block_size, dtype=float)
            self._buffer[: self._fill] = pending
        else:
            self._buffer = None
        self._summary = summary
        self._weight = float(state["summary_weight"])
        self._n_valid = n_valid

    @classmethod
    def restore(cls, state: dict) -> "MergingQuantileSketch":
        """Rebuild a sketch from a :meth:`state_dict` snapshot, exactly."""
        out = cls(int(state["block_size"]), int(state["summary_size"]))
        out.load_state_dict(state)
        return out

    @property
    def n_valid(self) -> int:
        """Non-NaN observations absorbed."""
        return self._n_valid


class ChunkedSeriesReader:
    """Re-iterable fixed-size chunk source over telemetry.

    Accepts an in-memory :class:`TimeSeries` (chunks are zero-copy views),
    a telemetry CSV path (rows are streamed through
    :func:`~repro.telemetry.io.iter_csv` — the whole file is never
    resident), or an NPZ path (read by :func:`~repro.telemetry.io.load_npz`
    once per pass, then sliced). Every chunk is therefore validated as a
    :class:`TimeSeries` is and starts after the previous one: a file yields
    chunks exactly when ``load_csv``/``load_npz`` would accept it. Each
    ``iter()`` restarts from the beginning, which is what multi-pass
    consumers like change-point detection need.
    """

    def __init__(
        self,
        source: TimeSeries | str | Path,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        name: str = "",
    ) -> None:
        """Wrap ``source`` for iteration in chunks of ``chunk_size`` samples."""
        if chunk_size < 1:
            raise TelemetryError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = int(chunk_size)
        if isinstance(source, TimeSeries):
            self._series: TimeSeries | None = source
            self._path: Path | None = None
            self.name = name or source.name
        elif isinstance(source, (str, Path)):
            path = Path(source)
            if path.suffix.lower() not in (".csv", ".npz"):
                raise TelemetryError(
                    f"{path}: unsupported telemetry source (want .csv or .npz)"
                )
            self._series = None
            self._path = path
            self.name = name or path.stem
        else:
            raise TelemetryError(
                f"unsupported chunk source {type(source).__name__}; "
                "pass a TimeSeries or a .csv/.npz path"
            )

    def __iter__(self) -> Iterator[SeriesChunk]:
        if self._series is None and self._path.suffix.lower() == ".csv":
            for chunk in iter_csv(self._path, self.chunk_size):
                yield SeriesChunk(chunk.times_s, chunk.values)
            return
        series = self._series if self._series is not None else load_npz(self._path)
        for lo in range(0, len(series), self.chunk_size):
            hi = lo + self.chunk_size
            yield SeriesChunk(series.times_s[lo:hi], series.values[lo:hi])


def as_chunk_reader(
    source: TimeSeries | str | Path | ChunkedSeriesReader,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> ChunkedSeriesReader:
    """Coerce any accepted chunk source into a :class:`ChunkedSeriesReader`."""
    if isinstance(source, ChunkedSeriesReader):
        return source
    return ChunkedSeriesReader(source, chunk_size)


def stream_stats(
    source: TimeSeries | str | Path | ChunkedSeriesReader,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> OnlineStats:
    """Single-pass :class:`OnlineStats` over any chunk source."""
    reader = as_chunk_reader(source, chunk_size)
    stats = OnlineStats(name=reader.name)
    for chunk in reader:
        stats.update(chunk.times_s, chunk.values)
    return stats
