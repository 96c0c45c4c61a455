"""Telemetry persistence: CSV (interchange) and NPZ (compact) round-trips.

This module owns both file formats. :func:`iter_csv` is the one CSV parser:
:func:`load_csv` concatenates its chunks and
:class:`~repro.telemetry.streaming.ChunkedSeriesReader` streams them, so a
file is accepted by every route exactly when :func:`load_csv` (or, for NPZ,
:func:`load_npz`) accepts it.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterator

import numpy as np

from ..errors import SeriesShapeError, TelemetryError
from .series import TimeSeries

__all__ = ["save_csv", "load_csv", "iter_csv", "save_npz", "load_npz"]

#: Default samples per chunk when a telemetry file is streamed.
DEFAULT_CHUNK_SIZE = 65_536

_CSV_HEADER = ("time_s", "value")


def save_csv(series: TimeSeries, path: str | Path) -> None:
    """Write a series as two-column CSV with a header row.

    NaN dropouts are written as empty fields, the common telemetry-export
    convention.
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for t, v in zip(series.times_s, series.values):
            writer.writerow([f"{t:.6f}", "" if np.isnan(v) else f"{v:.6f}"])


def iter_csv(
    path: str | Path, chunk_size: int = DEFAULT_CHUNK_SIZE, name: str = ""
) -> Iterator[TimeSeries]:
    """Stream a file written by :func:`save_csv` as validated chunks.

    Rows are parsed ``chunk_size`` at a time (empty fields → NaN); each
    chunk is a :class:`TimeSeries`, so its timestamps are checked as any
    series' are, and it must start after the previous chunk ended. A file
    with no data rows raises :class:`~repro.errors.SeriesShapeError`, as an
    empty series does.
    """
    path = Path(path)
    name = name or path.stem
    times: list[float] = []
    values: list[float] = []
    last: TimeSeries | None = None
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != _CSV_HEADER:
            raise TelemetryError(f"{path}: not a telemetry CSV (bad header {header!r})")
        for line, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise TelemetryError(f"{path}:{line}: malformed row {row!r}")
            try:
                times.append(float(row[0]))
                values.append(float("nan") if row[1] == "" else float(row[1]))
            except ValueError as exc:
                raise TelemetryError(
                    f"{path}:{line}: non-numeric field in row {row!r}: {exc}"
                ) from exc
            if len(times) == chunk_size:
                last = _csv_chunk(path, times, values, name, last)
                yield last
                times, values = [], []
    if times or last is None:
        yield _csv_chunk(path, times, values, name, last)


def _csv_chunk(
    path: Path,
    times: list[float],
    values: list[float],
    name: str,
    previous: TimeSeries | None,
) -> TimeSeries:
    try:
        chunk = TimeSeries(np.asarray(times), np.asarray(values), name)
    except SeriesShapeError as exc:
        raise SeriesShapeError(f"{path}: {exc}") from exc
    if previous is not None and chunk.t_start_s <= previous.t_end_s:
        raise SeriesShapeError(f"{path}: timestamps must be strictly increasing")
    return chunk


def load_csv(path: str | Path, name: str = "") -> TimeSeries:
    """Read a series written by :func:`save_csv` (empty fields → NaN)."""
    chunks = list(iter_csv(path, name=name))
    return TimeSeries(
        np.concatenate([c.times_s for c in chunks]),
        np.concatenate([c.values for c in chunks]),
        chunks[0].name,
    )


def save_npz(series: TimeSeries, path: str | Path) -> None:
    """Write a series as a compressed NPZ archive."""
    np.savez_compressed(
        Path(path), times_s=series.times_s, values=series.values, name=series.name
    )


def load_npz(path: str | Path) -> TimeSeries:
    """Read a series written by :func:`save_npz`.

    A file without a ``name`` array is named after its stem.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        try:
            times, values = data["times_s"], data["values"]
        except KeyError as exc:
            raise TelemetryError(f"{path}: missing array {exc}") from exc
        name = str(data["name"]) if "name" in data.files else path.stem
    return TimeSeries(times, values, name)
