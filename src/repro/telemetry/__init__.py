"""Telemetry substrate: time series, power meters, recording, persistence."""

from .io import load_csv, load_npz, save_csv, save_npz
from .meters import MeterSpec, PowerMeter
from .recorder import CabinetPowerRecorder
from .series import TimeSeries
from .streaming import (
    ChunkedSeriesReader,
    MergingQuantileSketch,
    OnlineStats,
    SeriesChunk,
    as_chunk_reader,
    stream_stats,
)

__all__ = [
    "TimeSeries",
    "OnlineStats",
    "MergingQuantileSketch",
    "SeriesChunk",
    "ChunkedSeriesReader",
    "as_chunk_reader",
    "stream_stats",
    "MeterSpec",
    "PowerMeter",
    "CabinetPowerRecorder",
    "save_csv",
    "load_csv",
    "save_npz",
    "load_npz",
]
