"""Event model tests for the live pipeline."""

import numpy as np
import pytest

from repro.errors import SeriesShapeError
from repro.live.events import (
    CI_STREAM,
    POWER_STREAM,
    StreamBatch,
    merge_batches,
    series_batches,
)
from repro.telemetry.io import save_csv
from repro.telemetry.series import TimeSeries


def make_batch(stream=POWER_STREAM, t0=0.0, n=4, value=1.0):
    times = t0 + np.arange(n, dtype=float)
    return StreamBatch(stream, times, np.full(n, value))


class TestStreamBatch:
    def test_valid_batch(self):
        batch = make_batch(n=3)
        assert len(batch) == 3
        assert batch.t_start_s == 0.0
        assert batch.t_end_s == 2.0

    def test_nan_values_allowed(self):
        batch = StreamBatch(POWER_STREAM, np.array([0.0, 1.0]), np.array([np.nan, 2.0]))
        assert np.isnan(batch.values[0])

    def test_empty_rejected(self):
        with pytest.raises(SeriesShapeError):
            StreamBatch(POWER_STREAM, np.array([]), np.array([]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(SeriesShapeError):
            StreamBatch(POWER_STREAM, np.arange(3.0), np.ones(2))

    def test_2d_rejected(self):
        with pytest.raises(SeriesShapeError):
            StreamBatch(POWER_STREAM, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_nonfinite_time_rejected(self):
        with pytest.raises(SeriesShapeError):
            StreamBatch(POWER_STREAM, np.array([0.0, np.inf]), np.ones(2))

    def test_non_increasing_times_rejected(self):
        with pytest.raises(SeriesShapeError):
            StreamBatch(POWER_STREAM, np.array([0.0, 1.0, 1.0]), np.ones(3))


class TestSeriesBatches:
    def test_series_reconstructs(self):
        series = TimeSeries(np.arange(100.0), np.arange(100.0) * 2.0)
        batches = list(series_batches(POWER_STREAM, series, batch_size=17))
        assert all(b.stream == POWER_STREAM for b in batches)
        times = np.concatenate([b.times_s for b in batches])
        values = np.concatenate([b.values for b in batches])
        np.testing.assert_array_equal(times, series.times_s)
        np.testing.assert_array_equal(values, series.values)

    def test_csv_source(self, tmp_path):
        series = TimeSeries(np.arange(10.0), np.ones(10))
        path = tmp_path / "cabinet.csv"
        save_csv(series, path)
        batches = list(series_batches(POWER_STREAM, path, batch_size=4))
        assert sum(len(b) for b in batches) == 10


class TestMergeBatches:
    def test_global_time_order(self):
        power = [make_batch(POWER_STREAM, t0=t, n=4) for t in (0.0, 10.0, 20.0)]
        ci = [make_batch(CI_STREAM, t0=t, n=4) for t in (5.0, 15.0)]
        merged = list(merge_batches(power, ci))
        starts = [b.t_start_s for b in merged]
        assert starts == sorted(starts)
        assert len(merged) == 5

    def test_within_stream_order_preserved(self):
        power = [make_batch(POWER_STREAM, t0=t, n=2) for t in (0.0, 4.0, 8.0)]
        merged = [b for b in merge_batches(power) if b.stream == POWER_STREAM]
        assert [b.t_start_s for b in merged] == [0.0, 4.0, 8.0]

    def test_empty_sources(self):
        assert list(merge_batches([], [])) == []

    def test_adjacent_but_disjoint_batches_accepted(self):
        """Starting strictly after the previous end is fine."""
        batches = [make_batch(POWER_STREAM, t0=0.0, n=4), make_batch(POWER_STREAM, t0=4.0, n=4)]
        merged = list(merge_batches(batches))
        times = np.concatenate([b.times_s for b in merged])
        assert len(np.unique(times)) == len(times) == 8

    def test_non_strict_mode_passes_faulty_flow_through(self):
        """The merge delivers everything unchecked — duplicates and rewinds
        included — for the pipeline's admission to dead-letter."""
        batches = [
            make_batch(POWER_STREAM, t0=0.0, n=4),
            make_batch(POWER_STREAM, t0=3.0, n=4),  # boundary duplicate
            make_batch(POWER_STREAM, t0=1.0, n=2),  # full rewind
        ]
        merged = list(merge_batches(batches))
        assert len(merged) == 3

