"""TimeSeries tests."""

import numpy as np
import pytest

from repro.errors import SeriesShapeError
from repro.telemetry.series import TimeSeries


def make_series(n=100, start=0.0, step=60.0, value=100.0):
    times = start + step * np.arange(n)
    return TimeSeries(times, np.full(n, value), "test")


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(SeriesShapeError):
            TimeSeries(np.array([]), np.array([]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(SeriesShapeError):
            TimeSeries(np.array([0.0, 1.0]), np.array([1.0]))

    def test_non_increasing_times_rejected(self):
        with pytest.raises(SeriesShapeError):
            TimeSeries(np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))

    def test_nan_timestamps_rejected(self):
        with pytest.raises(SeriesShapeError):
            TimeSeries(np.array([0.0, np.nan]), np.array([1.0, 2.0]))

    def test_2d_rejected(self):
        with pytest.raises(SeriesShapeError):
            TimeSeries(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_nan_values_allowed(self):
        series = TimeSeries(np.array([0.0, 1.0]), np.array([1.0, np.nan]))
        assert series.n_valid == 1


class TestStatistics:
    def test_mean_skips_nan(self):
        series = TimeSeries(
            np.array([0.0, 1.0, 2.0]), np.array([10.0, np.nan, 30.0])
        )
        assert series.mean() == pytest.approx(20.0)

    def test_percentiles(self):
        series = TimeSeries(np.arange(101.0), np.arange(101.0))
        assert series.percentile(50.0) == pytest.approx(50.0)
        p5, p95 = series.percentile(np.array([5.0, 95.0]))
        assert p5 == pytest.approx(5.0)
        assert p95 == pytest.approx(95.0)

    def test_min_max_std(self):
        series = TimeSeries(np.arange(4.0), np.array([1.0, 3.0, 5.0, 7.0]))
        assert series.min() == 1.0
        assert series.max() == 7.0
        assert series.std() == pytest.approx(np.std([1, 3, 5, 7]))

    def test_time_weighted_mean_regular_equals_mean(self):
        series = make_series(50)
        assert series.time_weighted_mean() == pytest.approx(series.mean())

    def test_time_weighted_mean_irregular(self):
        # 10 W held for 9 s, then 100 W held for 1 s (synthesised final gap).
        series = TimeSeries(np.array([0.0, 9.0]), np.array([10.0, 100.0]))
        # durations: 9 and 9 (last sample holds for the last observed interval)
        assert series.time_weighted_mean() == pytest.approx(55.0)

    def test_time_weighted_mean_epoch_timestamps(self):
        """Regression: the synthetic final interval must not depend on the
        timestamp origin — epoch-second series used to get a ~50-year tail."""
        values = np.array([1.0, 2.0, 3.0])
        offsets = np.array([0.0, 60.0, 120.0])
        zero_based = TimeSeries(offsets, values)
        epoch = TimeSeries(1.7e9 + offsets, values)
        assert epoch.time_weighted_mean() == pytest.approx(2.0)
        assert epoch.time_weighted_mean() == pytest.approx(
            zero_based.time_weighted_mean()
        )

    def test_time_weighted_mean_last_observed_interval(self):
        # durations: 1, 10, and 10 again for the final sample
        series = TimeSeries(np.array([0.0, 1.0, 11.0]), np.array([0.0, 10.0, 20.0]))
        assert series.time_weighted_mean() == pytest.approx(300.0 / 21.0)

    def test_time_weighted_mean_single_nan_is_nan(self):
        series = TimeSeries(np.array([1.7e9]), np.array([np.nan]))
        assert np.isnan(series.time_weighted_mean())

    def test_time_weighted_mean_all_nan_is_nan(self):
        series = TimeSeries(np.arange(3.0), np.full(3, np.nan))
        assert np.isnan(series.time_weighted_mean())

    def test_span_properties(self):
        series = make_series(10, start=100.0, step=50.0)
        assert series.t_start_s == 100.0
        assert series.t_end_s == 100.0 + 9 * 50.0
        assert series.span_s == 450.0


class TestTransforms:
    def test_slice_half_open(self):
        series = make_series(10, step=1.0)
        part = series.slice(2.0, 5.0)
        assert len(part) == 3
        assert part.t_start_s == 2.0

    def test_slice_empty_raises(self):
        with pytest.raises(SeriesShapeError):
            make_series(10, step=1.0).slice(100.0, 200.0)

    def test_slice_bad_bounds(self):
        with pytest.raises(SeriesShapeError):
            make_series(10).slice(5.0, 5.0)

    def test_scale_and_shift(self):
        series = make_series(5, value=1000.0)
        assert series.scale_values(1e-3).mean() == pytest.approx(1.0)
