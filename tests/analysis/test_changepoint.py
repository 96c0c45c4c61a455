"""Change-point detection tests."""

import numpy as np
import pytest

from repro.analysis.changepoint import detect_single, segment_means
from repro.errors import AnalysisError
from repro.telemetry.series import TimeSeries


def step_series(n=1000, split=600, before=3220.0, after=2530.0, noise=0.0, rng=None):
    times = 900.0 * np.arange(n)
    values = np.where(np.arange(n) < split, before, after)
    if noise and rng is not None:
        values = values + rng.normal(0, noise, n)
    return TimeSeries(times, values.astype(float), "step")


class TestDetectSingle:
    def test_clean_step_located_exactly(self):
        series = step_series()
        cp = detect_single(series)
        assert cp.index == 600
        assert cp.mean_before == pytest.approx(3220.0)
        assert cp.mean_after == pytest.approx(2530.0)

    def test_noisy_step_located_approximately(self, rng):
        series = step_series(noise=50.0, rng=rng)
        cp = detect_single(series)
        assert abs(cp.index - 600) < 10

    def test_realistic_noise_level(self, rng):
        """Figure 2's step (~210 kW) against realistic telemetry noise."""
        series = step_series(before=3220.0, after=3010.0, noise=80.0, rng=rng)
        cp = detect_single(series)
        assert abs(cp.index - 600) < 30
        assert cp.mean_before - cp.mean_after == pytest.approx(210.0, abs=30.0)

    def test_significance_high_for_step(self):
        assert detect_single(step_series()).significance > 5.0

    def test_significance_low_without_change(self, rng):
        times = 900.0 * np.arange(1000)
        flat = TimeSeries(times, 3220.0 + rng.normal(0, 30, 1000))
        cp = detect_single(flat)
        assert cp.significance < 2.5

    def test_nan_samples_skipped(self):
        series = step_series()
        values = series.values.copy()
        values[::50] = np.nan
        cp = detect_single(TimeSeries(series.times_s, values))
        assert cp.mean_before == pytest.approx(3220.0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(AnalysisError):
            detect_single(TimeSeries(np.arange(3.0), np.arange(3.0)))


class TestSegmentMeans:
    def test_known_change_times(self):
        n = 1500
        times = 900.0 * np.arange(n)
        values = np.full(n, 3220.0)
        values[500:1000] = 3010.0
        values[1000:] = 2530.0
        means = segment_means(
            TimeSeries(times, values), [times[500], times[1000]]
        )
        assert means == pytest.approx([3220.0, 3010.0, 2530.0])

    def test_empty_segment_rejected(self):
        series = step_series(n=100, split=50)
        with pytest.raises(AnalysisError):
            segment_means(series, [-100.0])
