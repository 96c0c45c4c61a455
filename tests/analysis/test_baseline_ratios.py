"""Baseline statistics tests."""

import numpy as np
import pytest

from repro.analysis.baseline import compare_to_inventory, summarise
from repro.errors import AnalysisError
from repro.telemetry.series import TimeSeries
from repro.units import SECONDS_PER_DAY


class TestSummarise:
    def test_constant_series(self):
        times = np.arange(0.0, 10 * SECONDS_PER_DAY, 900.0)
        stats = summarise(TimeSeries(times, np.full(len(times), 3220.0)))
        assert stats.mean == 3220.0
        assert stats.std == 0.0
        assert stats.p5 == stats.p95 == 3220.0
        assert stats.span_days == pytest.approx(10.0, rel=0.01)

    def test_nan_excluded(self):
        series = TimeSeries(
            np.arange(4.0), np.array([np.nan, 100.0, 200.0, np.nan])
        )
        stats = summarise(series)
        assert stats.mean == pytest.approx(150.0)
        assert stats.n_samples == 2

    def test_all_nan_rejected(self):
        series = TimeSeries(np.arange(4.0), np.full(4, np.nan))
        with pytest.raises(AnalysisError):
            summarise(series)


class TestInventoryComparison:
    def test_baseline_below_loaded_above_idle(self, inventory):
        times = np.arange(0.0, SECONDS_PER_DAY, 900.0)
        series = TimeSeries(times, np.full(len(times), 3.22e6))  # watts
        result = compare_to_inventory(summarise(series), inventory)
        assert 0.9 < result["fraction_of_loaded"] < 1.0
        assert result["fraction_of_idle"] > 1.5
