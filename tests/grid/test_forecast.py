"""Carbon-intensity forecasting tests."""

import numpy as np
import pytest

from repro.errors import AnalysisError, UnitError
from repro.grid.forecast import (
    FeedOutage,
    ForecastFeed,
    ForecastIndex,
    sample_feed_outages,
)
from repro.telemetry.series import TimeSeries
from repro.units import SECONDS_PER_DAY


class TestForecastIndex:
    @pytest.fixture
    def step_series(self):
        """100 on [0, 3600), 40 on [3600, 7200), 200 from 7200 on."""
        return TimeSeries(
            np.array([0.0, 3600.0, 7200.0]),
            np.array([100.0, 40.0, 200.0]),
            "ci",
        )

    def test_window_mean_exact_on_step_function(self, step_series):
        index = ForecastIndex(step_series)
        assert index.window_mean(0.0, 3600.0) == pytest.approx(100.0)
        assert index.window_mean(0.0, 7200.0) == pytest.approx(70.0)
        # Half in the 40 segment, half in the 200 segment.
        assert index.window_mean(5400.0, 9000.0) == pytest.approx(120.0)

    def test_ci_at_holds_previous_value_and_extends_flat(self, step_series):
        index = ForecastIndex(step_series)
        assert index.ci_at(-100.0) == 100.0
        assert index.ci_at(3599.0) == 100.0
        assert index.ci_at(3600.0) == 40.0
        assert index.ci_at(1e9) == 200.0

    def test_greenest_window_finds_the_low_segment(self, step_series):
        index = ForecastIndex(step_series)
        window = index.greenest_window(3600.0, 0.0, 86_400.0)
        assert window.t_start_s == 3600.0
        assert window.mean_ci_g_per_kwh == pytest.approx(40.0)

    def test_greenest_window_ties_break_earliest(self):
        flat = TimeSeries(
            np.arange(0.0, 10 * 3600.0, 3600.0), np.full(10, 80.0), "ci"
        )
        window = ForecastIndex(flat).greenest_window(1800.0, 900.0, 5 * 3600.0)
        assert window.t_start_s == 900.0

    def test_nan_forecast_rejected(self):
        series = TimeSeries(
            np.array([0.0, 3600.0]), np.array([100.0, np.nan]), "ci"
        )
        with pytest.raises(AnalysisError):
            ForecastIndex(series)

    def test_degenerate_window_rejected(self, step_series):
        with pytest.raises(AnalysisError):
            ForecastIndex(step_series).window_mean(100.0, 100.0)


@pytest.fixture
def hourly_series():
    t = np.arange(0.0, 48 * 3600.0, 3600.0)
    return TimeSeries(t, 100.0 + np.arange(len(t), dtype=float), "ci")


class TestForecastFeed:
    def test_refresh_on_cadence_grid(self, hourly_series):
        feed = ForecastFeed(ForecastIndex(hourly_series), refresh_interval_s=1800.0)
        assert feed.last_refresh_s(0.0) == 0.0
        assert feed.last_refresh_s(1799.0) == 0.0
        assert feed.last_refresh_s(1800.0) == 1800.0
        assert feed.last_refresh_s(5000.0) == 3600.0

    def test_exact_grid_instant_not_lost_to_float_error(self, hourly_series):
        feed = ForecastFeed(ForecastIndex(hourly_series), refresh_interval_s=0.1)
        assert feed.last_refresh_s(100 * 0.1) == pytest.approx(10.0)

    def test_outage_holds_last_value(self, hourly_series):
        feed = ForecastFeed(
            ForecastIndex(hourly_series),
            refresh_interval_s=1800.0,
            outages=(FeedOutage(3600.0, 4 * 3600.0),),
        )
        # Refreshes at 3600, 5400, ... are blocked; last success was 1800.
        assert feed.last_refresh_s(2 * 3600.0) == 1800.0
        assert feed.last_refresh_s(3.9 * 3600.0) == 1800.0
        assert feed.ci_at(3.9 * 3600.0) == feed.index.ci_at(1800.0)

    def test_recovers_at_first_refresh_after_outage(self, hourly_series):
        feed = ForecastFeed(
            ForecastIndex(hourly_series),
            refresh_interval_s=1800.0,
            outages=(FeedOutage(3600.0, 4 * 3600.0),),
        )
        # First grid instant at/after the outage end is 4 h exactly.
        assert feed.last_refresh_s(4 * 3600.0) == 4 * 3600.0
        assert feed.staleness_s(4 * 3600.0) == 0.0

    def test_staleness_and_threshold(self, hourly_series):
        feed = ForecastFeed(
            ForecastIndex(hourly_series),
            refresh_interval_s=1800.0,
            outages=(FeedOutage(3600.0, 10 * 3600.0),),
        )
        assert feed.is_stale(6 * 3600.0, threshold_s=2 * 3600.0)
        assert not feed.is_stale(2 * 3600.0, threshold_s=2 * 3600.0)

    def test_before_series_start_pins_to_anchor(self, hourly_series):
        feed = ForecastFeed(ForecastIndex(hourly_series))
        assert feed.last_refresh_s(-500.0) == 0.0

    def test_overlapping_outages_rejected(self, hourly_series):
        with pytest.raises(AnalysisError):
            ForecastFeed(
                ForecastIndex(hourly_series),
                outages=(FeedOutage(0.0, 7200.0), FeedOutage(3600.0, 9000.0)),
            )

    def test_outage_validation(self):
        with pytest.raises(AnalysisError):
            FeedOutage(100.0, 100.0)
        with pytest.raises(AnalysisError):
            FeedOutage(0.0, float("inf"))


class TestSampleFeedOutages:
    def test_seeded_and_non_overlapping(self):
        span = 30 * SECONDS_PER_DAY
        a = sample_feed_outages(span, np.random.default_rng(9))
        b = sample_feed_outages(span, np.random.default_rng(9))
        assert a == b
        for prev, cur in zip(a, a[1:]):
            assert cur.t_start_s >= prev.t_end_s
        for outage in a:
            assert 0.0 <= outage.t_start_s < outage.t_end_s <= span

    def test_frequent_outages_appear(self):
        outages = sample_feed_outages(
            30 * SECONDS_PER_DAY,
            np.random.default_rng(2),
            mtbf_hours=24.0,
            mttr_hours=2.0,
        )
        assert len(outages) > 5

    def test_validation(self):
        with pytest.raises(UnitError):
            sample_feed_outages(0.0, np.random.default_rng(0))
