"""Carbon-intensity forecasting tests."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError, UnitError
from repro.facility.failures import FailureModel, FaultConfig
from repro.grid.forecast import (
    FeedOutage,
    ForecastFeed,
    ForecastIndex,
    ForecastWindow,
    sample_feed_outages,
)
from repro.node.calibration import build_node_model
from repro.scheduler.backfill import StaticEnvironment
from repro.scheduler.malleable import MalleableScheduler, comparison_trace
from repro.telemetry.series import TimeSeries
from repro.units import SECONDS_PER_DAY
from repro.workload.mix import archer2_mix


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


class SearchsortedIndex:
    """The array-search bodies ``ForecastIndex`` answered with before its
    queries moved to ``bisect`` over Python lists: the reference its answers
    must equal bit for bit."""

    def __init__(self, series: TimeSeries) -> None:
        self.series = series
        self._times = series.times_s
        self._values = series.values
        segment = self._values[:-1] * np.diff(self._times)
        self._prefix = np.concatenate(([0.0], np.cumsum(segment)))

    def ci_at(self, t_s: float) -> float:
        idx = int(np.searchsorted(self._times, t_s, side="right")) - 1
        idx = min(max(idx, 0), len(self._times) - 1)
        return float(self._values[idx])

    def _integral_to(self, t_s: float) -> float:
        t_first = float(self._times[0])
        if t_s <= t_first:
            return float(self._values[0]) * (t_s - t_first)
        t_last = float(self._times[-1])
        if t_s >= t_last:
            return float(self._prefix[-1]) + float(self._values[-1]) * (t_s - t_last)
        idx = int(np.searchsorted(self._times, t_s, side="right")) - 1
        return float(self._prefix[idx]) + float(self._values[idx]) * (
            t_s - float(self._times[idx])
        )

    def window_mean(self, t0_s: float, t1_s: float) -> float:
        if t1_s <= t0_s:
            raise AnalysisError("window end must exceed window start")
        return (self._integral_to(t1_s) - self._integral_to(t0_s)) / (t1_s - t0_s)

    def greenest_window(
        self, duration_s: float, t_earliest_s: float, t_latest_s: float
    ) -> ForecastWindow:
        candidates = {t_earliest_s, t_latest_s}
        lo = int(np.searchsorted(self._times, t_earliest_s, side="right"))
        hi = int(np.searchsorted(self._times, t_latest_s, side="left"))
        for t in self._times[lo:hi]:
            candidates.add(float(t))
        lo = int(np.searchsorted(self._times, t_earliest_s + duration_s, side="right"))
        hi = int(np.searchsorted(self._times, t_latest_s + duration_s, side="left"))
        for t in self._times[lo:hi]:
            candidates.add(float(t) - duration_s)
        best_start_s = t_earliest_s
        best_mean = float("inf")
        for start_s in sorted(candidates):
            mean = self.window_mean(start_s, start_s + duration_s)
            if mean < best_mean:
                best_mean = mean
                best_start_s = start_s
        return ForecastWindow(
            t_start_s=best_start_s,
            t_end_s=best_start_s + duration_s,
            mean_ci_g_per_kwh=best_mean,
        )


@st.composite
def step_forecasts(draw):
    """A random step series and query times: on breakpoints, between them,
    and before the first or past the last by up to twice the span."""
    gaps = draw(st.lists(st.floats(0.5, 10_000.0), min_size=0, max_size=30))
    t0 = draw(st.floats(-1e6, 1e6))
    times = np.concatenate(([t0], t0 + np.cumsum(gaps)))
    assume(np.all(np.diff(times) > 0))
    values = draw(
        st.lists(st.floats(0.0, 500.0), min_size=len(times), max_size=len(times))
    )
    series = TimeSeries(times, np.array(values), "ci")
    span = float(times[-1] - times[0]) + 1.0
    instant = st.one_of(
        st.sampled_from(times.tolist()),
        st.floats(float(times[0]) - 2 * span, float(times[-1]) + 2 * span),
    )
    return series, span, instant


class TestBisectMatchesSearchsorted:
    """``ForecastIndex`` answers are ``repr``-equal to the searchsorted bodies."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), forecast=step_forecasts())
    def test_ci_at(self, data, forecast):
        series, _, instant = forecast
        index, reference = ForecastIndex(series), SearchsortedIndex(series)
        for t in data.draw(st.lists(instant, min_size=1, max_size=20)):
            assert repr(index.ci_at(t)) == repr(reference.ci_at(t))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), forecast=step_forecasts())
    def test_window_mean(self, data, forecast):
        series, span, instant = forecast
        index, reference = ForecastIndex(series), SearchsortedIndex(series)
        for _ in range(10):
            t0 = data.draw(instant)
            # Windows from a millisecond to three times the series span.
            t1 = t0 + data.draw(st.floats(1e-3, 3 * span))
            assume(t1 > t0)
            assert repr(index.window_mean(t0, t1)) == repr(reference.window_mean(t0, t1))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), forecast=step_forecasts())
    def test_greenest_window(self, data, forecast):
        series, span, instant = forecast
        index, reference = ForecastIndex(series), SearchsortedIndex(series)
        for _ in range(10):
            duration = data.draw(st.floats(1.0, 3 * span))
            earliest = data.draw(
                st.one_of(
                    instant,
                    # A start whose window ends exactly on a breakpoint.
                    st.sampled_from(series.times_s.tolist()).map(lambda t: t - duration),
                )
            )
            # Zero-width slack, or slack reaching past the series end.
            latest = earliest + data.draw(st.one_of(st.just(0.0), st.floats(0.0, 2 * span)))
            assert repr(index.greenest_window(duration, earliest, latest)) == repr(
                reference.greenest_window(duration, earliest, latest)
            )


class TestNonFiniteBounds:
    @pytest.fixture
    def index(self):
        t = np.arange(0.0, 10 * 3600.0, 3600.0)
        return ForecastIndex(TimeSeries(t, 50.0 + 10.0 * np.arange(10.0), "ci"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_window_mean_refuses(self, index, bad):
        with pytest.raises(AnalysisError, match="finite"):
            index.window_mean(bad, 3600.0)
        with pytest.raises(AnalysisError, match="finite"):
            index.window_mean(0.0, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_greenest_window_refuses(self, index, bad):
        # A NaN latest start used to pass the order check and return a
        # window outside the slack range.
        with pytest.raises(AnalysisError, match="finite"):
            index.greenest_window(1800.0, 0.0, bad)
        with pytest.raises(AnalysisError, match="finite"):
            index.greenest_window(1800.0, bad, 3600.0)

    def test_duration_below_float_resolution_refused(self, index):
        with pytest.raises(AnalysisError, match="resolution"):
            index.greenest_window(1e-3, 1e16, 1e16)


class TestSchedulerParity:
    def test_faulted_malleable_trace_is_identical_through_the_reference(self):
        """One seeded malleable trace with node faults and feed outages gives
        the same records and trace bytes through either index."""
        days, nodes, seed = 7.0, 256, 42
        jobs, ci = comparison_trace(
            archer2_mix(),
            days=days,
            nodes=nodes,
            seed=seed,
            scenario="balanced",
            offered_load=0.95,
            malleable_fraction=0.5,
            slack_hours=2.0,
        )
        t_end_s = days * SECONDS_PER_DAY
        faults = FaultConfig(FailureModel(mtbf_hours=200.0, mttr_hours=6.0), seed=seed)
        outages = sample_feed_outages(
            t_end_s, np.random.default_rng(seed + 1), mtbf_hours=24.0
        )
        env = StaticEnvironment(node_model=build_node_model())

        def run(index_type):
            scheduler = MalleableScheduler(
                nodes,
                env,
                ci,
                seed=seed,
                fault_config=faults,
                feed=ForecastFeed(index_type(ci), outages=outages),
            )
            scheduler.forecast = index_type(ci)
            return scheduler.run(jobs, t_end_s)

        fast, reference = run(ForecastIndex), run(SearchsortedIndex)
        assert fast.n_shifted > 0 and fast.faults.n_degraded_ticks > 0
        assert fast.faults.n_job_kills > 0
        assert fast.records == reference.records
        assert fast.faults == reference.faults
        assert (fast.n_shifted, fast.n_shrinks, fast.n_grows) == (
            reference.n_shifted,
            reference.n_shrinks,
            reference.n_grows,
        )
        for name in ("times_s", "busy_power_w", "busy_nodes"):
            assert getattr(fast.trace, name).tobytes() == getattr(reference.trace, name).tobytes()
