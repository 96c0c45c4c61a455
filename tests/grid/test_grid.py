"""Grid substrate tests: carbon intensity, pricing, stress events."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.grid.carbon_intensity import (
    SCENARIOS,
    CarbonIntensityModel,
    scenario,
)
from repro.grid.events import (
    GridStressEvent,
    GridStressGenerator,
    demand_response_summary,
)
from repro.grid.pricing import PricingModel, energy_cost_gbp
from repro.telemetry.series import TimeSeries
from repro.units import SECONDS_PER_DAY, SECONDS_PER_YEAR


class TestScenarios:
    def test_presets_span_all_regimes(self):
        means = [s.mean_ci_g_per_kwh for s in SCENARIOS.values()]
        assert min(means) < 30.0
        assert any(30.0 <= m <= 100.0 for m in means)
        assert max(means) > 100.0

    def test_lookup(self):
        assert scenario("uk_2022").mean_ci_g_per_kwh == pytest.approx(190.0)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario("mars_colony")


class TestCarbonIntensityModel:
    def test_series_positive_and_bounded(self, rng):
        model = CarbonIntensityModel()
        series = model.series(0.0, 30 * SECONDS_PER_DAY, 1800.0, rng)
        assert series.min() >= model.floor_g_per_kwh
        assert series.max() < model.mean_ci_g_per_kwh * 3

    def test_mean_near_configured(self, rng):
        model = CarbonIntensityModel(mean_ci_g_per_kwh=200.0)
        series = model.series(0.0, SECONDS_PER_YEAR, 6 * 3600.0, rng)
        assert series.mean() == pytest.approx(200.0, rel=0.1)

    def test_seasonal_winter_higher_than_summer(self):
        model = CarbonIntensityModel(diurnal_amplitude=0.0)
        winter = model.deterministic_g_per_kwh(np.array([15 * SECONDS_PER_DAY]))
        summer = model.deterministic_g_per_kwh(
            np.array([(15 + 182) * SECONDS_PER_DAY])
        )
        assert winter[0] > summer[0]

    def test_diurnal_evening_peak(self):
        model = CarbonIntensityModel(seasonal_amplitude=0.0)
        evening = model.deterministic_g_per_kwh(np.array([19 * 3600.0]))
        early = model.deterministic_g_per_kwh(np.array([7 * 3600.0]))
        assert evening[0] > early[0]

    def test_from_scenario(self):
        model = CarbonIntensityModel.from_scenario("low_carbon")
        assert model.mean_ci_g_per_kwh == pytest.approx(25.0)

    def test_noise_correlated(self, rng):
        """AR(1) noise: lag-1 autocorrelation must be strong at sub-day lags."""
        model = CarbonIntensityModel(seasonal_amplitude=0.0, diurnal_amplitude=0.0)
        series = model.series(0.0, 60 * SECONDS_PER_DAY, 3600.0, rng)
        x = series.values - series.values.mean()
        autocorr = np.dot(x[:-1], x[1:]) / np.dot(x, x)
        assert autocorr > 0.8

    def test_bad_window_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            CarbonIntensityModel().series(10.0, 10.0, 60.0, rng)


class TestPricing:
    def test_price_increases_with_ci(self):
        times = np.arange(2.0) * 3600.0
        low, high = (
            PricingModel(volatility=0.0).price_from_ci(TimeSeries(times, np.full(2, ci)))
            for ci in (50.0, 300.0)
        )
        assert high.mean() > low.mean()

    def test_price_series_aligned(self, rng):
        ci = TimeSeries(np.arange(10.0) * 3600.0, np.full(10, 200.0))
        prices = PricingModel(volatility=0.0).price_from_ci(ci)
        np.testing.assert_allclose(prices.times_s, ci.times_s)
        np.testing.assert_allclose(
            prices.values, 0.08 + 0.0011 * 200.0
        )

    def test_volatility_preserves_mean(self, rng):
        ci = TimeSeries(np.arange(5000.0) * 3600.0, np.full(5000, 200.0))
        noisy = PricingModel(volatility=0.2).price_from_ci(ci, rng)
        flat = PricingModel(volatility=0.0).price_from_ci(ci)
        assert noisy.mean() == pytest.approx(flat.mean(), rel=0.02)

    def test_energy_cost_integration(self):
        times = np.arange(0.0, 7200.0, 3600.0)  # two hourly samples
        power = TimeSeries(times, np.full(2, 1000.0))  # 1 kW
        price = TimeSeries(times, np.full(2, 0.5))  # £0.50/kWh
        assert energy_cost_gbp(power, price) == pytest.approx(1.0)

    def test_energy_cost_misaligned_rejected(self):
        a = TimeSeries(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        b = TimeSeries(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(ConfigurationError):
            energy_cost_gbp(a, b)


class TestStressEvents:
    def test_event_window(self):
        event = GridStressEvent(
            start_s=100.0, duration_s=50.0, severity=0.8, requested_reduction_kw=500.0
        )
        assert event.end_s == 150.0

    def test_bad_severity_rejected(self):
        with pytest.raises(ConfigurationError):
            GridStressEvent(
                start_s=0.0, duration_s=10.0, severity=0.0, requested_reduction_kw=1.0
            )

    def test_generator_produces_winter_evening_events(self, rng):
        gen = GridStressGenerator(events_per_winter_month=5.0)
        events = gen.generate(0.0, 60 * SECONDS_PER_DAY, rng)
        assert events
        for event in events:
            hour = (event.start_s % SECONDS_PER_DAY) / 3600.0
            assert hour == pytest.approx(17.0)
            assert event.duration_s >= 1800.0

    def test_generator_ordered(self, rng):
        events = GridStressGenerator().generate(0.0, 90 * SECONDS_PER_DAY, rng)
        starts = [e.start_s for e in events]
        assert starts == sorted(starts)

    def test_demand_response_summary(self):
        times = np.arange(0.0, 10 * 3600.0, 900.0)
        baseline = TimeSeries(times, np.full(len(times), 3200.0))
        reduced = TimeSeries(times, np.full(len(times), 2500.0))
        events = [
            GridStressEvent(
                start_s=3600.0,
                duration_s=7200.0,
                severity=1.0,
                requested_reduction_kw=500.0,
            )
        ]
        summary = demand_response_summary(baseline, reduced, events)
        assert summary["mean_freed_kw"] == pytest.approx(700.0)
        assert summary["fulfilment"] == 1.0
        assert summary["event_hours"] == pytest.approx(2.0)

    def test_demand_response_no_events(self):
        times = np.arange(0.0, 3600.0, 900.0)
        series = TimeSeries(times, np.full(len(times), 3200.0))
        summary = demand_response_summary(series, series, [])
        assert summary["mean_freed_kw"] == 0.0
