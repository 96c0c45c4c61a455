"""Scope-2/scope-3 emissions accounting tests."""

import numpy as np
import pytest

from repro.core.emissions import EmbodiedProfile, EmissionsModel
from repro.errors import ConfigurationError
from repro.telemetry.series import TimeSeries


@pytest.fixture(scope="module")
def model():
    """ARCHER2-scale: 10 ktCO₂e embodied over 6 years, 3.5 MW facility."""
    return EmissionsModel(embodied=EmbodiedProfile(), mean_power_kw=3500.0)


class TestEmbodiedProfile:
    def test_annual_rate(self):
        profile = EmbodiedProfile(total_tco2e=12_000.0, lifetime_years=6.0)
        assert profile.annual_rate_tco2e == pytest.approx(2000.0)

    def test_bad_lifetime_rejected(self):
        with pytest.raises(Exception):
            EmbodiedProfile(lifetime_years=0.0)


class TestScope2:
    def test_annual_energy(self, model):
        # 3.5 MW × 8766 h ≈ 30.7 GWh.
        assert model.annual_energy_kwh() == pytest.approx(30.68e6, rel=0.01)

    def test_scope2_linear_in_ci(self, model):
        assert model.scope2_tco2e_per_year(200.0) == pytest.approx(
            2 * model.scope2_tco2e_per_year(100.0)
        )

    def test_scope2_zero_at_zero_ci(self, model):
        assert model.scope2_tco2e_per_year(0.0) == 0.0

    def test_scope2_from_series_matches_flat(self, model):
        times = np.arange(0.0, 48 * 3600.0, 3600.0)
        power = TimeSeries(times, np.full(len(times), 3500.0))
        ci = TimeSeries(times, np.full(len(times), 100.0))
        tco2 = EmissionsModel.scope2_from_series(power, ci)
        # 3.5 MW × 48 h × 100 g/kWh = 16.8 t
        assert tco2 == pytest.approx(16.8, rel=1e-6)

    def test_scope2_series_misaligned_rejected(self, model):
        a = TimeSeries(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        b = TimeSeries(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(ConfigurationError):
            EmissionsModel.scope2_from_series(a, b)


class TestBreakdowns:
    def test_lifetime_scope3_is_total(self, model):
        breakdown = model.lifetime_breakdown(100.0)
        assert breakdown.scope3_tco2e == pytest.approx(10_000.0)

    def test_shares_sum_to_one(self, model):
        breakdown = model.annual_breakdown(65.0)
        assert breakdown.scope2_share + (1 - breakdown.scope2_share) == 1.0
        assert breakdown.total_tco2e == pytest.approx(
            breakdown.scope2_tco2e + breakdown.scope3_tco2e
        )


class TestCrossover:
    def test_crossover_in_paper_balanced_band(self, model):
        """The ARCHER2-scale crossover must land inside [30, 100] g/kWh —
        the consistency check behind the paper's regime boundaries."""
        crossover = model.crossover_ci_g_per_kwh()
        assert 30.0 < crossover < 100.0

    def test_crossover_balances_scopes(self, model):
        crossover = model.crossover_ci_g_per_kwh()
        breakdown = model.annual_breakdown(crossover)
        assert breakdown.scope2_share == pytest.approx(0.5, abs=1e-9)

    def test_longer_lifetime_lowers_crossover(self):
        short = EmissionsModel(
            embodied=EmbodiedProfile(lifetime_years=4.0), mean_power_kw=3500.0
        )
        long = EmissionsModel(
            embodied=EmbodiedProfile(lifetime_years=8.0), mean_power_kw=3500.0
        )
        assert long.crossover_ci_g_per_kwh() < short.crossover_ci_g_per_kwh()

    def test_share_curve_monotone(self, model):
        ci = np.linspace(0.0, 500.0, 50)
        shares = np.array([model.annual_breakdown(c).scope2_share for c in ci])
        assert np.all(np.diff(shares) > 0)
        assert shares[0] == 0.0
        assert shares[-1] < 1.0

    def test_share_curve_negative_ci_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.annual_breakdown(-1.0)
