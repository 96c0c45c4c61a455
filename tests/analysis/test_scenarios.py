"""Emissions scenario sweep tests."""

import numpy as np
import pytest

from repro.engine.scenarios import (
    ci_sweep,
    lifetime_sensitivity,
    regime_boundaries_map,
)
from repro.core.emissions import EmbodiedProfile, EmissionsModel
from repro.core.regimes import OptimisationTarget, Regime
from repro.errors import AnalysisError


@pytest.fixture(scope="module")
def model():
    return EmissionsModel(embodied=EmbodiedProfile(), mean_power_kw=3500.0)


class TestCiSweep:
    def test_regimes_progress_with_ci(self, model):
        points = ci_sweep(model, np.array([10.0, 60.0, 200.0]))
        assert points[0].regime is Regime.SCOPE3_DOMINATED
        assert points[1].regime is Regime.BALANCED
        assert points[2].regime is Regime.SCOPE2_DOMINATED

    def test_advice_attached(self, model):
        points = ci_sweep(model, np.array([200.0]))
        assert points[0].target is OptimisationTarget.MAXIMISE_ENERGY_EFFICIENCY

    def test_scope2_share_monotone(self, model):
        points = ci_sweep(model, np.linspace(1.0, 400.0, 20))
        shares = [p.scope2_share for p in points]
        assert shares == sorted(shares)

    def test_scope3_constant_across_sweep(self, model):
        points = ci_sweep(model, np.array([10.0, 100.0]))
        assert points[0].scope3_tco2e_per_year == points[1].scope3_tco2e_per_year

    def test_empty_sweep_rejected(self, model):
        with pytest.raises(AnalysisError):
            ci_sweep(model, np.array([]))


class TestLifetimeSensitivity:
    def test_longer_life_lower_crossover(self):
        result = lifetime_sensitivity(3500.0, 10_000.0, np.array([4.0, 6.0, 8.0]))
        crossovers = [result[4.0], result[6.0], result[8.0]]
        assert crossovers == sorted(crossovers, reverse=True)

    def test_six_year_crossover_in_balanced_band(self):
        result = lifetime_sensitivity(3500.0, 10_000.0, np.array([6.0]))
        assert 30.0 < result[6.0] < 100.0


class TestRegimeBoundariesMap:
    def test_larger_embodied_raises_boundaries(self):
        rows = regime_boundaries_map(3500.0, np.array([5_000.0, 10_000.0, 20_000.0]))
        crossovers = [r["crossover_ci"] for r in rows]
        assert crossovers == sorted(crossovers)

    def test_row_structure(self):
        rows = regime_boundaries_map(3500.0, np.array([10_000.0]))
        row = rows[0]
        assert row["low_ci"] < row["crossover_ci"] < row["high_ci"]
        assert row["low_ci"] == pytest.approx(row["crossover_ci"] / 2)

    def test_paper_band_robust_across_embodied_uncertainty(self):
        """Even a 2x embodied-audit error keeps the band overlapping the
        paper's [30, 100] — the reason round thresholds are usable."""
        rows = regime_boundaries_map(3500.0, np.array([5_000.0, 20_000.0]))
        for row in rows:
            assert row["low_ci"] < 100.0
            assert row["high_ci"] > 30.0
