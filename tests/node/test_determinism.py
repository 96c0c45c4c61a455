"""BIOS determinism model tests."""

import pytest

from repro.errors import ConfigurationError, UnitError
from repro.node.determinism import DeterminismMode, DeterminismModel


@pytest.fixture
def model():
    return DeterminismModel()


class TestPowerFactor:
    def test_power_mode_draws_full_envelope(self, model):
        assert model.dynamic_power_factor(DeterminismMode.POWER) == 1.0

    def test_performance_mode_derates(self, model):
        factor = model.dynamic_power_factor(DeterminismMode.PERFORMANCE)
        assert 0.8 < factor < 0.95

    def test_boost_factor_power_mode(self, model):
        assert model.boost_factor(DeterminismMode.POWER) == 1.0

    def test_boost_factor_performance_mode_small_cost(self, model):
        """§4.1: the performance cost of Performance Determinism is ~1 %."""
        factor = model.boost_factor(DeterminismMode.PERFORMANCE)
        assert 0.98 <= factor < 1.0


class TestValidation:
    def test_boost_derate_above_one_rejected(self):
        with pytest.raises(ConfigurationError):
            DeterminismModel(performance_boost_derate=1.01)

    def test_power_derate_above_one_rejected(self):
        with pytest.raises(UnitError):
            DeterminismModel(performance_power_derate=1.2)
