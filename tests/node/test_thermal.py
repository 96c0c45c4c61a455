"""Thermal/leakage model tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.node.thermal import ThermalModel, sweep_coolant_setpoint


@pytest.fixture(scope="module")
def thermal():
    return ThermalModel()


class TestJunctionTemperature:
    def test_rises_with_coolant(self, thermal):
        assert thermal.junction_temperature_c(40.0, 500.0) > thermal.junction_temperature_c(
            20.0, 500.0
        )

    def test_rises_with_power(self, thermal):
        assert thermal.junction_temperature_c(30.0, 600.0) > thermal.junction_temperature_c(
            30.0, 300.0
        )

    def test_formula(self, thermal):
        assert thermal.junction_temperature_c(25.0, 500.0) == pytest.approx(
            25.0 + 0.06 * 500.0
        )

    def test_vectorised(self, thermal):
        out = thermal.junction_temperature_c(np.array([20.0, 40.0]), 500.0)
        assert isinstance(out, np.ndarray)
        assert out[1] > out[0]


class TestLeakage:
    def test_reference_point(self, thermal):
        assert thermal.leakage_w(60.0) == pytest.approx(35.0)

    def test_exponential_growth(self, thermal):
        """+25 °C (one t_slope) multiplies leakage by e."""
        assert thermal.leakage_w(85.0) / thermal.leakage_w(60.0) == pytest.approx(
            np.e, rel=1e-9
        )

    def test_monotone(self, thermal):
        temps = np.array([40.0, 60.0, 80.0, 95.0])
        leaks = thermal.leakage_w(temps)
        assert np.all(np.diff(leaks) > 0)


class TestFixedPoint:
    def test_total_exceeds_dynamic(self, thermal):
        total = thermal.solve_node_power_w(30.0, 450.0)
        assert total > 450.0 + 30.0  # dynamic + meaningful leakage

    def test_self_consistency(self, thermal):
        total = thermal.solve_node_power_w(30.0, 450.0)
        t_j = thermal.junction_temperature_c(30.0, total)
        assert total == pytest.approx(450.0 + thermal.leakage_w(t_j), abs=0.1)

    def test_warmer_coolant_more_total_power(self, thermal):
        cold = thermal.solve_node_power_w(20.0, 450.0)
        warm = thermal.solve_node_power_w(45.0, 450.0)
        assert warm > cold

    def test_zero_dynamic_gives_idle_leakage(self, thermal):
        total = thermal.solve_node_power_w(30.0, 0.0)
        assert 0 < total < 100.0

    def test_negative_dynamic_rejected(self, thermal):
        with pytest.raises(ConfigurationError):
            thermal.solve_node_power_w(30.0, -1.0)

    def test_limits_check(self, thermal):
        assert thermal.junction_temperature_c(30.0, 500.0) <= thermal.t_j_max_c
        assert thermal.junction_temperature_c(80.0, 500.0) > thermal.t_j_max_c


class TestCoolantSweep:
    def test_free_cooling_flag(self, thermal):
        sweep = sweep_coolant_setpoint(
            thermal, 450.0, np.array([15.0, 27.0, 40.0]), free_cooling_threshold_c=27.0
        )
        assert not sweep[0].free_cooling
        assert sweep[1].free_cooling
        assert sweep[2].free_cooling

    def test_chiller_overhead_dominates_cold(self, thermal):
        sweep = sweep_coolant_setpoint(thermal, 450.0, np.array([15.0, 30.0]))
        assert (
            sweep[0].cooling_overhead_w_per_node
            > sweep[1].cooling_overhead_w_per_node
        )

    def test_optimum_at_or_above_threshold(self, thermal):
        """The warm-water design point: total power is minimised at the
        free-cooling edge, not at the coldest (chillers) nor the hottest
        (leakage) set-point."""
        temps = np.arange(10.0, 50.0, 1.0)
        sweep = sweep_coolant_setpoint(thermal, 450.0, temps)
        totals = [s.total_w_per_node for s in sweep]
        best = sweep[int(np.argmin(totals))]
        assert 26.0 <= best.coolant_c <= 32.0
        assert best.free_cooling

    def test_leakage_grows_across_sweep(self, thermal):
        sweep = sweep_coolant_setpoint(thermal, 450.0, np.array([20.0, 30.0, 40.0]))
        leaks = [s.leakage_w for s in sweep]
        assert leaks == sorted(leaks)

    def test_validation(self, thermal):
        with pytest.raises(Exception):
            sweep_coolant_setpoint(thermal, 450.0, np.array([20.0]), chiller_cop=0.0)
        with pytest.raises(ConfigurationError):
            sweep_coolant_setpoint(thermal, 450.0, np.array([20.0]), pump_fraction=1.0)
