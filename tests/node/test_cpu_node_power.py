"""CPU operating-point and node power model tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.node.cpu import CpuModel
from repro.node.determinism import DeterminismMode
from repro.node.node_power import NodePowerConstants, NodePowerModel
from repro.node.pstates import FrequencySetting


def busy_power_at(model, setting, mode, compute_activity, memory_activity):
    """Busy-node power at a frequency setting and BIOS mode."""
    point = model.cpu.operating_point(setting, mode)
    return model.busy_power_w(point, compute_activity, memory_activity)


@pytest.fixture(scope="module")
def cpu():
    return CpuModel()


@pytest.fixture(scope="module")
def power_model():
    return NodePowerModel()


class TestOperatingPoints:
    def test_turbo_power_determinism_hits_2_8(self, cpu):
        """§4.2: applications 'typically boost ... closer to 2.8 GHz'."""
        point = cpu.operating_point(
            FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.POWER
        )
        assert point.effective_ghz == pytest.approx(2.8)
        assert point.turbo_active

    def test_turbo_performance_determinism_slightly_lower(self, cpu):
        power = cpu.operating_point(
            FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.POWER
        )
        perf = cpu.operating_point(
            FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.PERFORMANCE
        )
        assert perf.effective_ghz < power.effective_ghz
        assert perf.effective_ghz / power.effective_ghz == pytest.approx(0.99)

    def test_fixed_frequencies_mode_independent(self, cpu):
        for setting in (FrequencySetting.GHZ_2_0, FrequencySetting.GHZ_1_5):
            a = cpu.operating_point(setting, DeterminismMode.POWER)
            b = cpu.operating_point(setting, DeterminismMode.PERFORMANCE)
            assert a.effective_ghz == b.effective_ghz
            assert not a.turbo_active

    def test_reference_is_max_boost(self, cpu):
        assert cpu.reference_ghz == pytest.approx(2.8)

    def test_dynamic_scale_below_one_at_2ghz(self, cpu):
        point = cpu.operating_point(FrequencySetting.GHZ_2_0, DeterminismMode.POWER)
        assert cpu.dynamic_scale(point) < 0.6


class TestNodePowerModel:
    def test_idle_power_matches_table2(self, power_model):
        assert power_model.idle_power_w == pytest.approx(230.0)

    def test_typical_loaded_near_table2(self, power_model):
        """A 30/70 compute/memory mix at the reference point lands near the
        Table 2 loaded figure of 510 W."""
        point = power_model.cpu.operating_point(
            FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.POWER
        )
        power = power_model.busy_power_w(point, 0.3, 0.7)
        assert power == pytest.approx(510.0, rel=0.03)

    def test_idle_fraction_near_half(self, power_model):
        """§5: idle nodes draw ~50 % of a loaded node."""
        assert power_model.idle_fraction() == pytest.approx(0.5, abs=0.1)

    def test_compute_bound_draws_more_than_memory_bound(self, power_model):
        point = power_model.cpu.operating_point(
            FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.POWER
        )
        compute = power_model.busy_power_w(point, 1.0, 0.0)
        memory = power_model.busy_power_w(point, 0.0, 1.0)
        assert compute > memory > power_model.idle_power_w

    def test_lower_frequency_lower_power(self, power_model):
        high = busy_power_at(
            power_model, FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.POWER, 0.5, 0.5
        )
        low = busy_power_at(
            power_model, FrequencySetting.GHZ_2_0, DeterminismMode.POWER, 0.5, 0.5
        )
        lowest = busy_power_at(
            power_model, FrequencySetting.GHZ_1_5, DeterminismMode.POWER, 0.5, 0.5
        )
        assert high > low > lowest > power_model.idle_power_w

    def test_performance_determinism_cuts_power(self, power_model):
        power = busy_power_at(
            power_model, FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.POWER, 0.3, 0.7
        )
        perf = busy_power_at(
            power_model,
            FrequencySetting.GHZ_2_25_TURBO,
            DeterminismMode.PERFORMANCE,
            0.3,
            0.7,
        )
        assert 0.90 < perf / power < 0.97

    def test_vectorised_activities(self, power_model):
        point = power_model.cpu.operating_point(
            FrequencySetting.GHZ_2_0, DeterminismMode.POWER
        )
        a_c = np.array([0.1, 0.5, 0.9])
        a_m = np.array([0.9, 0.5, 0.1])
        out = power_model.busy_power_w(point, a_c, a_m)
        assert isinstance(out, np.ndarray)
        assert np.all(np.diff(out) > 0)  # more compute activity, more power

    def test_activities_exceeding_one_rejected(self, power_model):
        point = power_model.cpu.operating_point(
            FrequencySetting.GHZ_2_0, DeterminismMode.POWER
        )
        with pytest.raises(ConfigurationError):
            power_model.busy_power_w(point, 0.7, 0.5)

    def test_negative_activity_rejected(self, power_model):
        point = power_model.cpu.operating_point(
            FrequencySetting.GHZ_2_0, DeterminismMode.POWER
        )
        with pytest.raises(ConfigurationError):
            power_model.busy_power_w(point, -0.1, 0.5)

    def test_max_power_above_loaded_anchor(self, power_model):
        """Fully compute-active exceeds the mix-typical 510 W figure."""
        point = power_model.cpu.operating_point(
            FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.POWER
        )
        assert power_model.busy_power_w(point, 1.0, 0.0) > 510.0

    def test_constants_validation(self):
        with pytest.raises(Exception):
            NodePowerConstants(idle_w=-1.0)
        with pytest.raises(Exception):
            NodePowerConstants(stall_activity=1.5)
