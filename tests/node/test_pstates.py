"""P-state and voltage/frequency curve tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.node.pstates import (
    ARCHER2_TURBO_GHZ,
    FrequencySetting,
    PState,
    PStateTable,
    VoltageFrequencyCurve,
    archer2_pstates,
)


class TestVoltageFrequencyCurve:
    def test_voltage_increases_with_frequency(self):
        curve = VoltageFrequencyCurve()
        assert curve.voltage_v(2.8) > curve.voltage_v(2.0) > curve.voltage_v(1.5)

    def test_default_voltages_plausible(self):
        curve = VoltageFrequencyCurve()
        assert 0.9 < curve.voltage_v(2.0) < 1.05
        assert 1.1 < curve.voltage_v(2.8) < 1.25

    def test_dynamic_scale_is_one_at_reference(self):
        curve = VoltageFrequencyCurve()
        assert curve.dynamic_scale(2.8, 2.8) == pytest.approx(1.0)

    def test_dynamic_scale_at_2ghz_near_half(self):
        """The core DVFS mechanism: ~2x dynamic-power saving at 2.0 GHz."""
        curve = VoltageFrequencyCurve()
        scale = curve.dynamic_scale(2.0, 2.8)
        assert 0.4 < scale < 0.6

    def test_dynamic_scale_monotone(self):
        curve = VoltageFrequencyCurve()
        freqs = np.array([1.5, 2.0, 2.25, 2.8])
        scales = curve.dynamic_scale(freqs, 2.8)
        assert np.all(np.diff(scales) > 0)

    def test_array_input_returns_array(self):
        curve = VoltageFrequencyCurve()
        out = curve.voltage_v(np.array([1.5, 2.0]))
        assert isinstance(out, np.ndarray)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            VoltageFrequencyCurve().voltage_v(0.0)


class TestPState:
    def test_turbo_needs_boost_target(self):
        with pytest.raises(ConfigurationError):
            PState(FrequencySetting.GHZ_2_25_TURBO, 2.25, turbo=True)

    def test_boost_below_base_rejected(self):
        with pytest.raises(ConfigurationError):
            PState(
                FrequencySetting.GHZ_2_25_TURBO, 2.25, turbo=True, max_boost_ghz=2.0
            )

    def test_non_turbo_cannot_boost(self):
        with pytest.raises(ConfigurationError):
            PState(FrequencySetting.GHZ_2_0, 2.0, max_boost_ghz=2.4)

    def test_effective_frequency(self):
        turbo = PState(
            FrequencySetting.GHZ_2_25_TURBO, 2.25, turbo=True, max_boost_ghz=2.8
        )
        fixed = PState(FrequencySetting.GHZ_2_0, 2.0)
        assert turbo.effective_ghz == 2.8
        assert fixed.effective_ghz == 2.0


class TestPStateTable:
    def test_archer2_has_three_settings(self):
        table = archer2_pstates()
        assert len(table.settings) == 3
        assert set(table.settings) == set(FrequencySetting)

    def test_max_effective_is_turbo(self):
        assert archer2_pstates().max_effective_ghz == ARCHER2_TURBO_GHZ

    def test_lookup(self):
        table = archer2_pstates()
        assert table.get(FrequencySetting.GHZ_2_0).frequency_ghz == 2.0

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigurationError):
            PStateTable([])

    def test_duplicate_setting_rejected(self):
        with pytest.raises(ConfigurationError):
            PStateTable(
                [
                    PState(FrequencySetting.GHZ_2_0, 2.0),
                    PState(FrequencySetting.GHZ_2_0, 2.0),
                ]
            )

    def test_missing_setting_raises(self):
        table = PStateTable([PState(FrequencySetting.GHZ_2_0, 2.0)])
        with pytest.raises(ConfigurationError):
            table.get(FrequencySetting.GHZ_1_5)

    def test_custom_turbo_target(self):
        table = archer2_pstates(turbo_ghz=3.0)
        assert table.max_effective_ghz == 3.0

    def test_tables_compare_and_hash_by_value(self):
        # A node model built twice is then one calibration, which is what
        # lets a sweep cache accept point tables of the default model.
        assert archer2_pstates() == archer2_pstates()
        assert hash(archer2_pstates()) == hash(archer2_pstates())
        assert archer2_pstates() != archer2_pstates(turbo_ghz=3.0)
        fixed = [PState(FrequencySetting.GHZ_1_5, 1.5), PState(FrequencySetting.GHZ_2_0, 2.0)]
        assert PStateTable(fixed) != PStateTable(fixed[::-1])  # registration order counts
        assert archer2_pstates() != list(archer2_pstates())
