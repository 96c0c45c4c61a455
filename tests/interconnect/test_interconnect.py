"""Switch power tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.interconnect.power import SwitchPowerModel


class TestSwitchPower:
    def test_idle_loaded_band_matches_paper(self):
        """§5: switches draw 200-250 W irrespective of load."""
        model = SwitchPowerModel()
        assert model.power_w(0.0) == 200.0
        assert model.power_w(1.0) == 250.0

    def test_load_invariance_high(self):
        assert SwitchPowerModel().load_invariance() == pytest.approx(0.8)

    def test_fabric_power_archer2_scale(self):
        """768 switches ≈ 200 kW loaded — the Table 2 row."""
        power_kw = SwitchPowerModel().fabric_power_w(768, 1.0) / 1e3
        assert power_kw == pytest.approx(200.0, rel=0.05)

    def test_vectorised_loads(self):
        out = SwitchPowerModel().power_w(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(out, [200.0, 225.0, 250.0])

    def test_bad_load_rejected(self):
        with pytest.raises(ConfigurationError):
            SwitchPowerModel().power_w(1.5)

    def test_loaded_below_idle_rejected(self):
        with pytest.raises(ConfigurationError):
            SwitchPowerModel(idle_w=300.0, loaded_w=250.0)

    def test_zero_switches_rejected(self):
        with pytest.raises(ConfigurationError):
            SwitchPowerModel().fabric_power_w(0)
