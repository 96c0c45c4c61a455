"""Facility power model tests."""

import pytest

from repro.errors import ConfigurationError
from repro.facility.archer2 import archer2_inventory
from repro.facility.inventory import FacilityInventory
from repro.facility.power import FacilityPowerModel


@pytest.fixture(scope="module")
def model():
    return FacilityPowerModel(archer2_inventory())


class TestBreakdown:
    def test_full_load_matches_inventory(self, model, inventory):
        bd = model.breakdown(1.0)
        assert bd.total_w == pytest.approx(inventory.loaded_power_w(), rel=1e-9)

    def test_zero_load_matches_idle_nodes(self, model, inventory):
        bd = model.breakdown(0.0)
        assert bd.compute_nodes_w == pytest.approx(
            sum(e.idle_power_w for e in inventory.node_entries)
        )

    def test_power_monotone_in_utilisation(self, model):
        powers = [model.total_power_w(u) for u in (0.0, 0.3, 0.6, 0.9, 1.0)]
        assert powers == sorted(powers)

    def test_custom_busy_power_used(self, model):
        low = model.compute_cabinet_power_w(1.0, busy_node_power_w=400.0)
        high = model.compute_cabinet_power_w(1.0, busy_node_power_w=510.0)
        assert high - low == pytest.approx(5860 * 110.0)

    def test_negative_busy_power_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.breakdown(0.5, busy_node_power_w=-1.0)

    def test_bad_utilisation_rejected(self, model):
        with pytest.raises(Exception):
            model.breakdown(1.5)

    def test_compute_cabinets_exclude_cooling_storage(self, model):
        bd = model.breakdown(1.0)
        assert bd.compute_cabinets_w == pytest.approx(
            bd.total_w - bd.cooling_w - bd.storage_w
        )

    def test_baseline_operating_point_near_paper(self, model):
        """At ~95 % utilisation with mix-average busy nodes (~490 W), the
        cabinet power should be near the paper's 3,220 kW baseline."""
        kw = model.compute_cabinet_power_w(0.95, busy_node_power_w=490.0) / 1e3
        assert kw == pytest.approx(3220.0, rel=0.05)


class TestEnergyPerNodeHour:
    def test_decreases_with_utilisation(self, model):
        """§5: higher utilisation → less energy per delivered node-hour."""
        values = [model.energy_per_nodeh_at(u) for u in (0.5, 0.7, 0.9, 1.0)]
        assert values == sorted(values, reverse=True)

    def test_zero_utilisation_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.energy_per_nodeh_at(0.0)

    def test_50pct_overhead_substantial(self, model):
        """Running half-empty costs ~50 % more energy per node-hour."""
        ratio = model.energy_per_nodeh_at(0.5) / model.energy_per_nodeh_at(1.0)
        assert ratio > 1.4


class TestConstruction:
    def test_inventory_without_nodes_rejected(self):
        empty = FacilityInventory("empty")
        from repro.facility.hardware import SwitchSpec

        empty.add(SwitchSpec(name="s", idle_power_w=200, loaded_power_w=250), 4)
        with pytest.raises(ConfigurationError, match="no compute nodes"):
            FacilityPowerModel(empty)
