"""Facility inventory tests."""

import pytest

from repro.errors import ConfigurationError
from repro.facility.hardware import ComponentKind, NodeSpec, SwitchSpec
from repro.facility.inventory import FacilityInventory, InventoryEntry


def node_spec(name="node", idle=230.0, loaded=510.0):
    return NodeSpec(name=name, idle_power_w=idle, loaded_power_w=loaded)


def switch_spec(name="switch"):
    return SwitchSpec(name=name, idle_power_w=200.0, loaded_power_w=250.0)


@pytest.fixture
def small():
    inv = FacilityInventory("test")
    inv.add(node_spec(), 10)
    inv.add(switch_spec(), 4)
    return inv


class TestInventoryEntry:
    def test_total_powers(self):
        entry = InventoryEntry(spec=node_spec(), count=10)
        assert entry.idle_power_w == 2300.0
        assert entry.loaded_power_w == 5100.0

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigurationError):
            InventoryEntry(spec=node_spec(), count=0)

    def test_power_at_load(self):
        entry = InventoryEntry(spec=node_spec(), count=2)
        assert entry.power_at_load_w(0.5) == pytest.approx(740.0)


class TestFacilityInventory:
    def test_duplicate_name_rejected(self, small):
        with pytest.raises(ConfigurationError, match="duplicate"):
            small.add(node_spec(), 5)

    def test_len_and_iter_order(self, small):
        names = [e.spec.name for e in small]
        assert names == ["node", "switch"]

    def test_counts(self, small):
        assert small.n_nodes == 10
        assert small.n_switches == 4
        assert small.n_cabinets == 0

    def test_core_count(self, small):
        assert small.n_cores == 10 * 128

    def test_multiple_node_types(self):
        inv = FacilityInventory("mixed")
        inv.add(node_spec("std", 230, 510), 8)
        inv.add(node_spec("himem", 260, 540), 2)
        assert inv.n_nodes == 10
        # Count-weighted totals.
        assert inv.idle_power_w() == pytest.approx(8 * 230 + 2 * 260)

    def test_facility_power_totals(self, small):
        assert small.idle_power_w() == pytest.approx(10 * 230 + 4 * 200)
        assert small.loaded_power_w() == pytest.approx(10 * 510 + 4 * 250)

    def test_power_at_load_between_extremes(self, small):
        mid = small.compute_cabinet_power_w(0.5)
        assert small.idle_power_w() < mid < small.loaded_power_w()


class TestAggregates:
    def test_shares_sum_to_one(self, small):
        total = sum(a.loaded_share for a in small.aggregates())
        assert total == pytest.approx(1.0)

    def test_rows_ordered_nodes_first(self, small):
        kinds = [a.kind for a in small.aggregates()]
        assert kinds[0] is ComponentKind.COMPUTE_NODE

    def test_loaded_share_lookup(self, small):
        share = small.loaded_share(ComponentKind.COMPUTE_NODE)
        assert share == pytest.approx(5100.0 / (5100.0 + 1000.0))

    def test_missing_kind_share_zero(self, small):
        assert small.loaded_share(ComponentKind.CDU) == 0.0

    def test_compute_cabinet_excludes_storage(self):
        from repro.facility.hardware import FilesystemSpec

        inv = FacilityInventory("with-fs")
        inv.add(node_spec(), 10)
        inv.add(
            FilesystemSpec(name="fs", idle_power_w=8000, loaded_power_w=8000), 1
        )
        assert inv.compute_cabinet_power_w(1.0) == pytest.approx(5100.0)

    def test_summary_keys(self, small):
        summary = small.summary()
        assert summary["nodes"] == 10
        assert summary["loaded_power_kw"] == pytest.approx(6.1)
