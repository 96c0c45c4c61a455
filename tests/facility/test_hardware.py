"""Component spec tests."""

import pytest

from repro.errors import ConfigurationError, UnitError
from repro.facility.hardware import (
    CabinetSpec,
    ComponentKind,
    ComponentSpec,
    FilesystemSpec,
    NodeSpec,
    SwitchSpec,
)


def make_spec(idle=100.0, loaded=200.0):
    return ComponentSpec(
        name="widget", kind=ComponentKind.FILESYSTEM, idle_power_w=idle, loaded_power_w=loaded
    )


class TestComponentSpec:
    def test_power_at_zero_load_is_idle(self):
        assert make_spec().power_at_load_w(0.0) == 100.0

    def test_power_at_full_load_is_loaded(self):
        assert make_spec().power_at_load_w(1.0) == 200.0

    def test_power_interpolates_linearly(self):
        assert make_spec().power_at_load_w(0.5) == 150.0

    def test_load_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            make_spec().power_at_load_w(1.2)
        with pytest.raises(ConfigurationError):
            make_spec().power_at_load_w(-0.1)

    def test_loaded_below_idle_rejected(self):
        with pytest.raises(ConfigurationError, match="below idle"):
            make_spec(idle=300.0, loaded=200.0)

    def test_negative_power_rejected(self):
        with pytest.raises(UnitError):
            make_spec(idle=-5.0)

    def test_idle_fraction(self):
        assert make_spec().idle_fraction == pytest.approx(0.5)

    def test_idle_fraction_zero_loaded(self):
        spec = make_spec(idle=0.0, loaded=0.0)
        assert spec.idle_fraction == 0.0


class TestNodeSpec:
    def test_archer2_node_core_count(self):
        node = NodeSpec(name="n", idle_power_w=230, loaded_power_w=510)
        assert node.cores == 128

    def test_kind_is_fixed(self):
        node = NodeSpec(name="n", idle_power_w=230, loaded_power_w=510)
        assert node.kind is ComponentKind.COMPUTE_NODE

    def test_idle_near_half_loaded(self):
        """Paper §5: idle nodes draw ~50 % of loaded power."""
        node = NodeSpec(name="n", idle_power_w=230, loaded_power_w=510)
        assert 0.4 < node.idle_fraction < 0.55

    def test_bad_sockets_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeSpec(name="n", idle_power_w=230, loaded_power_w=510, sockets=0)

    def test_bad_frequency_rejected(self):
        with pytest.raises(UnitError):
            NodeSpec(
                name="n", idle_power_w=230, loaded_power_w=510, base_frequency_ghz=0.0
            )

    def test_bad_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeSpec(name="n", idle_power_w=230, loaded_power_w=510, memory_gib=0)


class TestOtherSpecs:
    def test_switch_defaults(self):
        sw = SwitchSpec(name="s", idle_power_w=200, loaded_power_w=250)
        assert sw.kind is ComponentKind.SWITCH
        assert sw.ports == 64

    def test_cabinet_requires_positive_nodes(self):
        with pytest.raises(ConfigurationError):
            CabinetSpec(
                name="c", idle_power_w=6500, loaded_power_w=8700, nodes_per_cabinet=0
            )

    def test_filesystem_media_validated(self):
        with pytest.raises(ConfigurationError, match="media"):
            FilesystemSpec(
                name="fs", idle_power_w=8000, loaded_power_w=8000, media="floppy"
            )

    def test_filesystem_valid_media(self):
        for media in ("HDD", "NVMe", "SSD", "mixed"):
            fs = FilesystemSpec(
                name=f"fs-{media}", idle_power_w=8000, loaded_power_w=8000, media=media
            )
            assert fs.media == media
