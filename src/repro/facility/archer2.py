"""ARCHER2 facility preset.

Encodes the published hardware description of the ARCHER2 UK National
Supercomputing Service (paper Table 1) and the per-component power envelopes
(paper Table 2). Per-unit figures in Table 2 are given as ranges for some
components; this preset picks mid-range values whose totals land on the
paper's row totals:

===================  =====  ============  ==============  ==============
Component            Count  Idle (kW/ea)  Loaded (kW/ea)  Loaded total
===================  =====  ============  ==============  ==============
Compute nodes         5860  0.23          0.51            ≈ 3,000 kW
Slingshot switches     768  0.20          0.25            ≈ 200 kW
Cabinet overheads       23  6.5           8.7             ≈ 200 kW
CDUs                     6  16            16              96 kW
File systems             5  8             8               40 kW
===================  =====  ============  ==============  ==============

Facility totals: ≈1,800 kW idle, ≈3,500 kW loaded — matching Table 2.
"""

from __future__ import annotations

from .hardware import CabinetSpec, CDUSpec, FilesystemSpec, NodeSpec, SwitchSpec
from .inventory import FacilityInventory

__all__ = [
    "ARCHER2_N_NODES",
    "ARCHER2_N_SWITCHES",
    "ARCHER2_N_CABINETS",
    "ARCHER2_N_CDUS",
    "ARCHER2_NODE_IDLE_W",
    "ARCHER2_NODE_LOADED_W",
    "ARCHER2_SWITCH_IDLE_W",
    "ARCHER2_SWITCH_LOADED_W",
    "ARCHER2_BASELINE_CABINET_POWER_KW",
    "ARCHER2_POST_BIOS_CABINET_POWER_KW",
    "ARCHER2_POST_FREQ_CABINET_POWER_KW",
    "archer2_node_spec",
    "archer2_inventory",
    "scaled_inventory",
]

ARCHER2_N_NODES = 5860
ARCHER2_N_SWITCHES = 768
ARCHER2_N_CABINETS = 23
ARCHER2_N_CDUS = 6

ARCHER2_NODE_IDLE_W = 230.0
ARCHER2_NODE_LOADED_W = 510.0
ARCHER2_SWITCH_IDLE_W = 200.0
ARCHER2_SWITCH_LOADED_W = 250.0

#: Paper Figure 1: mean measured compute-cabinet power Dec 2021 – Apr 2022.
ARCHER2_BASELINE_CABINET_POWER_KW = 3220.0
#: Paper Figure 2: mean after the BIOS performance-determinism change.
ARCHER2_POST_BIOS_CABINET_POWER_KW = 3010.0
#: Paper Figure 3: mean after the 2.0 GHz default-frequency change.
ARCHER2_POST_FREQ_CABINET_POWER_KW = 2530.0


def archer2_node_spec() -> NodeSpec:
    """The ARCHER2 compute node: 2× AMD EPYC™ 7742-class 64-core 2.25 GHz."""
    return NodeSpec(
        name="ARCHER2 compute node (2x AMD EPYC 7742-class)",
        idle_power_w=ARCHER2_NODE_IDLE_W,
        loaded_power_w=ARCHER2_NODE_LOADED_W,
        sockets=2,
        cores_per_socket=64,
        base_frequency_ghz=2.25,
        memory_gib=256,
        nic_ports=2,
    )


def scaled_inventory(fraction: float, name: str = "ARCHER2-scaled") -> FacilityInventory:
    """An ARCHER2-proportioned facility at ``fraction`` of full scale.

    Counts are scaled and rounded up to at least one unit each; per-unit
    power envelopes are unchanged. Useful for fast tests and examples that
    need facility structure without 5,860-node simulation cost.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")

    def scale(count: int) -> int:
        return max(1, round(count * fraction))

    full = archer2_inventory()
    inv = FacilityInventory(name)
    for entry in full:
        inv.add(entry.spec, scale(entry.count))
    return inv


def archer2_inventory() -> FacilityInventory:
    """Build the full ARCHER2 inventory from the published Tables 1 and 2."""
    inv = FacilityInventory("ARCHER2")
    inv.add(archer2_node_spec(), ARCHER2_N_NODES)
    inv.add(
        SwitchSpec(
            name="Slingshot 10 switch",
            idle_power_w=ARCHER2_SWITCH_IDLE_W,
            loaded_power_w=ARCHER2_SWITCH_LOADED_W,
            ports=64,
        ),
        ARCHER2_N_SWITCHES,
    )
    inv.add(
        CabinetSpec(
            name="HPE Cray EX cabinet overheads",
            idle_power_w=6_500.0,
            loaded_power_w=8_700.0,
            estimated=True,
            nodes_per_cabinet=256,
        ),
        ARCHER2_N_CABINETS,
    )
    inv.add(
        CDUSpec(
            name="Coolant distribution unit",
            idle_power_w=16_000.0,
            loaded_power_w=16_000.0,
        ),
        ARCHER2_N_CDUS,
    )
    inv.add(
        FilesystemSpec(
            name="NetApp home filesystem",
            idle_power_w=8_000.0,
            loaded_power_w=8_000.0,
            capacity_pb=1.0,
            media="mixed",
        ),
        1,
    )
    inv.add(
        FilesystemSpec(
            name="ClusterStor L300 work filesystem",
            idle_power_w=8_000.0,
            loaded_power_w=8_000.0,
            capacity_pb=13.6 / 3.0,
            media="HDD",
        ),
        3,
    )
    inv.add(
        FilesystemSpec(
            name="ClusterStor E1000 solid-state filesystem",
            idle_power_w=8_000.0,
            loaded_power_w=8_000.0,
            capacity_pb=1.0,
            media="NVMe",
        ),
        1,
    )
    return inv
