"""Facility substrate: hardware inventory, power aggregation, node failures.

This package models the *machine room* side of a large HPC service — the
component inventory of Table 1/Table 2 and the steady-state power roll-ups
used throughout §3 of the paper.
"""

from .archer2 import (
    ARCHER2_BASELINE_CABINET_POWER_KW,
    ARCHER2_N_CABINETS,
    ARCHER2_N_CDUS,
    ARCHER2_N_NODES,
    ARCHER2_N_SWITCHES,
    ARCHER2_NODE_IDLE_W,
    ARCHER2_NODE_LOADED_W,
    ARCHER2_POST_BIOS_CABINET_POWER_KW,
    ARCHER2_POST_FREQ_CABINET_POWER_KW,
    archer2_inventory,
    archer2_node_spec,
    scaled_inventory,
)
from .failures import FailureModel, FaultConfig
from .hardware import (
    CabinetSpec,
    CDUSpec,
    ComponentKind,
    ComponentSpec,
    FilesystemSpec,
    NodeSpec,
    SwitchSpec,
)
from .inventory import ComponentAggregate, FacilityInventory, InventoryEntry
from .power import FacilityPowerModel, PowerBreakdown

__all__ = [
    "ComponentKind",
    "ComponentSpec",
    "NodeSpec",
    "SwitchSpec",
    "CabinetSpec",
    "CDUSpec",
    "FilesystemSpec",
    "InventoryEntry",
    "ComponentAggregate",
    "FacilityInventory",
    "FacilityPowerModel",
    "PowerBreakdown",
    "FailureModel",
    "FaultConfig",
    "archer2_inventory",
    "archer2_node_spec",
    "scaled_inventory",
    "ARCHER2_N_NODES",
    "ARCHER2_N_SWITCHES",
    "ARCHER2_N_CABINETS",
    "ARCHER2_N_CDUS",
    "ARCHER2_NODE_IDLE_W",
    "ARCHER2_NODE_LOADED_W",
    "ARCHER2_BASELINE_CABINET_POWER_KW",
    "ARCHER2_POST_BIOS_CABINET_POWER_KW",
    "ARCHER2_POST_FREQ_CABINET_POWER_KW",
]
