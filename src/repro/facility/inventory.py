"""Facility inventory: component specs with counts, and aggregate book-keeping.

The inventory is the quantitative backbone of the paper's Table 2: every
component spec is registered with a count, and the inventory can aggregate
idle/loaded power per component class and for the whole facility, report
percentage shares, and answer sizing questions (cores, cabinets, node-hours
capacity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from ..errors import ConfigurationError
from .hardware import ComponentKind, ComponentSpec, NodeSpec

__all__ = ["InventoryEntry", "FacilityInventory", "ComponentAggregate"]


@dataclass(frozen=True)
class InventoryEntry:
    """A component spec together with how many units the facility installs."""

    spec: ComponentSpec
    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ConfigurationError(
                f"count for {self.spec.name!r} must be positive, got {self.count}"
            )

    @property
    def idle_power_w(self) -> float:
        """Total idle power across all units, watts."""
        return self.spec.idle_power_w * self.count

    @property
    def loaded_power_w(self) -> float:
        """Total loaded power across all units, watts."""
        return self.spec.loaded_power_w * self.count

    def power_at_load_w(self, load_fraction: float) -> float:
        """Total power across all units at a given load fraction, watts."""
        return self.spec.power_at_load_w(load_fraction) * self.count


@dataclass(frozen=True)
class ComponentAggregate:
    """Aggregate idle/loaded power for one :class:`ComponentKind` (a Table 2 row)."""

    kind: ComponentKind
    count: int
    idle_power_w: float
    loaded_power_w: float
    loaded_share: float  # fraction of facility loaded power


class FacilityInventory:
    """A named collection of hardware entries forming one facility.

    Entries are keyed by the spec name; registering a duplicate name raises.
    Iteration yields entries in registration order, which keeps report output
    stable.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._entries: dict[str, InventoryEntry] = {}

    # -- construction -----------------------------------------------------

    def add(self, spec: ComponentSpec, count: int) -> None:
        """Register ``count`` units of ``spec``."""
        if spec.name in self._entries:
            raise ConfigurationError(f"duplicate component name {spec.name!r}")
        self._entries[spec.name] = InventoryEntry(spec=spec, count=count)

    # -- lookup -----------------------------------------------------------

    def __iter__(self) -> Iterator[InventoryEntry]:
        return iter(self._entries.values())

    def entries_of_kind(self, kind: ComponentKind) -> list[InventoryEntry]:
        """All entries whose spec is of the given kind, registration order."""
        return [e for e in self if e.spec.kind is kind]

    def count_of_kind(self, kind: ComponentKind) -> int:
        """Total unit count across all entries of the given kind."""
        return sum(e.count for e in self.entries_of_kind(kind))

    # -- convenience sizing -----------------------------------------------

    @property
    def node_entries(self) -> list[InventoryEntry]:
        """Entries for compute nodes."""
        return self.entries_of_kind(ComponentKind.COMPUTE_NODE)

    @property
    def n_nodes(self) -> int:
        """Total compute nodes."""
        return self.count_of_kind(ComponentKind.COMPUTE_NODE)

    @property
    def n_switches(self) -> int:
        """Total interconnect switches."""
        return self.count_of_kind(ComponentKind.SWITCH)

    @property
    def n_cabinets(self) -> int:
        """Total compute cabinets."""
        return self.count_of_kind(ComponentKind.CABINET_OVERHEAD)

    @property
    def n_cores(self) -> int:
        """Total compute cores across all node entries."""
        total = 0
        for entry in self.node_entries:
            spec = entry.spec
            assert isinstance(spec, NodeSpec)
            total += spec.cores * entry.count
        return total

    # -- aggregate power ---------------------------------------------------

    def idle_power_w(self) -> float:
        """Facility-wide idle power, watts."""
        return sum(e.idle_power_w for e in self)

    def loaded_power_w(self) -> float:
        """Facility-wide fully loaded power, watts."""
        return sum(e.loaded_power_w for e in self)

    def aggregates(self) -> list[ComponentAggregate]:
        """Per-kind aggregate rows in Table 2 order (nodes first, then the rest).

        ``loaded_share`` is each kind's fraction of the facility's total
        loaded power — the "Approx. %" column of the paper's Table 2.
        """
        total_loaded = self.loaded_power_w()
        order = [
            ComponentKind.COMPUTE_NODE,
            ComponentKind.SWITCH,
            ComponentKind.CABINET_OVERHEAD,
            ComponentKind.CDU,
            ComponentKind.FILESYSTEM,
        ]
        rows: list[ComponentAggregate] = []
        for kind in order:
            entries = self.entries_of_kind(kind)
            if not entries:
                continue
            idle = sum(e.idle_power_w for e in entries)
            loaded = sum(e.loaded_power_w for e in entries)
            rows.append(
                ComponentAggregate(
                    kind=kind,
                    count=sum(e.count for e in entries),
                    idle_power_w=idle,
                    loaded_power_w=loaded,
                    loaded_share=loaded / total_loaded if total_loaded else 0.0,
                )
            )
        return rows

    def loaded_share(self, kind: ComponentKind) -> float:
        """Fraction of facility loaded power drawn by components of ``kind``."""
        for row in self.aggregates():
            if row.kind is kind:
                return row.loaded_share
        return 0.0

    def compute_cabinet_power_w(self, load_fraction: float = 1.0) -> float:
        """Power of the *compute cabinets* at a load fraction, watts.

        The paper's Figures 1–3 measure "compute cabinets", which include
        compute nodes, interconnect switches and cabinet overheads — roughly
        90 % of the total facility draw — but exclude CDUs and file systems.
        """
        kinds = (
            ComponentKind.COMPUTE_NODE,
            ComponentKind.SWITCH,
            ComponentKind.CABINET_OVERHEAD,
        )
        return sum(
            e.power_at_load_w(load_fraction)
            for e in self
            if e.spec.kind in kinds
        )

    def summary(self) -> Mapping[str, float | int | str]:
        """Headline sizing numbers (Table 1 content) as a plain mapping."""
        return {
            "facility": self.name,
            "nodes": self.n_nodes,
            "cores": self.n_cores,
            "switches": self.n_switches,
            "cabinets": self.n_cabinets,
            "cdus": self.count_of_kind(ComponentKind.CDU),
            "filesystems": self.count_of_kind(ComponentKind.FILESYSTEM),
            "idle_power_kw": self.idle_power_w() / 1e3,
            "loaded_power_kw": self.loaded_power_w() / 1e3,
        }
