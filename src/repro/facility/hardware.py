"""Hardware component specifications.

These dataclasses describe the *kinds* of hardware in a facility — compute
nodes, interconnect switches, cabinets, coolant distribution units and file
systems — with their idle and loaded power envelopes. They carry the same
information as Table 2 of the paper ("Estimated/measured power draw for
different ARCHER2 system components") in per-unit form.

A spec is immutable; counts live in :class:`~repro.facility.inventory.FacilityInventory`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..units import ensure_nonnegative, ensure_positive

__all__ = [
    "ComponentKind",
    "ComponentSpec",
    "NodeSpec",
    "SwitchSpec",
    "CabinetSpec",
    "CDUSpec",
    "FilesystemSpec",
]


class ComponentKind(enum.Enum):
    """Category of facility hardware a spec describes."""

    COMPUTE_NODE = "compute_node"
    SWITCH = "switch"
    CABINET_OVERHEAD = "cabinet_overhead"
    CDU = "cdu"
    FILESYSTEM = "filesystem"


@dataclass(frozen=True)
class ComponentSpec:
    """Power envelope for one unit of a hardware component.

    Parameters
    ----------
    name:
        Human-readable identifier, e.g. ``"AMD EPYC 7742 dual-socket node"``.
    kind:
        The :class:`ComponentKind` category.
    idle_power_w:
        Per-unit power draw with no computational load, in watts.
    loaded_power_w:
        Per-unit power draw under full computational load, in watts. Must be
        greater than or equal to ``idle_power_w``.
    estimated:
        ``True`` when the figure is a vendor estimate rather than a facility
        measurement (italics in the paper's Table 2).
    """

    name: str
    kind: ComponentKind
    idle_power_w: float
    loaded_power_w: float
    estimated: bool = False

    def __post_init__(self) -> None:
        ensure_nonnegative(self.idle_power_w, f"{self.name}: idle_power_w")
        ensure_nonnegative(self.loaded_power_w, f"{self.name}: loaded_power_w")
        if self.loaded_power_w < self.idle_power_w:
            raise ConfigurationError(
                f"{self.name}: loaded power ({self.loaded_power_w} W) below idle "
                f"power ({self.idle_power_w} W)"
            )

    def power_at_load_w(self, load_fraction: float) -> float:
        """Linear idle↔loaded interpolation at ``load_fraction`` ∈ [0, 1].

        The paper notes idle nodes draw ~50 % of loaded power, so the linear
        model over a small load range is adequate for facility aggregates;
        per-node detail uses :mod:`repro.node` instead.
        """
        if not 0.0 <= load_fraction <= 1.0:
            raise ConfigurationError(
                f"load_fraction must be within [0, 1], got {load_fraction!r}"
            )
        return self.idle_power_w + (self.loaded_power_w - self.idle_power_w) * load_fraction

    @property
    def idle_fraction(self) -> float:
        """Idle power as a fraction of loaded power (0 when loaded power is 0)."""
        if self.loaded_power_w == 0:
            return 0.0
        return self.idle_power_w / self.loaded_power_w


@dataclass(frozen=True)
class NodeSpec(ComponentSpec):
    """A compute node: sockets × cores, memory, and injection ports.

    Defaults describe an ARCHER2 node: dual AMD EPYC™ 7742-class 64-core
    2.25 GHz sockets, 256/512 GB DDR4, two Slingshot-10 injection ports.
    """

    kind: ComponentKind = field(default=ComponentKind.COMPUTE_NODE, init=False)
    sockets: int = 2
    cores_per_socket: int = 64
    base_frequency_ghz: float = 2.25
    memory_gib: int = 256
    nic_ports: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sockets <= 0 or self.cores_per_socket <= 0:
            raise ConfigurationError(
                f"{self.name}: sockets and cores_per_socket must be positive"
            )
        ensure_positive(self.base_frequency_ghz, f"{self.name}: base_frequency_ghz")
        if self.memory_gib <= 0 or self.nic_ports < 0:
            raise ConfigurationError(f"{self.name}: bad memory/nic configuration")

    @property
    def cores(self) -> int:
        """Total compute cores in the node."""
        return self.sockets * self.cores_per_socket


@dataclass(frozen=True)
class SwitchSpec(ComponentSpec):
    """An interconnect switch. Paper: power is load-invariant at 200–250 W."""

    kind: ComponentKind = field(default=ComponentKind.SWITCH, init=False)
    ports: int = 64


@dataclass(frozen=True)
class CabinetSpec(ComponentSpec):
    """Per-cabinet overheads (rectifiers, fans, controllers) beyond nodes/switches."""

    kind: ComponentKind = field(default=ComponentKind.CABINET_OVERHEAD, init=False)
    nodes_per_cabinet: int = 256

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.nodes_per_cabinet <= 0:
            raise ConfigurationError(f"{self.name}: nodes_per_cabinet must be positive")


@dataclass(frozen=True)
class CDUSpec(ComponentSpec):
    """A coolant distribution unit; draws near-constant power."""

    kind: ComponentKind = field(default=ComponentKind.CDU, init=False)


@dataclass(frozen=True)
class FilesystemSpec(ComponentSpec):
    """A storage subsystem (e.g. Lustre appliance) with capacity metadata."""

    kind: ComponentKind = field(default=ComponentKind.FILESYSTEM, init=False)
    capacity_pb: float = 1.0
    media: str = "HDD"

    def __post_init__(self) -> None:
        super().__post_init__()
        ensure_positive(self.capacity_pb, f"{self.name}: capacity_pb")
        if self.media not in ("HDD", "NVMe", "SSD", "mixed"):
            raise ConfigurationError(f"{self.name}: unknown media {self.media!r}")
