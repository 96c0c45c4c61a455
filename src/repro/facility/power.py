"""Facility-level power aggregation.

Combines a :class:`~repro.facility.inventory.FacilityInventory` with an
operating point (utilisation, per-node busy power) to produce facility and
compute-cabinet power figures. This is the steady-state engine behind the
paper's §3 analysis; the time-resolved version lives in
:mod:`repro.core.campaign`, which drives this model from scheduler output.

Two levels of fidelity are supported for the dominant term (compute nodes):

* **spec mode** — busy nodes draw their spec's loaded power. Good for Table 2
  style bounding analysis.
* **model mode** — the caller passes the mean busy-node power from
  :class:`repro.node.node_power.NodePowerModel` for the current BIOS/frequency
  operating point, which is how the intervention studies (Figures 2 and 3)
  are produced.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..units import ensure_fraction
from .hardware import ComponentKind
from .inventory import FacilityInventory

__all__ = ["PowerBreakdown", "FacilityPowerModel"]


@dataclass(frozen=True)
class PowerBreakdown:
    """Facility power split by component class at one operating point (watts)."""

    compute_nodes_w: float
    switches_w: float
    cabinet_overheads_w: float
    cooling_w: float
    storage_w: float

    @property
    def compute_cabinets_w(self) -> float:
        """Power of the compute cabinets (nodes + switches + overheads).

        This is what ARCHER2's cabinet meters measure and what Figures 1–3
        of the paper plot — about 90 % of the facility total.
        """
        return self.compute_nodes_w + self.switches_w + self.cabinet_overheads_w

    @property
    def total_w(self) -> float:
        """Whole-facility power."""
        return self.compute_cabinets_w + self.cooling_w + self.storage_w


class FacilityPowerModel:
    """Steady-state facility power as a function of the operating point."""

    def __init__(self, inventory: FacilityInventory) -> None:
        self.inventory = inventory
        if inventory.n_nodes == 0:
            raise ConfigurationError(
                f"inventory {inventory.name!r} has no compute nodes"
            )

    # -- node helpers -------------------------------------------------------

    def _node_idle_w(self) -> float:
        """Count-weighted mean idle power across node entries, watts."""
        entries = self.inventory.node_entries
        total = sum(e.idle_power_w for e in entries)
        return total / self.inventory.n_nodes

    def _node_loaded_w(self) -> float:
        """Count-weighted mean loaded power across node entries, watts."""
        entries = self.inventory.node_entries
        total = sum(e.loaded_power_w for e in entries)
        return total / self.inventory.n_nodes

    # -- aggregation ---------------------------------------------------------

    def breakdown(
        self,
        utilisation: float = 1.0,
        busy_node_power_w: float | None = None,
    ) -> PowerBreakdown:
        """Component-class power at an operating point.

        Parameters
        ----------
        utilisation:
            Fraction of compute nodes running user jobs. Idle nodes draw
            their spec idle power (~50 % of loaded on ARCHER2, per §5).
        busy_node_power_w:
            Mean power of a *busy* node. Defaults to the spec loaded power;
            pass the output of :class:`repro.node.node_power.NodePowerModel`
            to study BIOS/frequency operating points.
        """
        ensure_fraction(utilisation, "utilisation")
        n = self.inventory.n_nodes
        idle_w = self._node_idle_w()
        busy_w = self._node_loaded_w() if busy_node_power_w is None else float(busy_node_power_w)
        if busy_w < 0:
            raise ConfigurationError(f"busy_node_power_w must be >= 0, got {busy_w}")
        nodes_w = n * (utilisation * busy_w + (1.0 - utilisation) * idle_w)

        # Switches are close to load-invariant (Table 2): charged fully loaded.
        switches_w = sum(
            e.power_at_load_w(1.0)
            for e in self.inventory.entries_of_kind(ComponentKind.SWITCH)
        )
        # Cabinet overheads (fans, rectification losses) track node load.
        overheads_w = sum(
            e.power_at_load_w(utilisation)
            for e in self.inventory.entries_of_kind(ComponentKind.CABINET_OVERHEAD)
        )
        cooling_w = sum(
            e.loaded_power_w for e in self.inventory.entries_of_kind(ComponentKind.CDU)
        )
        storage_w = sum(
            e.loaded_power_w
            for e in self.inventory.entries_of_kind(ComponentKind.FILESYSTEM)
        )
        return PowerBreakdown(
            compute_nodes_w=nodes_w,
            switches_w=switches_w,
            cabinet_overheads_w=overheads_w,
            cooling_w=cooling_w,
            storage_w=storage_w,
        )

    def compute_cabinet_power_w(
        self,
        utilisation: float = 1.0,
        busy_node_power_w: float | None = None,
    ) -> float:
        """Compute-cabinet power (the Figures 1–3 observable), watts."""
        return self.breakdown(utilisation, busy_node_power_w).compute_cabinets_w

    def total_power_w(
        self,
        utilisation: float = 1.0,
        busy_node_power_w: float | None = None,
    ) -> float:
        """Whole-facility power, watts."""
        return self.breakdown(utilisation, busy_node_power_w).total_w

    def energy_per_nodeh_at(
        self,
        utilisation: float,
        busy_node_power_w: float | None = None,
    ) -> float:
        """Facility energy charged per *delivered* node-hour, in kWh/nodeh.

        Captures the §5 observation: because idle nodes and switches still
        draw power, the energy cost attributed to each useful node-hour
        rises sharply as utilisation falls.
        """
        if utilisation <= 0:
            raise ConfigurationError("utilisation must be positive to deliver node-hours")
        total_kw = self.total_power_w(utilisation, busy_node_power_w) / 1e3
        delivered_nodes = self.inventory.n_nodes * utilisation
        return total_kw / delivered_nodes
