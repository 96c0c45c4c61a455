"""Recording pipeline: simulation truth → facility power → metered series.

Composes the scheduler's busy-node power trace with the facility inventory's
static components (idle nodes, switches, cabinet overheads) into the *true*
compute-cabinet power signal. A campaign samples that signal on its grid and
measures it through the recorder's
:class:`~repro.telemetry.meters.PowerMeter`; the output is the synthetic
equivalent of the cabinet telemetry behind the paper's Figures 1–3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..facility.hardware import ComponentKind
from ..facility.inventory import FacilityInventory
from .meters import MeterSpec, PowerMeter

if TYPE_CHECKING:
    from ..scheduler.accounting import PowerTrace

__all__ = ["CabinetPowerRecorder"]


@dataclass(frozen=True)
class CabinetPowerRecorder:
    """Turns a simulation trace into true cabinet power, paired with its meter."""

    inventory: FacilityInventory
    meter: PowerMeter = PowerMeter(MeterSpec(), name="compute-cabinets")

    def _static_coefficients(self) -> tuple[float, float, float]:
        """Linear cabinet-power terms: (node_idle_w_each, base_w, slope_w).

        ``base_w + slope_w · utilisation`` covers switches and cabinet
        overheads; idle nodes contribute ``node_idle_w_each`` per idle node.
        """
        inv = self.inventory
        node_idle_each = sum(e.idle_power_w for e in inv.node_entries) / inv.n_nodes
        base = 0.0
        slope = 0.0
        for kind in (ComponentKind.SWITCH, ComponentKind.CABINET_OVERHEAD):
            for e in inv.entries_of_kind(kind):
                base += e.idle_power_w
                slope += e.loaded_power_w - e.idle_power_w
        return node_idle_each, base, slope

    def true_power_w(self, trace: PowerTrace, times_s: np.ndarray) -> np.ndarray:
        """Instantaneous true compute-cabinet power at sample times, watts."""
        node_idle_each, base, slope = self._static_coefficients()
        n_nodes = self.inventory.n_nodes
        busy_power = trace.sample(times_s)
        busy_nodes = trace.sample_busy_nodes(times_s)
        utilisation = busy_nodes / n_nodes
        idle_power = (n_nodes - busy_nodes) * node_idle_each
        return busy_power + idle_power + base + slope * utilisation
