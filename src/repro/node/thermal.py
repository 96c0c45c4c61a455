"""Thermal model: silicon temperature, leakage power and coolant set-points.

Liquid-cooled systems such as ARCHER2 choose a coolant supply temperature.
Warmer water enables year-round "free cooling" (no chillers — lower facility
overhead), but hotter silicon leaks more: static CMOS leakage grows roughly
exponentially with junction temperature. The net facility optimum depends on
both curves; this module provides them and the combined trade-off, extending
the paper's §3 facility-overheads discussion.

Model
-----
* Junction temperature: ``T_j = T_coolant + R_th · P_node`` with thermal
  resistance ``R_th`` from cold plate to junction.
* Leakage: ``P_leak(T_j) = P_leak(T_ref) · exp((T_j − T_ref)/T_slope)`` —
  the standard exponential approximation, ``T_slope`` ≈ 25 °C for modern
  FinFET nodes.
* Chiller overhead: below the free-cooling threshold the plant spends
  ``chiller_cop``-governed energy removing heat; above it, only pumps/fans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..units import ensure_positive

__all__ = ["ThermalModel", "CoolantTradeoff", "sweep_coolant_setpoint"]


@dataclass(frozen=True)
class ThermalModel:
    """Node-level thermal/leakage behaviour.

    Defaults describe an EPYC-class dual-socket node: ~35 W total leakage at
    a 60 °C junction, 0.06 °C/W cold-plate-to-junction resistance.
    """

    leakage_ref_w: float = 35.0
    t_ref_c: float = 60.0
    t_slope_c: float = 25.0
    r_th_c_per_w: float = 0.06
    t_j_max_c: float = 95.0

    def __post_init__(self) -> None:
        ensure_positive(self.leakage_ref_w, "leakage_ref_w")
        ensure_positive(self.t_slope_c, "t_slope_c")
        ensure_positive(self.r_th_c_per_w, "r_th_c_per_w")
        if self.t_j_max_c <= self.t_ref_c - 50:
            raise ConfigurationError("t_j_max_c implausibly low")

    def junction_temperature_c(
        self, coolant_c: float | np.ndarray, node_power_w: float | np.ndarray
    ) -> float | np.ndarray:
        """Junction temperature for a coolant temperature and node power."""
        t = np.asarray(coolant_c, dtype=float) + self.r_th_c_per_w * np.asarray(
            node_power_w, dtype=float
        )
        return float(t) if t.ndim == 0 else t

    def leakage_w(self, t_junction_c: float | np.ndarray) -> float | np.ndarray:
        """Leakage power at a junction temperature, watts."""
        t = np.asarray(t_junction_c, dtype=float)
        leak = self.leakage_ref_w * np.exp((t - self.t_ref_c) / self.t_slope_c)
        return float(leak) if leak.ndim == 0 else leak

    def solve_node_power_w(
        self, coolant_c: float, dynamic_power_w: float, tolerance_w: float = 0.01
    ) -> float:
        """Total node power including self-consistent leakage.

        Leakage heats the die, which raises leakage — a fixed point solved
        by iteration (converges in a few steps because the loop gain
        ``R_th·P_ref/T_slope`` is ≪ 1).
        """
        ensure_positive(tolerance_w, "tolerance_w")
        if dynamic_power_w < 0:
            raise ConfigurationError("dynamic_power_w must be non-negative")
        leak = self.leakage_w(self.junction_temperature_c(coolant_c, dynamic_power_w))
        for _ in range(50):
            total = dynamic_power_w + leak
            new_leak = self.leakage_w(self.junction_temperature_c(coolant_c, total))
            if abs(new_leak - leak) < tolerance_w:
                return dynamic_power_w + new_leak
            leak = new_leak
        raise ConfigurationError("leakage fixed point failed to converge")


@dataclass(frozen=True)
class CoolantTradeoff:
    """Facility power at one coolant set-point."""

    coolant_c: float
    node_power_w: float
    leakage_w: float
    cooling_overhead_w_per_node: float
    total_w_per_node: float
    free_cooling: bool


def sweep_coolant_setpoint(
    thermal: ThermalModel,
    dynamic_power_w: float,
    coolant_temps_c: np.ndarray,
    free_cooling_threshold_c: float = 27.0,
    chiller_cop: float = 5.0,
    pump_fraction: float = 0.03,
) -> list[CoolantTradeoff]:
    """Total per-node power (IT + cooling) across coolant set-points.

    Below ``free_cooling_threshold_c`` the plant needs chillers: overhead =
    heat/COP plus pumping. At or above it, only pumping. The interesting
    output is the minimum — typically at or just above the threshold, which
    is why warm-water designs (W3/W4 classes) dominate modern HPC.
    """
    ensure_positive(chiller_cop, "chiller_cop")
    if not 0.0 <= pump_fraction < 1.0:
        raise ConfigurationError("pump_fraction must be in [0, 1)")
    out: list[CoolantTradeoff] = []
    for coolant in np.asarray(coolant_temps_c, dtype=float):
        node_w = thermal.solve_node_power_w(float(coolant), dynamic_power_w)
        leak = node_w - dynamic_power_w
        free = coolant >= free_cooling_threshold_c
        overhead = node_w * pump_fraction
        if not free:
            overhead += node_w / chiller_cop
        out.append(
            CoolantTradeoff(
                coolant_c=float(coolant),
                node_power_w=node_w,
                leakage_w=leak,
                cooling_overhead_w_per_node=overhead,
                total_w_per_node=node_w + overhead,
                free_cooling=bool(free),
            )
        )
    return out
