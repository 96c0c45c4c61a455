"""Compute-node power model.

A node aggregates board, memory and two CPU sockets into three power terms:

``P_busy = B + κ·( D · g(f) · a_eff  +  M · α_m )``

* ``B`` — static/idle power: board, NICs, idle DRAM, socket leakage. The
  paper observes idle nodes draw ~50 % of loaded power (§5); on ARCHER2
  B = 230 W against ~510 W loaded.
* ``D`` — CPU dynamic power at the DVFS reference frequency with fully
  active cores; scaled by the DVFS factor ``g(f) = V(f)²f / V(f₀)²f₀`` and
  by the *effective activity* ``a_eff = α_c + μ·α_m``, where ``α_c`` is the
  compute-active time fraction, ``α_m`` the memory-stall fraction, and ``μ``
  the residual dynamic power of stalled cores.
* ``M`` — memory-subsystem dynamic power at full memory activity.
* ``κ`` — determinism-mode derate (1.0 in Power Determinism; ≈0.875 in
  Performance Determinism, see :mod:`repro.node.determinism`).

The constants default to an ARCHER2 calibration: see
:mod:`repro.node.calibration` for the fitting procedure against the paper's
Tables 2–4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..units import ensure_fraction, ensure_nonnegative
from .cpu import CpuModel, OperatingPoint
from .determinism import DeterminismMode
from .pstates import FrequencySetting

__all__ = ["NodePowerConstants", "NodePowerModel"]


@dataclass(frozen=True)
class NodePowerConstants:
    """Calibrated node power constants (watts, dimensionless μ)."""

    idle_w: float = 230.0
    cpu_dynamic_w: float = 400.0
    memory_dynamic_w: float = 80.0
    stall_activity: float = 0.35

    def __post_init__(self) -> None:
        ensure_nonnegative(self.idle_w, "idle_w")
        ensure_nonnegative(self.cpu_dynamic_w, "cpu_dynamic_w")
        ensure_nonnegative(self.memory_dynamic_w, "memory_dynamic_w")
        ensure_fraction(self.stall_activity, "stall_activity")


@dataclass(frozen=True)
class NodePowerModel:
    """Power of one compute node as a function of operating point and activity."""

    constants: NodePowerConstants = field(default_factory=NodePowerConstants)
    cpu: CpuModel = field(default_factory=CpuModel)

    @property
    def idle_power_w(self) -> float:
        """Power of a node with no user job, watts."""
        return self.constants.idle_w

    def busy_power_w(
        self,
        point: OperatingPoint,
        compute_activity: float | np.ndarray,
        memory_activity: float | np.ndarray,
    ) -> float | np.ndarray:
        """Power of a busy node, watts.

        ``compute_activity`` (α_c) and ``memory_activity`` (α_m) are the
        fractions of wall time the cores spend executing vs stalled on
        memory; they must not exceed 1 in total. Accepts arrays for
        vectorised sweeps over many jobs.
        """
        a_c = np.asarray(compute_activity, dtype=float)
        a_m = np.asarray(memory_activity, dtype=float)
        if np.any(a_c < 0) or np.any(a_m < 0) or np.any(a_c + a_m > 1.0 + 1e-9):
            raise ConfigurationError(
                "activities must be non-negative with compute+memory <= 1"
            )
        c = self.constants
        g = self.cpu.dynamic_scale(point)
        kappa = self.cpu.dynamic_power_factor(point)
        a_eff = a_c + c.stall_activity * a_m
        power = c.idle_w + kappa * (c.cpu_dynamic_w * g * a_eff + c.memory_dynamic_w * a_m)
        return float(power) if power.ndim == 0 else power

    def idle_fraction(self) -> float:
        """Idle power as a fraction of a typical loaded node (§5: ~50 %).

        "Typical" is defined as a 30 % compute / 70 % memory activity split
        at the reference operating point — the mix-average workload the
        Table 2 loaded figure describes.
        """
        point = self.cpu.operating_point(
            FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.POWER
        )
        typical = float(self.busy_power_w(point, 0.3, 0.7))
        return self.constants.idle_w / typical
