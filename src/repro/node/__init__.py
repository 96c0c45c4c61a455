"""Node substrate: CPU P-states, DVFS power, BIOS determinism modes.

Models an ARCHER2 compute node (2× AMD EPYC™ 7742-class) with enough
physical structure that the paper's two interventions — the BIOS determinism
change (§4.1) and the 2.0 GHz frequency cap (§4.2) — act through the same
mechanisms they do on the real hardware.
"""

from .app_energy import AppRunPoint, RatioPair, compare_points, evaluate_app, evaluate_apps
from .calibration import (
    CalibrationResult,
    LOADED_NODE_ANCHOR_W,
    build_node_model,
    fit_node_constants,
)
from .cpu import CpuModel, OperatingPoint
from .determinism import DeterminismMode, DeterminismModel
from .node_power import NodePowerConstants, NodePowerModel
from .power_cap import CapResult, cap_comparison, effective_frequency_under_cap
from .thermal import CoolantTradeoff, ThermalModel, sweep_coolant_setpoint
from .pstates import (
    ARCHER2_TURBO_GHZ,
    FrequencySetting,
    PState,
    PStateTable,
    VoltageFrequencyCurve,
    archer2_pstates,
)

__all__ = [
    "FrequencySetting",
    "PState",
    "PStateTable",
    "VoltageFrequencyCurve",
    "archer2_pstates",
    "ARCHER2_TURBO_GHZ",
    "DeterminismMode",
    "DeterminismModel",
    "CpuModel",
    "OperatingPoint",
    "NodePowerConstants",
    "NodePowerModel",
    "AppRunPoint",
    "RatioPair",
    "evaluate_app",
    "evaluate_apps",
    "compare_points",
    "CalibrationResult",
    "LOADED_NODE_ANCHOR_W",
    "build_node_model",
    "ThermalModel",
    "CoolantTradeoff",
    "sweep_coolant_setpoint",
    "CapResult",
    "effective_frequency_under_cap",
    "cap_comparison",
    "fit_node_constants",
]
