"""Fit node power constants to the paper's published measurements.

The node model has four free constants — CPU dynamic power ``D``, memory
dynamic power ``M``, stall activity ``μ`` and the Performance-Determinism
derate ``κ`` — plus fixed anchors (idle power 230 W from Table 2).

The fit minimises, by weighted least squares (:func:`scipy.optimize.least_squares`):

1. **Table 4 residuals** — predicted vs paper energy ratio at 2.0 GHz for
   each of the seven frequency benchmarks (perf ratios match by construction,
   because the roofline compute fractions are calibrated from them).
2. **Table 3 residuals** — predicted vs paper energy ratio for the BIOS
   determinism change for each of the three benchmarks.
3. **Table 2 anchor** — mix-typical busy-node power at the reference
   operating point must stay near the 510 W loaded figure.

The defaults in :class:`~repro.node.node_power.NodePowerConstants` are a
hand calibration already inside a few percent; this module exists to make
the procedure reproducible and to quantify residuals in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CalibrationError
from ..workload.applications import (
    AppProfile,
    paper_bios_benchmarks,
    paper_frequency_benchmarks,
)
from .app_energy import compare_points, evaluate_app
from .cpu import CpuModel
from .determinism import DeterminismMode, DeterminismModel
from .node_power import NodePowerConstants, NodePowerModel
from .pstates import FrequencySetting

__all__ = ["CalibrationResult", "build_node_model", "fit_node_constants"]

#: Table 2 loaded-node anchor, watts.
LOADED_NODE_ANCHOR_W = 510.0
#: Typical-mix activity split used for the loaded anchor (see Table 2 notes).
_ANCHOR_COMPUTE_ACTIVITY = 0.30
_ANCHOR_MEMORY_ACTIVITY = 0.70


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a calibration fit."""

    constants: NodePowerConstants
    determinism: DeterminismModel
    residuals: dict[str, float]
    cost: float

    @property
    def max_abs_residual(self) -> float:
        """Largest absolute energy-ratio residual across all fitted rows."""
        return max(abs(v) for v in self.residuals.values())


def build_node_model(
    constants: NodePowerConstants | None = None,
    determinism: DeterminismModel | None = None,
) -> NodePowerModel:
    """Assemble a node power model from (possibly fitted) constants."""
    cpu = CpuModel(determinism=determinism or DeterminismModel())
    return NodePowerModel(constants=constants or NodePowerConstants(), cpu=cpu)


def _energy_ratio_freq(app: AppProfile, model: NodePowerModel) -> float:
    """Predicted Table 4 energy ratio: 2.0 GHz vs 2.25+turbo (both perf-det)."""
    base = evaluate_app(
        app, FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.PERFORMANCE, model
    )
    cand = evaluate_app(
        app, FrequencySetting.GHZ_2_0, DeterminismMode.PERFORMANCE, model
    )
    return compare_points(cand, base).energy_ratio


def _energy_ratio_bios(app: AppProfile, model: NodePowerModel) -> float:
    """Predicted Table 3 energy ratio: performance- vs power-determinism."""
    base = evaluate_app(
        app, FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.POWER, model
    )
    cand = evaluate_app(
        app, FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.PERFORMANCE, model
    )
    return compare_points(cand, base).energy_ratio


def _anchor_power_w(model: NodePowerModel) -> float:
    point = model.cpu.operating_point(
        FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.POWER
    )
    return float(
        model.busy_power_w(point, _ANCHOR_COMPUTE_ACTIVITY, _ANCHOR_MEMORY_ACTIVITY)
    )


def fit_node_constants(
    anchor_weight: float = 3.0,
    idle_w: float = 230.0,
    prior_weight: float = 0.05,
) -> CalibrationResult:
    """Least-squares fit of (D, M, μ, κ) against Tables 2–4.

    Returns the fitted constants together with per-row residuals
    (predicted − paper energy ratio). Raises :class:`CalibrationError` if
    the optimiser fails or lands on an unphysical solution.

    ``prior_weight`` softly anchors the constants to their physically
    motivated defaults. Two of the paper's Table 4 rows (Nektar++ and
    ONETEP) are outliers no shared-constant model can reach; without the
    prior they drag the memory power to its lower bound.
    """
    from scipy.optimize import least_squares

    freq_apps = paper_frequency_benchmarks()
    bios_apps = paper_bios_benchmarks()

    def unpack(x: np.ndarray) -> NodePowerModel:
        d, m, mu, kappa = x
        constants = NodePowerConstants(
            idle_w=idle_w, cpu_dynamic_w=d, memory_dynamic_w=m, stall_activity=mu
        )
        determinism = DeterminismModel(performance_power_derate=kappa)
        return build_node_model(constants, determinism)

    def residuals(x: np.ndarray) -> np.ndarray:
        model = unpack(x)
        res: list[float] = []
        for app in freq_apps.values():
            assert app.paper_energy_ratio is not None
            res.append(_energy_ratio_freq(app, model) - app.paper_energy_ratio)
        for app in bios_apps.values():
            assert app.paper_energy_ratio is not None
            res.append(_energy_ratio_bios(app, model) - app.paper_energy_ratio)
        # Anchor residual expressed as a relative power error so its scale is
        # commensurate with the O(0.01) ratio residuals.
        res.append(
            anchor_weight * (_anchor_power_w(model) - LOADED_NODE_ANCHOR_W) / LOADED_NODE_ANCHOR_W
        )
        res.extend(prior_weight * (x - x0) / x0)
        return np.asarray(res)

    x0 = np.array([400.0, 80.0, 0.35, 0.85])
    bounds = (
        np.array([150.0, 10.0, 0.05, 0.70]),
        np.array([700.0, 200.0, 0.80, 1.00]),
    )
    result = least_squares(residuals, x0, bounds=bounds)
    if not result.success:
        raise CalibrationError(f"node-constant fit failed: {result.message}")

    model = unpack(result.x)
    labelled: dict[str, float] = {}
    for app in freq_apps.values():
        assert app.paper_energy_ratio is not None
        labelled[f"T4:{app.name}"] = _energy_ratio_freq(app, model) - app.paper_energy_ratio
    for app in bios_apps.values():
        assert app.paper_energy_ratio is not None
        labelled[f"T3:{app.name}"] = _energy_ratio_bios(app, model) - app.paper_energy_ratio
    labelled["T2:loaded-node-anchor"] = (
        _anchor_power_w(model) - LOADED_NODE_ANCHOR_W
    ) / LOADED_NODE_ANCHOR_W

    d, m, mu, kappa = result.x
    return CalibrationResult(
        constants=NodePowerConstants(
            idle_w=idle_w,
            cpu_dynamic_w=float(d),
            memory_dynamic_w=float(m),
            stall_activity=float(mu),
        ),
        determinism=DeterminismModel(performance_power_derate=float(kappa)),
        residuals=labelled,
        cost=float(result.cost),
    )
