"""Energy-efficiency metrics and the Tables 3/4 benchmark comparison engine.

The paper's efficiency vocabulary (§2): *output per node-hour* (performance)
versus *output per kWh* (energy efficiency). For a fixed benchmark problem,
"output" is one completed run, so these reduce to 1/time and 1/energy; the
ratios between operating points are what Tables 3 and 4 report.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..node.app_energy import compare_points, evaluate_apps
from ..node.determinism import DeterminismMode
from ..node.node_power import NodePowerModel
from ..node.pstates import FrequencySetting
from ..units import ensure_positive
from ..workload.applications import AppProfile

__all__ = [
    "OperatingConfig",
    "BenchmarkComparison",
    "compare_app",
    "comparison_table",
    "energy_to_solution_kwh",
    "output_per_kwh",
    "output_per_nodeh",
]


@dataclass(frozen=True)
class OperatingConfig:
    """A facility operating point: frequency setting × BIOS mode."""

    setting: FrequencySetting
    mode: DeterminismMode

    def label(self) -> str:
        """Human-readable name for tables."""
        return f"{self.setting.value} / {self.mode.value}"


#: The three operating configurations the paper's story moves through.
BASELINE_CONFIG = OperatingConfig(
    FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.POWER
)
POST_BIOS_CONFIG = OperatingConfig(
    FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.PERFORMANCE
)
POST_FREQ_CONFIG = OperatingConfig(
    FrequencySetting.GHZ_2_0, DeterminismMode.PERFORMANCE
)


@dataclass(frozen=True)
class BenchmarkComparison:
    """One row of a Table 3/4-style comparison."""

    app_name: str
    nodes: int
    perf_ratio: float
    energy_ratio: float
    paper_perf_ratio: float | None
    paper_energy_ratio: float | None

    @property
    def perf_error(self) -> float | None:
        """Predicted − paper performance ratio (None without a paper value)."""
        if self.paper_perf_ratio is None:
            return None
        return self.perf_ratio - self.paper_perf_ratio

    @property
    def energy_error(self) -> float | None:
        """Predicted − paper energy ratio (None without a paper value)."""
        if self.paper_energy_ratio is None:
            return None
        return self.energy_ratio - self.paper_energy_ratio


def compare_app(
    app: AppProfile,
    candidate: OperatingConfig,
    baseline: OperatingConfig,
    node_model: NodePowerModel,
) -> BenchmarkComparison:
    """Perf/energy ratios of one app between two operating configurations."""
    return comparison_table({app.name: app}, candidate, baseline, node_model)[0]


def comparison_table(
    apps: dict[str, AppProfile],
    candidate: OperatingConfig,
    baseline: OperatingConfig,
    node_model: NodePowerModel,
) -> list[BenchmarkComparison]:
    """Rows for every app, in catalogue order (a full Table 3/4).

    Baseline and candidate are each evaluated once across all apps.
    """
    profiles = list(apps.values())
    base_runs = evaluate_apps(profiles, baseline.setting, baseline.mode, node_model)
    cand_runs = evaluate_apps(profiles, candidate.setting, candidate.mode, node_model)
    rows = []
    for app, cand_run, base_run in zip(profiles, cand_runs, base_runs):
        pair = compare_points(cand_run, base_run)
        rows.append(
            BenchmarkComparison(
                app_name=app.name,
                nodes=app.typical_nodes,
                perf_ratio=pair.perf_ratio,
                energy_ratio=pair.energy_ratio,
                paper_perf_ratio=app.paper_perf_ratio,
                paper_energy_ratio=app.paper_energy_ratio,
            )
        )
    return rows


# -- scalar metrics ------------------------------------------------------------


def energy_to_solution_kwh(
    node_power_w: float, n_nodes: int, runtime_s: float
) -> float:
    """Compute-node energy of one run, kWh."""
    ensure_positive(runtime_s, "runtime_s")
    if n_nodes <= 0:
        raise ConfigurationError("n_nodes must be positive")
    if node_power_w < 0:
        raise ConfigurationError("node_power_w must be non-negative")
    return node_power_w * n_nodes * runtime_s / 3.6e6


def output_per_kwh(runs_completed: float, energy_kwh: float) -> float:
    """Energy efficiency: application output per kWh (§2)."""
    ensure_positive(energy_kwh, "energy_kwh")
    return runs_completed / energy_kwh


def output_per_nodeh(runs_completed: float, node_hours: float) -> float:
    """Performance efficiency: application output per node-hour (§2)."""
    ensure_positive(node_hours, "node_hours")
    return runs_completed / node_hours
