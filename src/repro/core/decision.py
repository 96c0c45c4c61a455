"""Priority-driven operating-point selection (paper §5).

"To make correct choices about service operations ... services must have a
clear understanding of their priorities. For example, is the goal to
maximise energy efficiency, to maximise emissions efficiency, to minimise
running costs, to maximise application performance, or to achieve a balance?"

This module turns that discussion into a small decision engine: score every
candidate operating configuration on the four §5 axes against the facility's
workload mix, weight by the service's declared priorities, and recommend.
ARCHER2's Winter-2022 priorities (energy efficiency first, performance
shielded from large losses) reproduce the paper's chosen configuration —
Performance Determinism at a 2.0 GHz default — which the test suite asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..node.app_energy import AppRunPoint, compare_points, evaluate_apps
from ..node.determinism import DeterminismMode
from ..node.node_power import NodePowerModel
from ..workload.mix import WorkloadMix
from .efficiency import BASELINE_CONFIG, OperatingConfig
from .emissions import EmissionsModel

__all__ = ["Priorities", "OperatingPointScore", "DecisionEngine", "ARCHER2_WINTER_2022"]


@dataclass(frozen=True)
class Priorities:
    """Relative weights over the §5 objectives (normalised at use)."""

    energy_efficiency: float = 1.0
    emissions_efficiency: float = 1.0
    cost: float = 1.0
    performance: float = 1.0
    #: Hard floor on mix-mean performance ratio; candidates below are rejected.
    min_performance_ratio: float = 0.0

    def __post_init__(self) -> None:
        weights = (
            self.energy_efficiency,
            self.emissions_efficiency,
            self.cost,
            self.performance,
        )
        if not all(math.isfinite(w) and w >= 0 for w in weights) or sum(weights) <= 0:
            raise ConfigurationError("priority weights must be finite, non-negative, sum > 0")
        if not 0.0 <= self.min_performance_ratio <= 1.0:
            raise ConfigurationError("min_performance_ratio must be in [0, 1]")


#: The paper's declared ARCHER2 priorities for Winter 2022/23: maximise
#: energy efficiency, with a secondary goal of avoiding large performance
#: loss (§5). The floor mirrors the 10 % module-reset threshold.
ARCHER2_WINTER_2022 = Priorities(
    energy_efficiency=3.0,
    emissions_efficiency=1.0,
    cost=1.0,
    performance=1.0,
    min_performance_ratio=0.85,
)


@dataclass(frozen=True)
class OperatingPointScore:
    """Mix-weighted behaviour of one candidate configuration."""

    config: OperatingConfig
    mean_perf_ratio: float
    mean_energy_ratio: float
    mean_power_ratio: float
    emissions_ratio: float
    cost_ratio: float
    score: float
    feasible: bool


class DecisionEngine:
    """Scores operating configurations against priorities for a workload mix.

    Each distinct operating configuration, the baseline included, is
    evaluated across the whole mix at most once per engine.
    """

    def __init__(
        self,
        mix: WorkloadMix,
        node_model: NodePowerModel,
        emissions_model: EmissionsModel,
        ci_g_per_kwh: float,
        baseline: OperatingConfig = BASELINE_CONFIG,
    ) -> None:
        if ci_g_per_kwh < 0:
            raise ConfigurationError("carbon intensity must be non-negative")
        self.mix = mix
        self.node_model = node_model
        self.emissions_model = emissions_model
        self.ci_g_per_kwh = ci_g_per_kwh
        self.baseline = baseline
        self._runs: dict[OperatingConfig, list[AppRunPoint]] = {}

    def candidates(self) -> list[OperatingConfig]:
        """Every frequency setting × determinism mode the node exposes."""
        settings = self.node_model.cpu.pstates.settings
        return [
            OperatingConfig(setting, mode)
            for mode in DeterminismMode
            for setting in settings
        ]

    def _runs_at(self, config: OperatingConfig) -> list[AppRunPoint]:
        """Every mix app at ``config``, in mix order."""
        if config not in self._runs:
            self._runs[config] = evaluate_apps(
                self.mix.apps, config.setting, config.mode, self.node_model
            )
        return self._runs[config]

    def _mix_ratios(self, config: OperatingConfig) -> tuple[float, float]:
        """Mix-weighted (perf ratio, energy ratio) of ``config`` vs baseline."""
        perf = 0.0
        energy = 0.0
        # A sequential sum on purpose: np.dot/np.sum would reorder the
        # additions and change the last bits of the answer.
        for weight, cand, base in zip(
            self.mix.weights, self._runs_at(config), self._runs_at(self.baseline)
        ):
            pair = compare_points(cand, base)
            perf += weight * pair.perf_ratio
            energy += weight * pair.energy_ratio
        return perf, energy

    def _emissions_ratio(self, energy_ratio: float, perf_ratio: float) -> float:
        """Lifetime emissions per unit of application output, vs baseline.

        Scope 2 scales with energy per output; scope 3 amortises per wall
        time, so output per lifetime scales with performance. Lower is
        better.
        """
        breakdown = self.emissions_model.annual_breakdown(self.ci_g_per_kwh)
        s2 = breakdown.scope2_share
        return s2 * energy_ratio + (1.0 - s2) / perf_ratio

    def score(
        self, config: OperatingConfig, priorities: Priorities
    ) -> OperatingPointScore:
        """Score one candidate; higher is better."""
        perf, energy = self._mix_ratios(config)
        power = energy * perf
        emissions = self._emissions_ratio(energy, perf)
        cost = energy  # electricity cost per output tracks energy per output
        feasible = perf >= priorities.min_performance_ratio
        weights = np.array(
            [
                priorities.energy_efficiency,
                priorities.emissions_efficiency,
                priorities.cost,
                priorities.performance,
            ]
        )
        weights = weights / weights.sum()
        # Benefits: lower energy/emissions/cost per output, higher perf.
        benefits = np.array([1.0 / energy, 1.0 / emissions, 1.0 / cost, perf])
        value = float(np.dot(weights, benefits))
        return OperatingPointScore(
            config=config,
            mean_perf_ratio=perf,
            mean_energy_ratio=energy,
            mean_power_ratio=power,
            emissions_ratio=emissions,
            cost_ratio=cost,
            score=value if feasible else float("-inf"),
            feasible=feasible,
        )

    def recommend(self, priorities: Priorities) -> OperatingPointScore:
        """Best feasible candidate under the given priorities."""
        scored = [self.score(c, priorities) for c in self.candidates()]
        feasible = [s for s in scored if s.feasible]
        if not feasible:
            raise ConfigurationError(
                "no operating configuration satisfies the performance floor"
            )
        return max(feasible, key=lambda s: s.score)

    def ranking(self, priorities: Priorities) -> list[OperatingPointScore]:
        """All candidates, best first (infeasible ones at the end)."""
        scored = [self.score(c, priorities) for c in self.candidates()]
        return sorted(scored, key=lambda s: s.score, reverse=True)
