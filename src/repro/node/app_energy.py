"""Application-on-node evaluation: time, power and energy at an operating point.

This is the junction between the workload substrate (roofline execution
models) and the node substrate (DVFS power model). Everything the paper's
Tables 3 and 4 report — performance ratios and energy ratios between
operating points — reduces to two calls of :func:`evaluate_apps` and one
:func:`compare_points` per app.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, cast

import numpy as np

from ..workload.applications import AppProfile
from .cpu import OperatingPoint
from .determinism import DeterminismMode
from .node_power import NodePowerModel
from .pstates import FrequencySetting

__all__ = ["AppRunPoint", "RatioPair", "evaluate_app", "evaluate_apps", "compare_points"]


@dataclass(frozen=True)
class AppRunPoint:
    """An application's behaviour at one node operating point."""

    app_name: str
    point: OperatingPoint
    time_ratio: float  # wall time vs the app's reference frequency
    node_power_w: float  # mean busy-node power during the run

    @property
    def energy_scale(self) -> float:
        """Node energy per unit of reference-work, ∝ power × time."""
        return self.node_power_w * self.time_ratio


@dataclass(frozen=True)
class RatioPair:
    """Perf and energy ratios of a candidate point vs a baseline point.

    Matches the columns of the paper's Tables 3/4: values < 1 mean the
    candidate is slower (perf) or consumes less energy (energy).
    """

    app_name: str
    perf_ratio: float
    energy_ratio: float

    @property
    def power_ratio(self) -> float:
        """Implied mean-power ratio (energy ratio × perf ratio)."""
        return self.energy_ratio * self.perf_ratio


def evaluate_apps(
    apps: Iterable[AppProfile],
    setting: FrequencySetting,
    mode: DeterminismMode,
    node_model: NodePowerModel,
) -> list[AppRunPoint]:
    """Resolve every app's wall-time stretch and node power at one operating point.

    The point is resolved once and every app's busy-node power comes from
    one array :meth:`NodePowerModel.busy_power_w` call. Each element is the
    same float64 arithmetic, in the same order, as a scalar call for that
    app alone.
    """
    apps = tuple(apps)
    point = node_model.cpu.operating_point(setting, mode)
    profiles = [app.roofline.at(point.effective_ghz) for app in apps]
    compute = np.array([profile.compute_activity for profile in profiles])
    memory = np.array([profile.memory_activity for profile in profiles])
    power = cast(np.ndarray, node_model.busy_power_w(point, compute, memory))
    return [
        AppRunPoint(
            app_name=app.name,
            point=point,
            time_ratio=profile.time_ratio,
            node_power_w=float(watts),
        )
        for app, profile, watts in zip(apps, profiles, power)
    ]


def evaluate_app(
    app: AppProfile,
    setting: FrequencySetting,
    mode: DeterminismMode,
    node_model: NodePowerModel,
) -> AppRunPoint:
    """Resolve an app's wall-time stretch and node power at an operating point."""
    return evaluate_apps((app,), setting, mode, node_model)[0]


def compare_points(candidate: AppRunPoint, baseline: AppRunPoint) -> RatioPair:
    """Perf/energy ratios of ``candidate`` relative to ``baseline``.

    Both runs must describe the same application so the work performed is
    identical and ratios are meaningful.
    """
    if candidate.app_name != baseline.app_name:
        raise ValueError(
            f"cannot compare different apps: {candidate.app_name!r} vs {baseline.app_name!r}"
        )
    return RatioPair(
        app_name=candidate.app_name,
        perf_ratio=baseline.time_ratio / candidate.time_ratio,
        energy_ratio=candidate.energy_scale / baseline.energy_scale,
    )
