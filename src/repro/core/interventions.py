"""System-wide interventions and their impact assessment (paper §4).

An intervention is an operator action that changes the facility's operating
state at a known time, with no user action required:

* :class:`BiosDeterminismChange` — §4.1: Power → Performance Determinism
  across all compute nodes (rolled out May 2022 on ARCHER2).
* :class:`DefaultFrequencyChange` — §4.2: default CPU frequency to 2.0 GHz
  (rolled out December 2022), with the per-application module-reset policy
  and user overrides handled by the frequency policy.

A :class:`InterventionSchedule` stitches states into a timeline, and
:class:`ScheduledEnvironment` exposes it to the scheduler: jobs resolve
against the state in force at their *start* time, so a change ramps in as
old jobs drain — exactly the smeared steps visible in Figures 2 and 3.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace

from ..errors import ConfigurationError
from ..node.determinism import DeterminismMode
from ..node.node_power import NodePowerModel
from ..node.pstates import FrequencySetting
from ..scheduler.backfill import ResolvedExecution, execution_at
from ..scheduler.frequency_policy import FrequencyPolicy
from ..telemetry.series import TimeSeries
from ..telemetry.streaming import OnlineStats
from ..units import SECONDS_PER_DAY, ensure_nonnegative
from ..workload.applications import AppProfile
from ..workload.jobs import Job

__all__ = [
    "OperatingState",
    "Intervention",
    "BiosDeterminismChange",
    "DefaultFrequencyChange",
    "InterventionSchedule",
    "ScheduledEnvironment",
    "InterventionImpact",
    "assess_impact",
]


@dataclass(frozen=True)
class OperatingState:
    """Facility-wide operating state: BIOS mode + frequency policy."""

    mode: DeterminismMode = DeterminismMode.POWER
    policy: FrequencyPolicy = field(default_factory=FrequencyPolicy)


@dataclass(frozen=True)
class Intervention:
    """Base class: a named state transformation applied at ``time_s``."""

    time_s: float
    name: str = "intervention"

    def apply(self, state: OperatingState) -> OperatingState:  # pragma: no cover
        """Return the state in force after this intervention."""
        raise NotImplementedError


@dataclass(frozen=True)
class BiosDeterminismChange(Intervention):
    """§4.1: switch every node's BIOS determinism mode."""

    name: str = "BIOS: power -> performance determinism"
    to_mode: DeterminismMode = DeterminismMode.PERFORMANCE

    def apply(self, state: OperatingState) -> OperatingState:
        return replace(state, mode=self.to_mode)


@dataclass(frozen=True)
class DefaultFrequencyChange(Intervention):
    """§4.2: change the facility default CPU frequency setting.

    A fresh policy object is built so the perf-impact cache is recomputed
    for the new default, keeping the module-reset list (>10 % impact apps)
    consistent.
    """

    name: str = "default CPU frequency -> 2.0 GHz"
    to_setting: FrequencySetting = FrequencySetting.GHZ_2_0

    def apply(self, state: OperatingState) -> OperatingState:
        old = state.policy
        policy = FrequencyPolicy(
            default_setting=self.to_setting,
            reset_threshold=old.reset_threshold,
            respect_user_override=old.respect_user_override,
            reset_setting=old.reset_setting,
            curated_apps=old.curated_apps,
        )
        return replace(state, policy=policy)


class InterventionSchedule:
    """A timeline of operating states.

    States are resolved once at construction; lookups bisect on time.
    """

    def __init__(
        self,
        initial: OperatingState,
        interventions: list[Intervention] | None = None,
    ) -> None:
        interventions = sorted(interventions or [], key=lambda iv: iv.time_s)
        self.interventions = interventions
        self._times = [iv.time_s for iv in interventions]
        states = [initial]
        for iv in interventions:
            states.append(iv.apply(states[-1]))
        self._states = states

    def state_index_at(self, time_s: float) -> int:
        """Index of the state in force at ``time_s`` (0 = initial)."""
        return bisect.bisect_right(self._times, time_s)

    @property
    def states(self) -> list[OperatingState]:
        """All states in chronological order (initial first)."""
        return list(self._states)

    @property
    def change_times_s(self) -> list[float]:
        """Intervention times in chronological order."""
        return list(self._times)


@dataclass
class ScheduledEnvironment:
    """Execution environment that follows an intervention schedule.

    Jobs resolve against the state at their start time. The policy's choice
    is memoised per (state index, app, override) and the physics per (BIOS
    mode, app, setting), so month-scale simulations stay fast.
    """

    node_model: NodePowerModel
    schedule: InterventionSchedule
    _cache: dict = field(default_factory=dict, repr=False)
    _points: dict = field(default_factory=dict, repr=False)

    def _point(
        self, mode: DeterminismMode, app: AppProfile, setting: FrequencySetting
    ) -> tuple:
        """``(setting, effective GHz, time ratio, busy node W)`` of ``app``."""
        key = (mode, app.name, setting)
        cached = self._points.get(key)
        if cached is None:
            point = self.node_model.cpu.operating_point(setting, mode)
            profile = app.roofline.at(point.effective_ghz)
            power = self.node_model.busy_power_w(
                point, profile.compute_activity, profile.memory_activity
            )
            cached = (setting, point.effective_ghz, profile.time_ratio, float(power))
            self._points[key] = cached
        return cached

    def resolve(self, job: Job, time_s: float) -> ResolvedExecution:
        idx = self.schedule.state_index_at(time_s)
        key = (idx, job.app.name, job.frequency_override)
        cached = self._cache.get(key)
        if cached is None:
            state = self.schedule.states[idx]
            setting = state.policy.setting_for(job, self.node_model.cpu, state.mode)
            cached = self._cache[key] = self._point(state.mode, job.app, setting)
        return execution_at(job, cached)

    def resolve_setting(
        self, job: Job, setting: FrequencySetting, time_s: float
    ) -> ResolvedExecution:
        """Execution of ``job`` at ``setting`` in the BIOS mode in force at
        ``time_s``, whatever the policy would choose."""
        mode = self.schedule.states[self.schedule.state_index_at(time_s)].mode
        return execution_at(job, self._point(mode, job.app, setting))


@dataclass(frozen=True)
class InterventionImpact:
    """Before/after power impact of one intervention."""

    name: str
    change_time_s: float
    mean_before: float
    mean_after: float

    @property
    def delta(self) -> float:
        """after − before (negative = saving), series units."""
        return self.mean_after - self.mean_before

    @property
    def saving(self) -> float:
        """before − after (positive = saving), series units."""
        return -self.delta

    @property
    def relative_saving(self) -> float:
        """Saving as a fraction of the before-mean."""
        if self.mean_before == 0:
            return 0.0
        return self.saving / self.mean_before


def assess_impact(
    series: TimeSeries,
    change_time_s: float,
    name: str = "intervention",
    settle_s: float = 2 * SECONDS_PER_DAY,
) -> InterventionImpact:
    """Before/after means around a known change time.

    ``settle_s`` excludes the transition window after the change, during
    which jobs started under the old state are still draining (the ramp in
    Figures 2/3).
    """
    ensure_nonnegative(settle_s, "settle_s")
    if not series.t_start_s < change_time_s < series.t_end_s:
        raise ConfigurationError(
            f"change time {change_time_s} outside series span "
            f"[{series.t_start_s}, {series.t_end_s}]"
        )
    before = series.slice(series.t_start_s, change_time_s)
    after_start = change_time_s + settle_s
    if after_start >= series.t_end_s:
        raise ConfigurationError("settle window swallows the entire after-period")
    after = series.slice(after_start, series.t_end_s + 1.0)
    return InterventionImpact(
        name=name,
        change_time_s=change_time_s,
        mean_before=OnlineStats.from_series(before).mean,
        mean_after=OnlineStats.from_series(after).mean,
    )
