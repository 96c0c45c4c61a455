"""EASY-backfill batch scheduler over the node pool.

Implements the classic EASY (Extensible Argonne Scheduling sYstem) policy the
production Slurm configuration on ARCHER2 approximates: first-come
first-served with a reservation for the queue head, plus backfill — a later
job may jump ahead if it fits in the currently free nodes and either finishes
before the head's reservation ("shadow time") or only uses nodes the head
will not need.

The scheduler is deliberately ignorant of power physics: an
:class:`ExecutionEnvironment` resolves each job's frequency setting, runtime
and per-node power at start time. The production implementation of that
protocol lives in :mod:`repro.core.campaign`, where BIOS/frequency
interventions change the environment mid-simulation; a static variant is
provided here for direct use.

:class:`BackfillScheduler` runs the package's one event loop
(:class:`~repro.scheduler.malleable.MalleableSimulation`) under the rigid
EASY policy, sharing its fault path and checkpointing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from ..errors import SchedulingError
from ..facility.failures import FaultConfig
from ..node.cpu import CpuModel
from ..node.determinism import DeterminismMode
from ..node.node_power import NodePowerModel
from ..node.pstates import FrequencySetting
from ..workload.applications import AppProfile
from ..workload.jobs import Job
from .accounting import SimulationResult
from .frequency_policy import FrequencyPolicy

if TYPE_CHECKING:  # malleable imports this module
    from .malleable import MalleableSimulation

__all__ = [
    "ResolvedExecution",
    "ExecutionEnvironment",
    "StaticEnvironment",
    "BackfillScheduler",
    "validate_jobs",
]


def validate_jobs(
    jobs: list[Job],
    available_nodes: int,
    *,
    elastic: bool = False,
) -> None:
    """Admission validation: reject any job this facility can never run.

    :class:`~repro.workload.jobs.Job` construction already rejects
    non-positive node counts, non-positive walltimes and inverted elastic
    shapes; these are re-checked here defensively, together with the
    facility-relative bound, so a million-job trace fails loudly at
    admission — naming the offending job and the allowed range — rather
    than deadlocking the queue mid-simulation. With ``elastic=True`` an
    elastic job is admissible if its *minimum* shape fits (a malleable
    scheduler can shrink it in); rigid admission requires the preferred
    ``n_nodes`` to fit. Job ids must be unique: records, checkpoints and
    end events all key on them.
    """
    if available_nodes <= 0:
        raise SchedulingError("facility has no schedulable nodes")
    seen: set[int] = set()
    for job in jobs:
        if job.job_id in seen:
            raise SchedulingError(f"job {job.job_id}: duplicate job id")
        seen.add(job.job_id)
        if job.n_nodes <= 0:
            raise SchedulingError(
                f"job {job.job_id}: n_nodes must be positive, got {job.n_nodes}"
            )
        if job.reference_runtime_s <= 0:
            raise SchedulingError(
                f"job {job.job_id}: reference_runtime_s must be positive, "
                f"got {job.reference_runtime_s}"
            )
        if job.is_elastic and job.min_nodes > job.max_nodes:
            raise SchedulingError(
                f"job {job.job_id}: min_nodes {job.min_nodes} exceeds "
                f"max_nodes {job.max_nodes}"
            )
        floor = job.min_nodes if (elastic and job.is_elastic) else job.n_nodes
        if floor > available_nodes:
            raise SchedulingError(
                f"job {job.job_id} requests {floor} nodes; "
                f"facility has {available_nodes} available "
                f"(allowed range 1..{available_nodes})"
            )


@dataclass(frozen=True)
class ResolvedExecution:
    """How a job will execute, decided at its start time."""

    setting: FrequencySetting
    effective_ghz: float
    runtime_s: float
    node_power_w: float


class ExecutionEnvironment(Protocol):
    """Resolves operating conditions for a job starting at a given time."""

    def resolve(self, job: Job, time_s: float) -> ResolvedExecution:  # pragma: no cover
        """Return the execution parameters for ``job`` starting at ``time_s``."""
        ...

    def resolve_setting(
        self, job: Job, setting: FrequencySetting, time_s: float
    ) -> ResolvedExecution:  # pragma: no cover
        """Execution of ``job`` starting at ``time_s`` at ``setting``,
        whatever the frequency policy would choose."""
        ...


def execution_at(job: Job, point: tuple) -> ResolvedExecution:
    """``job``'s execution at a memoised ``(setting, effective GHz, time
    ratio, busy node W)`` point."""
    setting, effective_ghz, time_ratio, power_w = point
    return ResolvedExecution(
        setting=setting,
        effective_ghz=effective_ghz,
        runtime_s=job.reference_runtime_s * time_ratio,
        node_power_w=power_w,
    )


@dataclass(frozen=True)
class StaticEnvironment:
    """Time-invariant environment: one BIOS mode, one frequency policy.

    Resolution is memoised twice: the physics per (application, setting) —
    it depends only on the app's roofline and the operating point — and the
    policy's choice per (application, user override), so a month-long
    simulation touches the node model once per distinct app and setting
    rather than once per scheduling decision.
    """

    node_model: NodePowerModel
    mode: DeterminismMode = DeterminismMode.POWER
    policy: FrequencyPolicy = field(default_factory=FrequencyPolicy)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)
    _points: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def cpu(self) -> CpuModel:
        """The CPU model execution resolves against."""
        return self.node_model.cpu

    def _point(self, app: AppProfile, setting: FrequencySetting) -> tuple:
        """``(setting, effective GHz, time ratio, busy node W)`` of ``app`` at ``setting``."""
        key = (app.name, setting)
        cached = self._points.get(key)
        if cached is None:
            point = self.cpu.operating_point(setting, self.mode)
            profile = app.roofline.at(point.effective_ghz)
            power = self.node_model.busy_power_w(
                point, profile.compute_activity, profile.memory_activity
            )
            cached = (setting, point.effective_ghz, profile.time_ratio, float(power))
            self._points[key] = cached
        return cached

    def resolve(self, job: Job, time_s: float) -> ResolvedExecution:
        key = (job.app.name, job.frequency_override)
        cached = self._cache.get(key)
        if cached is None:
            setting = self.policy.setting_for(job, self.cpu, self.mode)
            cached = self._cache[key] = self._point(job.app, setting)
        return execution_at(job, cached)

    def resolve_setting(
        self, job: Job, setting: FrequencySetting, time_s: float
    ) -> ResolvedExecution:
        """Execution of ``job`` at ``setting``, whatever the policy would choose."""
        return execution_at(job, self._point(job.app, setting))


class BackfillScheduler:
    """Rigid EASY-backfill scheduler producing job records and a power trace.

    ``fault_config`` switches on *dynamic* faults: seeded node failures
    drain capacity mid-run, kill the jobs they hit (the burned node-hours
    are charged as wasted energy) and requeue them with exponential
    backoff until the retry budget runs out. Rigid jobs restart from zero
    — there is no checkpoint/restart in the rigid path. With the default
    ``None`` the simulation is byte-identical to a fault-free machine.

    :meth:`simulation` returns the stepping, checkpointable run behind
    :meth:`run`.
    """

    def __init__(
        self,
        n_nodes: int,
        backfill_depth: int = 100,
        fault_config: FaultConfig | None = None,
    ) -> None:
        if backfill_depth < 0:
            raise SchedulingError("backfill_depth must be non-negative")
        self.n_nodes = n_nodes
        self.backfill_depth = backfill_depth
        self.fault_config = fault_config

    # -- public API ---------------------------------------------------------

    def simulation(
        self,
        jobs: list[Job],
        t_end_s: float,
        environment: ExecutionEnvironment,
        t_start_s: float = 0.0,
    ) -> MalleableSimulation:
        """A stepping/checkpointable rigid run of ``jobs`` under ``environment``."""
        from .malleable import RigidSimulation  # malleable imports this module

        return RigidSimulation(self, jobs, t_end_s, environment, t_start_s)

    def run(
        self,
        jobs: list[Job],
        t_end_s: float,
        environment: ExecutionEnvironment,
        t_start_s: float = 0.0,
    ) -> SimulationResult:
        """Simulate ``jobs`` until ``t_end_s`` under ``environment``.

        Jobs still running at ``t_end_s`` are truncated there (their energy
        accounts only for the simulated span); jobs still waiting are
        reported as unstarted.
        """
        return self.simulation(jobs, t_end_s, environment, t_start_s).run_to_completion()
