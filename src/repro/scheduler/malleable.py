"""Carbon-aware malleable scheduling: grow/shrink jobs against the grid.

The paper's §2 regime analysis says a facility on today's UK grid sits in
the scope-2-dominated regime (CI > 100 gCO₂/kWh) for part of every day and
near the balanced band the rest of it. A scheduler that can *reshape* work
in time and space exploits that structure three ways:

1. **Temporal shifting** — jobs declaring start slack are released into the
   greenest forecast window inside their slack (``ForecastIndex`` queries).
2. **Shrink on high carbon** — elastic jobs shrink to their minimum shape
   while CI > the high boundary, shedding power *and* node-seconds (the
   scaling overheads mean narrow allocations are more node-second
   efficient), then grow back when the grid cleans up.
3. **Frequency co-optimisation** — jobs starting in a high-CI period run at
   the 2.0 GHz energy-saving point; in a near-clean grid they run fast to
   retire embodied carbon sooner (:meth:`FrequencyPolicy.setting_for_ci`).

Execution uses a progress-based work model: a job is a unit of work
completed at rate ``1 / (T_preferred · stretch(alloc))``, so reallocations
mid-flight re-time the completion exactly. Every reallocation bumps a
generation counter carried in the end-event payload, which invalidates
stale end events — the standard DES trick that keeps replay (and
checkpoint/resume) bit-identical.

All simulation state lives in JSON-able ``state_dict`` snapshots: the event
queue (payloads are ids and tuples, never objects), the node pool, the
trace builder, run-state vectors and the RNG bit-generator state. Killing a
simulation mid-trace, reloading the snapshot and running to completion
produces byte-identical results to an uninterrupted run.

:class:`MalleableSimulation` is the package's one event loop and fault path;
rigid EASY backfill (:class:`~repro.scheduler.backfill.BackfillScheduler`)
runs it under the rigid policy of :class:`RigidSimulation`.

The regime boundaries default to the paper's 30/100 gCO₂/kWh (the same
values as ``repro.core.regimes``; kept as literals here so the scheduler
substrate does not import the core layer, which imports it back).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Any

import numpy as np

from ..errors import SchedulingError
from ..facility.failures import FaultConfig
from ..grid.carbon_intensity import CarbonIntensityModel
from ..grid.forecast import ForecastFeed, ForecastIndex
from ..node.pstates import FrequencySetting
from ..telemetry.series import TimeSeries
from ..units import SECONDS_PER_DAY, ensure_positive
from ..workload.generator import JobStreamConfig, JobStreamGenerator
from ..workload.jobs import Job, JobRecord
from ..workload.mix import WorkloadMix
from .accounting import (
    FaultAccounting,
    PowerTrace,
    SimulationResult,
    TraceBuilder,
    _RunMetrics,
    reconciles,
    trace_emissions_tco2e,
)
from .backfill import (
    BackfillScheduler,
    ExecutionEnvironment,
    ResolvedExecution,
    StaticEnvironment,
    validate_jobs,
)
from .engine import Event, EventKind, EventQueue
from .partition import NodePool
from .shapes import JobShape

__all__ = [
    "CarbonAwareEnvironment",
    "ElasticRecord",
    "MalleableSimulationResult",
    "MalleableSimulation",
    "MalleableScheduler",
    "RigidMalleableComparison",
    "compare_rigid_malleable",
    "comparison_trace",
]

PAPER_LOW_CI_G_PER_KWH = 30.0
PAPER_HIGH_CI_G_PER_KWH = 100.0


@dataclass
class CarbonAwareEnvironment:
    """Resolves execution with the frequency chosen against the current CI.

    Wraps a :class:`StaticEnvironment`: the policy picks the carbon-aware
    setting, and the inner environment's per-(app, setting) memo resolves
    that setting directly, with no per-placement copy of the job.
    """

    inner: StaticEnvironment
    low_g_per_kwh: float = PAPER_LOW_CI_G_PER_KWH
    high_g_per_kwh: float = PAPER_HIGH_CI_G_PER_KWH

    def resolve_at_ci(
        self, job: Job, time_s: float, ci_g_per_kwh: float
    ) -> ResolvedExecution:
        """Execution parameters for ``job`` starting now at the given CI."""
        setting = self.inner.policy.setting_for_ci(
            job,
            self.inner.cpu,
            self.inner.mode,
            ci_g_per_kwh,
            self.low_g_per_kwh,
            self.high_g_per_kwh,
        )
        return self.inner.resolve_setting(job, setting, time_s)

    def resolve(self, job: Job, time_s: float) -> ResolvedExecution:
        """Plain (carbon-blind) resolution — the rigid comparison path."""
        return self.inner.resolve(job, time_s)

    def resolve_setting(
        self, job: Job, setting: FrequencySetting, time_s: float
    ) -> ResolvedExecution:
        """Execution of ``job`` at ``setting``, whatever the policy would choose."""
        return self.inner.resolve_setting(job, setting, time_s)


@dataclass(frozen=True)
class ElasticRecord:
    """A placed job's realised schedule under malleable execution.

    Unlike :class:`~repro.workload.jobs.JobRecord`, the allocation varies
    over the job's life, so integrated ``node_seconds`` is recorded
    directly rather than derived from a fixed width.
    """

    job_id: int
    submit_time_s: float
    start_time_s: float
    end_time_s: float
    setting: str
    effective_ghz: float
    node_seconds: float
    energy_j: float
    truncated: bool
    interrupted: bool = False

    @property
    def runtime_s(self) -> float:
        """Realised wall time, seconds."""
        return self.end_time_s - self.start_time_s

    @property
    def wait_s(self) -> float:
        """Queue wait, seconds."""
        return self.start_time_s - self.submit_time_s


@dataclass(slots=True)
class _ElasticRun:
    """Book-keeping for one in-flight (possibly reshaped) job.

    ``end_s`` is the time of the run's pending JOB_END event (set at start
    and at every reallocation), so a reservation's shadow time is exact.
    """

    job_id: int
    alloc: int
    progress: float
    last_update_s: float
    generation: int
    start_s: float
    preferred_runtime_s: float
    node_power_w: float
    setting: FrequencySetting
    effective_ghz: float
    node_seconds: float
    priority: float
    end_s: float


def _run_to_list(run: _ElasticRun) -> list:
    return [
        run.job_id,
        run.alloc,
        run.progress,
        run.last_update_s,
        run.generation,
        run.start_s,
        run.preferred_runtime_s,
        run.node_power_w,
        run.setting.value,
        run.effective_ghz,
        run.node_seconds,
        run.priority,
        run.end_s,
    ]


def _run_from_list(raw: list) -> _ElasticRun:
    return _ElasticRun(
        job_id=int(raw[0]),
        alloc=int(raw[1]),
        progress=float(raw[2]),
        last_update_s=float(raw[3]),
        generation=int(raw[4]),
        start_s=float(raw[5]),
        preferred_runtime_s=float(raw[6]),
        node_power_w=float(raw[7]),
        setting=FrequencySetting(raw[8]),
        effective_ghz=float(raw[9]),
        node_seconds=float(raw[10]),
        priority=float(raw[11]),
        end_s=float(raw[12]),
    )


@dataclass(frozen=True)
class MalleableSimulationResult(_RunMetrics):
    """Everything a malleable run produced, plus reshape/shift counters."""

    n_nodes: int
    t_start_s: float
    t_end_s: float
    records: list[ElasticRecord]
    n_jobs: int
    n_completed: int
    n_running_at_end: int
    n_queued_at_end: int
    n_shifted: int
    n_shrinks: int
    n_grows: int
    trace: PowerTrace
    faults: FaultAccounting = field(default_factory=FaultAccounting)

    def reconciles(self, rel_tol: float = 1e-6) -> bool:
        """Conservation identities of the run (see :func:`accounting.reconciles`)."""
        return reconciles(self, self.n_queued_at_end, rel_tol)


class MalleableSimulation:
    """One checkpointable scheduling run over a fixed job set.

    The one event loop: submission, EASY backfill, node faults and
    checkpointing, under the carbon-aware malleable policy;
    :class:`RigidSimulation` swaps in the rigid EASY policy.

    The job list is *not* part of the checkpoint (it can be regenerated
    from its seed); everything else — queue, pool, waiting order, run
    states, records, trace, counters, RNG — round-trips through
    :meth:`state_dict` / :meth:`load_state_dict` bit-identically.
    """

    def __init__(
        self,
        scheduler: "MalleableScheduler",
        jobs: list[Job],
        t_end_s: float,
        t_start_s: float = 0.0,
    ) -> None:
        self._carbon = scheduler  # the carbon-aware policy's knobs and forecast
        self._environment: ExecutionEnvironment = scheduler.environment
        self._rng: np.random.Generator | None = np.random.default_rng(scheduler.seed)
        tick_s = scheduler.carbon_tick_interval_s
        self._setup(scheduler, jobs, t_end_s, t_start_s, elastic=True, tick_interval_s=tick_s)

    def _setup(
        self,
        scheduler: "MalleableScheduler | BackfillScheduler",
        jobs: list[Job],
        t_end_s: float,
        t_start_s: float,
        elastic: bool,
        tick_interval_s: float | None,
    ) -> None:
        """Initial state and events: ``elastic`` keeps jobs' elastic envelopes;
        ``tick_interval_s`` paces carbon ticks (None: none)."""
        if t_end_s <= t_start_s:
            raise SchedulingError("t_end_s must exceed t_start_s")
        self.scheduler = scheduler
        self.t_start_s = t_start_s
        self.t_end_s = t_end_s
        available = scheduler.n_nodes - scheduler.offline_nodes
        validate_jobs(jobs, available, scheduler.offline_nodes, elastic=elastic)
        self._jobs = {job.job_id: job for job in jobs}
        self._shapes: dict[int, JobShape] = {}
        widths: dict[int, JobShape] = {}
        for job in jobs:
            if elastic and job.is_elastic:
                shape = JobShape.from_job(job)
            else:  # held at its requested width: one shape per width
                shape = widths.get(job.n_nodes)
                if shape is None:
                    shape = widths[job.n_nodes] = replace(
                        JobShape.from_job(job),
                        min_nodes=job.n_nodes,
                        max_nodes=job.n_nodes,
                    )
            self._shapes[job.job_id] = shape

        self._pool = NodePool(available)
        self._queue = EventQueue()
        self._waiting: deque[int] = deque()
        self._running: dict[int, _ElasticRun] = {}
        # (end_s, job_id) of every running job, sorted: the reservation
        # walk order. Derived from ``_running``, so never checkpointed.
        self._by_end: list[tuple[float, int]] = []
        self._records: list = []
        self._trace = TraceBuilder(t_start_s)
        self._busy_power_w = 0.0
        self._done = False

        self.n_jobs = 0
        self._n_submits_remaining = 0
        self._n_pending_release = 0
        self._n_completed = 0
        self.n_shifted = 0
        self.n_shrinks = 0
        self.n_grows = 0

        # Fault-injection state. The fault RNG is a *separate* seeded
        # stream, never drawn when faults are off, so fault-free runs stay
        # byte-identical to the pre-fault scheduler.
        faults = scheduler.fault_config
        self._fault_rng = np.random.default_rng(faults.seed) if faults else None
        self._fault_gen = 0
        self._faults = FaultAccounting()
        self._last_drain_change_s = t_start_s
        self._attempts: dict[int, int] = {}
        self._retained: dict[int, float] = {}
        self._next_gen: dict[int, int] = {}

        for job in sorted(jobs, key=lambda j: (j.submit_time_s, j.job_id)):
            if job.submit_time_s < t_end_s:
                self._queue.push(
                    Event(job.submit_time_s, EventKind.JOB_SUBMIT, job.job_id)
                )
                self.n_jobs += 1
        self._n_submits_remaining = self.n_jobs
        self._queue.push(Event(t_end_s, EventKind.SIM_END))
        if tick_interval_s is not None and t_start_s + tick_interval_s < t_end_s:
            self._queue.push(
                Event(t_start_s + tick_interval_s, EventKind.CARBON_TICK)
            )
        if faults is not None:
            self._schedule_next_failure(t_start_s)
        self._record_trace(t_start_s)

    # -- event handling ------------------------------------------------------

    def _record_trace(self, time_s: float) -> None:
        self._trace.append(time_s, self._busy_power_w, self._pool.busy)

    def _advance(self, run: _ElasticRun, now_s: float) -> None:
        """Bring a run's progress and node-second account up to ``now_s``."""
        dt_s = now_s - run.last_update_s
        if dt_s > 0:
            shape = self._shapes[run.job_id]
            rate = shape.rate_per_s(run.alloc, run.preferred_runtime_s)
            run.progress = min(1.0, run.progress + dt_s * rate)
            run.node_seconds += dt_s * run.alloc
            run.last_update_s = now_s

    def _release_run(self, run: _ElasticRun, now_s: float) -> None:
        """Take an ended or killed run off the machine."""
        del self._running[run.job_id]
        del self._by_end[bisect_left(self._by_end, (run.end_s, run.job_id))]
        self._pool.release(run.alloc)
        self._busy_power_w -= run.node_power_w * run.alloc
        if abs(self._busy_power_w) < 1e-6:
            self._busy_power_w = 0.0
        self._record_trace(now_s)

    # -- policy: records and restarts ----------------------------------------

    def _add_record(
        self,
        run: _ElasticRun,
        end_s: float,
        truncated: bool = False,
        interrupted: bool = False,
    ) -> None:
        self._advance(run, end_s)
        self._records.append(
            ElasticRecord(
                job_id=run.job_id,
                submit_time_s=self._jobs[run.job_id].submit_time_s,
                start_time_s=run.start_s,
                end_time_s=end_s,
                setting=run.setting.value,
                effective_ghz=run.effective_ghz,
                node_seconds=run.node_seconds,
                energy_j=run.node_power_w * run.node_seconds,
                truncated=truncated,
                interrupted=interrupted,
            )
        )

    @staticmethod
    def _record_state(record: Any) -> list:
        return [
            record.job_id,
            record.submit_time_s,
            record.start_time_s,
            record.end_time_s,
            record.setting,
            record.effective_ghz,
            record.node_seconds,
            record.energy_j,
            record.truncated,
            record.interrupted,
        ]

    def _load_record(self, raw: list) -> Any:
        return ElasticRecord(
            job_id=int(raw[0]),
            submit_time_s=float(raw[1]),
            start_time_s=float(raw[2]),
            end_time_s=float(raw[3]),
            setting=str(raw[4]),
            effective_ghz=float(raw[5]),
            node_seconds=float(raw[6]),
            energy_j=float(raw[7]),
            truncated=bool(raw[8]),
            interrupted=bool(raw[9]) if len(raw) > 9 else False,
        )

    def _restart_progress(self, run: _ElasticRun) -> float:
        """Progress a killed run's next attempt resumes from: its last whole
        checkpoint, less the recovery overhead (0.0 without checkpoints)."""
        faults = self.scheduler.fault_config
        assert faults is not None
        if faults.checkpoint_interval_s <= 0:
            return 0.0
        ckpt_frac = faults.checkpoint_interval_s / run.preferred_runtime_s
        overhead_frac = faults.checkpoint_overhead_s / run.preferred_runtime_s
        kept = math.floor(run.progress / ckpt_frac) * ckpt_frac - overhead_frac
        return min(kept, run.progress) if kept > 0.0 else 0.0

    # -- fault injection -----------------------------------------------------

    def _integrate_drain(self, now_s: float) -> None:
        """Accumulate drained node-seconds up to ``now_s`` (call before changes)."""
        self._faults.drained_node_seconds += self._pool.drained * (
            now_s - self._last_drain_change_s
        )
        self._last_drain_change_s = now_s

    def _schedule_next_failure(self, now_s: float) -> None:
        """Resample the fleet's next failure (exponentials are memoryless).

        Bumping the generation invalidates any pending NODE_FAIL event —
        the fleet's failure rate changed, so the old draw is stale.
        """
        faults = self.scheduler.fault_config
        assert faults is not None and self._fault_rng is not None
        self._fault_gen += 1
        up = self._pool.up_nodes
        if up <= 0:
            return
        t = now_s + float(self._fault_rng.exponential(faults.mtbf_s / up))
        if t < self.t_end_s:
            self._queue.push(Event(t, EventKind.NODE_FAIL, self._fault_gen))

    def _kill_run(self, run: _ElasticRun, now_s: float) -> None:
        """A node failure hit this job: charge the burn, requeue or drop."""
        faults = self.scheduler.fault_config
        assert faults is not None and self._fault_rng is not None
        self._advance(run, now_s)
        self._add_record(run, now_s, interrupted=True)
        # The whole attempt's burn is charged as wasted: the restart's own
        # occupancy is accounted by its own record, and checkpoint retention
        # shows up as *less* re-execution, not as reclaimed burn.
        self._faults.wasted_node_seconds += run.node_seconds
        self._faults.wasted_energy_j += run.node_power_w * run.node_seconds
        self._release_run(run, now_s)
        # End events of this attempt (generations <= current) must never
        # finish a requeued attempt, so the next attempt starts above them.
        self._next_gen[run.job_id] = run.generation + 1
        kept = self._restart_progress(run)
        if kept > 0.0:
            self._retained[run.job_id] = kept
        self._faults.n_job_kills += 1
        attempt = self._attempts.get(run.job_id, 0) + 1
        self._attempts[run.job_id] = attempt
        if attempt > faults.max_retries:
            self._faults.n_failed_terminal += 1
            self._retained.pop(run.job_id, None)
            return
        self._faults.n_retries += 1
        delay = faults.backoff_s(attempt, float(self._fault_rng.random()))
        self._queue.push(Event(now_s + delay, EventKind.JOB_RELEASE, run.job_id))
        self._n_pending_release += 1

    def _on_node_fail(self, generation: int, now_s: float) -> None:
        if generation != self._fault_gen:
            return  # stale: the fleet's rates changed since this was drawn
        faults = self.scheduler.fault_config
        assert faults is not None and self._fault_rng is not None
        up = self._pool.up_nodes
        if up <= 0:
            return
        self._faults.n_failures += 1
        # One uniform draw picks the failed node *and* the victim: a
        # position in [0, up) lands either inside the busy prefix
        # (cumulative allocations in job-id order) or in the idle tail.
        position = float(self._fault_rng.random()) * up
        if position < self._pool.busy:
            cumulative = 0
            for run in sorted(self._running.values(), key=lambda r: r.job_id):
                cumulative += run.alloc
                if position < cumulative:
                    self._kill_run(run, now_s)
                    break
        self._integrate_drain(now_s)
        self._pool.drain(1)
        repair_t = now_s + float(self._fault_rng.exponential(faults.mttr_s))
        if repair_t < self.t_end_s:
            self._queue.push(Event(repair_t, EventKind.NODE_REPAIR))
        self._schedule_next_failure(now_s)

    def _on_node_repair(self, now_s: float) -> None:
        self._integrate_drain(now_s)
        self._pool.restore(1)
        self._schedule_next_failure(now_s)

    # -- policy: carbon-aware placement --------------------------------------

    def _carbon_state(self, now_s: float) -> tuple[float | None, bool]:
        """``(ci, degraded)`` at ``now_s``: the CI the scheduler plans against,
        or None (carbon-blind, rigid intent) while the feed is ``degraded`` —
        stale past ``stale_after_s``."""
        sched = self._carbon
        feed = sched.feed
        if feed is None:
            return sched.forecast.ci_at(now_s), False
        if feed.is_stale(now_s, sched.stale_after_s):
            return None, True
        return feed.ci_at(now_s), False

    def _choose_alloc(self, shape: JobShape, ci_g_per_kwh: float | None) -> int:
        """Target allocation under the current carbon regime.

        High-carbon periods get the narrowest legal shape; otherwise — and
        always when placement is carbon-blind — the preferred one, capped at
        the in-service pool so an oversize preference still admits
        (validation guarantees the minimum fits a healthy machine).
        """
        if shape.min_nodes == shape.max_nodes:
            return shape.min_nodes  # a rigid shape has one legal allocation
        if ci_g_per_kwh is not None and ci_g_per_kwh > self._carbon.high_g_per_kwh:
            target = shape.min_nodes
        else:
            target = shape.preferred_nodes
        return max(shape.min_nodes, min(target, self._pool.up_nodes))

    def _resolve(
        self, job: Job, now_s: float, ci_g_per_kwh: float | None
    ) -> ResolvedExecution:
        """Execution of ``job`` starting now, carbon-aware unless ``ci`` is None."""
        if ci_g_per_kwh is None:
            return self._environment.resolve(job, now_s)
        return self._carbon.environment.resolve_at_ci(job, now_s, ci_g_per_kwh)

    def _start_job(
        self,
        job: Job,
        alloc: int,
        now_s: float,
        resolved: ResolvedExecution,
        degraded: bool = False,
    ) -> None:
        if degraded:
            self._faults.n_degraded_starts += 1
        shape = self._shapes[job.job_id]
        self._pool.allocate(alloc)
        self._busy_power_w += resolved.node_power_w * alloc
        progress0 = self._retained.pop(job.job_id, 0.0)
        generation0 = self._next_gen.get(job.job_id, 0)
        end_s = now_s + resolved.runtime_s * shape.stretch(alloc) * (1.0 - progress0)
        run = _ElasticRun(
            job.job_id,
            alloc,
            progress0,
            now_s,  # last_update_s
            generation0,
            now_s,  # start_s
            resolved.runtime_s,
            resolved.node_power_w,
            resolved.setting,
            resolved.effective_ghz,
            0.0,  # node_seconds
            float(self._rng.random()) if self._rng is not None else 0.0,
            end_s,
        )
        self._running[job.job_id] = run
        insort(self._by_end, (end_s, job.job_id))
        self._record_trace(now_s)
        if end_s <= self.t_end_s:
            self._queue.push(
                Event(end_s, EventKind.JOB_END, (job.job_id, generation0))
            )

    def _reallocate(self, run: _ElasticRun, new_alloc: int, now_s: float) -> None:
        self._advance(run, now_s)
        delta = new_alloc - run.alloc
        if delta > 0:
            self._pool.allocate(delta)
            self.n_grows += 1
        else:
            self._pool.release(-delta)
            self.n_shrinks += 1
        self._busy_power_w += run.node_power_w * delta
        if abs(self._busy_power_w) < 1e-6:
            self._busy_power_w = 0.0
        del self._by_end[bisect_left(self._by_end, (run.end_s, run.job_id))]
        run.alloc = new_alloc
        run.generation += 1
        self._record_trace(now_s)
        rate = self._shapes[run.job_id].rate_per_s(run.alloc, run.preferred_runtime_s)
        run.end_s = run.last_update_s + max(0.0, 1.0 - run.progress) / rate
        insort(self._by_end, (run.end_s, run.job_id))
        if run.end_s <= self.t_end_s:
            self._queue.push(
                Event(run.end_s, EventKind.JOB_END, (run.job_id, run.generation))
            )

    def _on_submit(self, job: Job, now_s: float) -> None:
        self._n_submits_remaining -= 1
        latest_s = min(now_s + job.shift_slack_s, self.t_end_s)
        if (
            latest_s > now_s  # the job declares slack inside the horizon
            and self._carbon_state(now_s)[0] is not None
        ):
            index = self._carbon.forecast
            duration_s = job.reference_runtime_s
            window = index.greenest_window(duration_s, now_s, latest_s)
            now_mean = index.window_mean(now_s, now_s + duration_s)
            if window.t_start_s > now_s and window.mean_ci_g_per_kwh < now_mean:
                self._queue.push(
                    Event(window.t_start_s, EventKind.JOB_RELEASE, job.job_id)
                )
                self._n_pending_release += 1
                self.n_shifted += 1
                return
        self._waiting.append(job.job_id)

    def _on_end(self, payload: tuple, now_s: float) -> None:
        job_id, generation = payload
        run = self._running.get(job_id)
        if run is None or run.generation != generation:
            return  # stale end event from before a reallocation or a kill
        self._add_record(run, now_s)
        self._release_run(run, now_s)
        self._n_completed += 1

    def _reshape_order(self) -> list[_ElasticRun]:
        """Deterministic reshape ordering: oldest first, seeded tie-break."""
        return sorted(
            self._running.values(),
            key=lambda r: (r.start_s, r.priority, r.job_id),
        )

    def _on_tick(self, now_s: float) -> None:
        sched = self._carbon
        ci, degraded = self._carbon_state(now_s)
        if degraded:
            self._faults.n_degraded_ticks += 1
        if ci is not None and ci > sched.high_g_per_kwh:
            for run in self._reshape_order():
                shape = self._shapes[run.job_id]
                if shape.is_elastic and run.alloc > shape.min_nodes:
                    self._reallocate(run, shape.min_nodes, now_s)
        else:
            # Degraded ticks fall back to rigid intent: grow every elastic
            # job back toward its preferred shape (also the clean-recovery
            # path once the feed returns).
            for run in self._reshape_order():
                shape = self._shapes[run.job_id]
                if not shape.is_elastic or run.alloc >= shape.preferred_nodes:
                    continue
                target = min(shape.preferred_nodes, run.alloc + self._pool.free)
                if target > run.alloc:
                    self._reallocate(run, target, now_s)
        next_tick_s = now_s + sched.carbon_tick_interval_s
        work_left = (
            self._running
            or self._waiting
            or self._n_pending_release > 0
            or self._n_submits_remaining > 0
        )
        if work_left and next_tick_s < self.t_end_s:
            self._queue.push(Event(next_tick_s, EventKind.CARBON_TICK))

    # -- EASY backfill -------------------------------------------------------

    def _reservation(self, need: int, now_s: float) -> tuple[float, int]:
        """EASY reservation for a queue head needing ``need`` nodes.

        Returns ``(shadow_s, spare)``: the pending end of the run, in
        (end, job id) order, that frees enough nodes, and the nodes beyond
        ``need`` free then (backfill on those cannot delay the head).
        """
        if self._pool.fits(need):
            return now_s, self._pool.free - need
        available = self._pool.free
        for end_s, job_id in self._by_end:
            available += self._running[job_id].alloc
            if available >= need:
                return end_s, available - need
        if self.scheduler.fault_config is not None:
            # Drained capacity can temporarily block a head that passed
            # admission; let backfill run freely until a repair lands.
            return float("inf"), 0
        raise SchedulingError(
            f"job needing {need} nodes can never be scheduled on "
            f"{self._pool.n_nodes} nodes"
        )

    def _schedule_pass(self, now_s: float) -> None:
        waiting = self._waiting
        if not waiting:
            return
        ci, degraded = self._carbon_state(now_s)
        pool = self._pool
        shapes = self._shapes
        # FCFS phase with moldable squeeze: the head starts at its regime
        # target, narrowed toward its minimum shape if that is what fits.
        while waiting:
            shape = shapes[waiting[0]]
            free = pool.free
            if shape.min_nodes > free:
                break
            alloc = min(self._choose_alloc(shape, ci), free)
            job = self._jobs[waiting.popleft()]
            self._start_job(job, alloc, now_s, self._resolve(job, now_s, ci), degraded)
        if not waiting:
            return
        # EASY backfill phase: reserve for the head, fill around it.
        head_need = self._choose_alloc(shapes[waiting[0]], ci)
        shadow_s, spare = self._reservation(head_need, now_s)
        started: set[int] = set()
        for job_id in islice(waiting, 1, 1 + self.scheduler.backfill_depth):
            shape = shapes[job_id]
            free = pool.free
            if shape.min_nodes > free:
                continue
            alloc = min(self._choose_alloc(shape, ci), free)
            job = self._jobs[job_id]
            resolved = self._resolve(job, now_s, ci)
            runtime_s = resolved.runtime_s * shape.stretch(alloc)
            ends_before_shadow = now_s + runtime_s <= shadow_s
            within_spare = alloc <= spare
            if ends_before_shadow or within_spare:
                self._start_job(job, alloc, now_s, resolved, degraded)
                if within_spare and not ends_before_shadow:
                    spare -= alloc
                started.add(job_id)
        if started:
            self._waiting = deque(j for j in waiting if j not in started)

    def _finalize(self) -> None:
        for run in sorted(self._running.values(), key=lambda r: r.job_id):
            self._add_record(run, self.t_end_s, truncated=True)
        self._integrate_drain(self.t_end_s)
        self._done = True

    # -- driving -------------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether the simulation has reached its end event."""
        return self._done

    def step(self) -> bool:
        """Process one event; returns False once the simulation has ended."""
        if self._done:
            return False
        event = self._queue.pop()
        now_s = event.time_s
        if event.kind is EventKind.SIM_END:
            self._finalize()
            return False
        if event.kind is EventKind.JOB_SUBMIT:
            self._on_submit(self._jobs[event.payload], now_s)
        elif event.kind is EventKind.JOB_RELEASE:
            self._n_pending_release -= 1
            self._waiting.append(event.payload)
        elif event.kind is EventKind.JOB_END:
            self._on_end(event.payload, now_s)
        elif event.kind is EventKind.CARBON_TICK:
            self._on_tick(now_s)
        elif event.kind is EventKind.NODE_FAIL:
            self._on_node_fail(event.payload, now_s)
        elif event.kind is EventKind.NODE_REPAIR:
            self._on_node_repair(now_s)
        self._schedule_pass(now_s)
        return True

    def run_to_completion(self) -> Any:
        """Drive the event loop to the end and assemble the :meth:`result`."""
        while self.step():
            pass
        return self.result()

    def _result_fields(self) -> dict[str, Any]:
        """The fields both result types share (only valid once ``done``)."""
        if not self._done:
            raise SchedulingError("simulation has not finished")
        return dict(
            n_nodes=self.scheduler.n_nodes,
            t_start_s=self.t_start_s,
            t_end_s=self.t_end_s,
            records=list(self._records),
            trace=self._trace.build(self.t_end_s),
            n_jobs=self.n_jobs,
            n_completed=self._n_completed,
            n_running_at_end=len(self._running),
            faults=replace(self._faults),
        )

    def result(self) -> MalleableSimulationResult:
        """The finished run's result (only valid once ``done``)."""
        return MalleableSimulationResult(
            **self._result_fields(),
            n_queued_at_end=len(self._waiting) + self._n_pending_release,
            n_shifted=self.n_shifted,
            n_shrinks=self.n_shrinks,
            n_grows=self.n_grows,
        )

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Full JSON-able snapshot (jobs excluded — re-supply them on load)."""
        running = [
            _run_to_list(self._running[job_id])
            for job_id in sorted(self._running)
        ]
        return {
            "queue": self._queue.state_dict(),
            "pool": self._pool.state_dict(),
            "trace": self._trace.state_dict(),
            "waiting": list(self._waiting),
            "running": running,
            "records": [self._record_state(r) for r in self._records],
            "rng": self._rng.bit_generator.state if self._rng is not None else None,
            "busy_power_w": self._busy_power_w,
            "done": self._done,
            "n_jobs": self.n_jobs,
            "n_submits_remaining": self._n_submits_remaining,
            "n_pending_release": self._n_pending_release,
            "n_completed": self._n_completed,
            "n_shifted": self.n_shifted,
            "n_shrinks": self.n_shrinks,
            "n_grows": self.n_grows,
            # Fault-injection state (inert all-defaults when faults are off).
            # Integer-keyed maps are stored as sorted pair lists: JSON would
            # silently stringify dict keys, breaking resume determinism.
            "fault_rng": (
                self._fault_rng.bit_generator.state
                if self._fault_rng is not None
                else None
            ),
            "fault_gen": self._fault_gen,
            "faults": self._faults.state_dict(),
            "last_drain_change_s": self._last_drain_change_s,
            "attempts": sorted(self._attempts.items()),
            "retained": sorted(self._retained.items()),
            "next_gen": sorted(self._next_gen.items()),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot over the same job set."""
        self._queue.load_state_dict(state["queue"])
        self._pool.load_state_dict(state["pool"])
        self._trace.load_state_dict(state["trace"])
        self._waiting = deque(int(j) for j in state["waiting"])
        self._running = {
            run.job_id: run
            for run in (_run_from_list(raw) for raw in state["running"])
        }
        self._by_end = sorted((run.end_s, run.job_id) for run in self._running.values())
        self._records = [self._load_record(raw) for raw in state["records"]]
        if self._rng is not None:
            self._rng.bit_generator.state = state["rng"]
        self._busy_power_w = float(state["busy_power_w"])
        self._done = bool(state["done"])
        self.n_jobs = int(state["n_jobs"])
        self._n_submits_remaining = int(state["n_submits_remaining"])
        self._n_pending_release = int(state["n_pending_release"])
        self._n_completed = int(state["n_completed"])
        self.n_shifted = int(state["n_shifted"])
        self.n_shrinks = int(state["n_shrinks"])
        self.n_grows = int(state["n_grows"])
        fault_rng_state = state.get("fault_rng")
        if fault_rng_state is not None:
            if self._fault_rng is None:
                raise SchedulingError(
                    "checkpoint carries fault-RNG state but this scheduler "
                    "has no fault_config"
                )
            self._fault_rng.bit_generator.state = fault_rng_state
        self._fault_gen = int(state.get("fault_gen", 0))
        self._faults.load_state_dict(state["faults"])
        self._last_drain_change_s = float(
            state.get("last_drain_change_s", self.t_start_s)
        )
        self._attempts = {int(k): int(v) for k, v in state.get("attempts", [])}
        self._retained = {int(k): float(v) for k, v in state.get("retained", [])}
        self._next_gen = {int(k): int(v) for k, v in state.get("next_gen", [])}


class RigidSimulation(MalleableSimulation):
    """Rigid EASY backfill as a policy of the shared event loop.

    Every job runs at its requested ``n_nodes`` under the caller's (possibly
    time-varying) environment; elastic shapes and start slack are ignored,
    there are no carbon ticks, and killed attempts restart from zero.
    Records are :class:`~repro.workload.jobs.JobRecord` in a
    :class:`SimulationResult`.
    """

    def __init__(
        self,
        scheduler: BackfillScheduler,
        jobs: list[Job],
        t_end_s: float,
        environment: ExecutionEnvironment,
        t_start_s: float = 0.0,
    ) -> None:
        self._environment = environment
        self._rng = None  # rigid runs never reshape, so draw no tie-breaks
        self._setup(scheduler, jobs, t_end_s, t_start_s, elastic=False, tick_interval_s=None)

    def _carbon_state(self, now_s: float) -> tuple[float | None, bool]:
        """No carbon signal: placement is always carbon-blind, never degraded."""
        return None, False

    def _restart_progress(self, run: _ElasticRun) -> float:
        """Rigid jobs keep no checkpoints: every attempt starts from zero."""
        return 0.0

    def _add_record(
        self,
        run: _ElasticRun,
        end_s: float,
        truncated: bool = False,
        interrupted: bool = False,
    ) -> None:
        if end_s > run.start_s:  # an attempt killed as it started left no record
            self._records.append(
                JobRecord(
                    job=self._jobs[run.job_id],
                    start_time_s=run.start_s,
                    end_time_s=end_s,
                    setting=run.setting,
                    effective_ghz=run.effective_ghz,
                    node_power_w=run.node_power_w,
                    interrupted=interrupted,
                )
            )

    @staticmethod
    def _record_state(record: JobRecord) -> list:
        return [
            record.job.job_id,
            record.start_time_s,
            record.end_time_s,
            record.setting.value,
            record.effective_ghz,
            record.node_power_w,
            record.interrupted,
        ]

    def _load_record(self, raw: list) -> JobRecord:
        return JobRecord(
            job=self._jobs[int(raw[0])],
            start_time_s=float(raw[1]),
            end_time_s=float(raw[2]),
            setting=FrequencySetting(raw[3]),
            effective_ghz=float(raw[4]),
            node_power_w=float(raw[5]),
            interrupted=bool(raw[6]),
        )

    def result(self) -> SimulationResult:  # type: ignore[override]
        """The finished run's result (only valid once ``done``)."""
        return SimulationResult(
            **self._result_fields(),
            n_unstarted=len(self._waiting) + self._n_pending_release,
        )


class MalleableScheduler:
    """Carbon-aware malleable scheduler over a carbon-intensity signal.

    ``ci`` is the forecast the scheduler plans against — in closed-loop
    studies the realised series (a perfect forecast). To study forecast
    error, pass any other series and score emissions against the realised
    series separately.
    """

    def __init__(
        self,
        n_nodes: int,
        environment: StaticEnvironment | CarbonAwareEnvironment,
        ci: TimeSeries,
        backfill_depth: int = 100,
        offline_nodes: int = 0,
        carbon_tick_interval_s: float = 1800.0,
        low_g_per_kwh: float = PAPER_LOW_CI_G_PER_KWH,
        high_g_per_kwh: float = PAPER_HIGH_CI_G_PER_KWH,
        seed: int = 0,
        fault_config: FaultConfig | None = None,
        feed: ForecastFeed | None = None,
        stale_after_s: float = 2.0 * 3600.0,
    ) -> None:
        if backfill_depth < 0:
            raise SchedulingError("backfill_depth must be non-negative")
        if not stale_after_s > 0:
            raise SchedulingError("stale_after_s must be positive")
        if not 0 <= offline_nodes < n_nodes:
            raise SchedulingError(
                f"offline_nodes must be in [0, {n_nodes}), got {offline_nodes}"
            )
        ensure_positive(carbon_tick_interval_s, "carbon_tick_interval_s")
        if not low_g_per_kwh < high_g_per_kwh:
            raise SchedulingError(
                "low_g_per_kwh must be below high_g_per_kwh "
                f"(got {low_g_per_kwh} >= {high_g_per_kwh})"
            )
        self.n_nodes = n_nodes
        if isinstance(environment, CarbonAwareEnvironment):
            environment = replace(
                environment,
                low_g_per_kwh=low_g_per_kwh,
                high_g_per_kwh=high_g_per_kwh,
            )
        else:
            environment = CarbonAwareEnvironment(
                environment, low_g_per_kwh, high_g_per_kwh
            )
        self.environment = environment
        self.forecast = ForecastIndex(ci)
        self.backfill_depth = backfill_depth
        self.offline_nodes = offline_nodes
        self.carbon_tick_interval_s = carbon_tick_interval_s
        self.low_g_per_kwh = low_g_per_kwh
        self.high_g_per_kwh = high_g_per_kwh
        self.seed = seed
        self.fault_config = fault_config
        self.feed = feed
        self.stale_after_s = stale_after_s

    def simulation(
        self, jobs: list[Job], t_end_s: float, t_start_s: float = 0.0
    ) -> MalleableSimulation:
        """A stepping/checkpointable simulation over ``jobs``."""
        return MalleableSimulation(self, jobs, t_end_s, t_start_s)

    def run(
        self, jobs: list[Job], t_end_s: float, t_start_s: float = 0.0
    ) -> MalleableSimulationResult:
        """Simulate ``jobs`` to completion (convenience one-shot)."""
        return self.simulation(jobs, t_end_s, t_start_s).run_to_completion()


@dataclass(frozen=True)
class RigidMalleableComparison:
    """Side-by-side outcome of rigid EASY backfill vs malleable scheduling."""

    rigid: SimulationResult
    malleable: MalleableSimulationResult
    rigid_tco2e: float
    malleable_tco2e: float

    @property
    def emissions_saving_tco2e(self) -> float:
        """Scope-2 emissions avoided by going malleable (positive = better)."""
        return self.rigid_tco2e - self.malleable_tco2e

    @property
    def energy_saving_kwh(self) -> float:
        """Energy avoided by going malleable (positive = better)."""
        return self.rigid.total_energy_kwh() - self.malleable.total_energy_kwh()

    @property
    def stretch_penalty(self) -> float:
        """Mean bounded-slowdown increase paid for the carbon savings."""
        return (
            self.malleable.mean_bounded_stretch()
            - self.rigid.mean_bounded_stretch()
        )


def compare_rigid_malleable(
    jobs: list[Job],
    t_end_s: float,
    environment: StaticEnvironment,
    ci: TimeSeries,
    t_start_s: float = 0.0,
    n_nodes: int | None = None,
    backfill_depth: int = 100,
    offline_nodes: int = 0,
    carbon_tick_interval_s: float = 1800.0,
    low_g_per_kwh: float = PAPER_LOW_CI_G_PER_KWH,
    high_g_per_kwh: float = PAPER_HIGH_CI_G_PER_KWH,
    seed: int = 0,
    fault_config: FaultConfig | None = None,
    feed: ForecastFeed | None = None,
    stale_after_s: float = 2.0 * 3600.0,
) -> RigidMalleableComparison:
    """Run the same trace rigidly and malleably; score both against ``ci``.

    ``n_nodes`` defaults to the smallest power of two covering the widest
    job (plus offline drain), which keeps ad-hoc comparisons runnable
    without a facility config.
    """
    if n_nodes is None:
        widest = max(job.n_nodes for job in jobs)
        n_nodes = 1
        while n_nodes < widest + offline_nodes + 1:
            n_nodes *= 2
    rigid = BackfillScheduler(
        n_nodes, backfill_depth, offline_nodes, fault_config=fault_config
    ).run(jobs, t_end_s, environment, t_start_s)
    malleable = MalleableScheduler(
        n_nodes,
        environment,
        ci,
        backfill_depth=backfill_depth,
        offline_nodes=offline_nodes,
        carbon_tick_interval_s=carbon_tick_interval_s,
        low_g_per_kwh=low_g_per_kwh,
        high_g_per_kwh=high_g_per_kwh,
        seed=seed,
        fault_config=fault_config,
        feed=feed,
        stale_after_s=stale_after_s,
    ).run(jobs, t_end_s, t_start_s)
    return RigidMalleableComparison(
        rigid=rigid,
        malleable=malleable,
        rigid_tco2e=trace_emissions_tco2e(rigid.trace, ci),
        malleable_tco2e=trace_emissions_tco2e(malleable.trace, ci),
    )


def comparison_trace(
    mix: WorkloadMix,
    *,
    days: float,
    nodes: int,
    seed: int,
    scenario: str,
    offered_load: float,
    malleable_fraction: float,
    slack_hours: float,
) -> tuple[list[Job], TimeSeries]:
    """The seeded jobs and grid carbon intensity that ``repro sched`` and the
    service's ``sched_compare`` hand to :func:`compare_rigid_malleable`.

    One generator seeded with ``seed`` draws the job stream (4 h mean
    runtime, jobs at most a quarter of ``nodes`` wide, arrivals over the
    first 90 % of ``days``) and then the ``scenario``'s half-hourly CI
    series, which runs one day past the end of the trace.
    """
    t_end_s = days * SECONDS_PER_DAY
    rng = np.random.default_rng(seed)
    config = JobStreamConfig(
        n_facility_nodes=nodes,
        offered_load=offered_load,
        mean_runtime_s=4.0 * 3600.0,
        max_job_nodes=max(1, nodes // 4),
        malleable_fraction=malleable_fraction,
        shift_slack_mean_s=slack_hours * 3600.0,
    )
    jobs = JobStreamGenerator(mix, config, rng).generate_until(t_end_s * 0.9)
    ci = CarbonIntensityModel.from_scenario(scenario).series(
        0.0, t_end_s + SECONDS_PER_DAY, 1800.0, rng
    )
    return jobs, ci
