"""Simulation accounting: job records, power traces, utilisation metrics.

A :class:`SimulationResult` is the scheduler's complete output. The power
trace is piecewise-constant — values hold from one event to the next — which
is exactly the form the telemetry layer samples from and the analysis layer
integrates exactly (no quadrature error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from typing import TYPE_CHECKING

from ..errors import SchedulingError
from ..ledger import Ledger
from ..units import JOULES_PER_KWH, SECONDS_PER_HOUR, emissions_g, g_to_tonnes
from ..workload.jobs import JobRecord

if TYPE_CHECKING:  # malleable imports this module — keep type-only
    from ..telemetry.series import TimeSeries
    from .malleable import ElasticRecord, MalleableSimulationResult

__all__ = [
    "PowerTrace",
    "TraceBuilder",
    "FaultAccounting",
    "SimulationResult",
    "trace_emissions_tco2e",
    "bounded_stretches",
    "reconciles",
]


@dataclass(frozen=True)
class PowerTrace:
    """Piecewise-constant facility state over the simulated span.

    ``busy_power_w[i]`` and ``busy_nodes[i]`` hold on
    ``[times_s[i], times_s[i+1])``; the final value holds to ``t_end_s``.
    """

    times_s: np.ndarray
    busy_power_w: np.ndarray
    busy_nodes: np.ndarray
    t_end_s: float

    def __post_init__(self) -> None:
        if not (len(self.times_s) == len(self.busy_power_w) == len(self.busy_nodes)):
            raise SchedulingError("trace arrays must have equal length")
        if len(self.times_s) == 0:
            raise SchedulingError("trace must contain at least one point")
        if np.any(np.diff(self.times_s) < 0):
            raise SchedulingError("trace times must be non-decreasing")
        if self.t_end_s < self.times_s[-1]:
            raise SchedulingError("t_end_s precedes the last trace point")

    @property
    def t_start_s(self) -> float:
        """First instant of the trace."""
        return float(self.times_s[0])

    def _segment_durations(self) -> np.ndarray:
        edges = np.append(self.times_s, self.t_end_s)
        return np.diff(edges)

    def time_weighted_mean(self, values: np.ndarray) -> float:
        """Exact time-weighted mean of a piecewise-constant signal."""
        durations = self._segment_durations()
        total = durations.sum()
        if total <= 0:
            return float(values[-1])
        return float(np.dot(values, durations) / total)

    def mean_busy_power_w(self) -> float:
        """Mean power of busy nodes over the span, watts."""
        return self.time_weighted_mean(self.busy_power_w)

    def mean_busy_nodes(self) -> float:
        """Mean number of busy nodes over the span."""
        return self.time_weighted_mean(self.busy_nodes)

    def energy_j(self) -> float:
        """Exact busy-node energy over the span, joules."""
        return float(np.dot(self.busy_power_w, self._segment_durations()))

    def node_seconds(self) -> float:
        """Exact busy node-seconds integrated over the span."""
        return float(np.dot(self.busy_nodes, self._segment_durations()))

    def sample(self, sample_times_s: np.ndarray) -> np.ndarray:
        """Sample busy power at arbitrary times (previous-value hold).

        Vectorised with ``np.searchsorted``; times before the trace start
        return the first value.
        """
        t = np.asarray(sample_times_s, dtype=float)
        idx = np.searchsorted(self.times_s, t, side="right") - 1
        idx = np.clip(idx, 0, len(self.times_s) - 1)
        return self.busy_power_w[idx]

    def sample_busy_nodes(self, sample_times_s: np.ndarray) -> np.ndarray:
        """Sample the busy-node count at arbitrary times (previous-value hold)."""
        t = np.asarray(sample_times_s, dtype=float)
        idx = np.searchsorted(self.times_s, t, side="right") - 1
        idx = np.clip(idx, 0, len(self.times_s) - 1)
        return self.busy_nodes[idx]


@dataclass
class TraceBuilder:
    """Accumulates trace points during simulation, then freezes them."""

    t_start_s: float
    _times: list[float] = field(default_factory=list)
    _power: list[float] = field(default_factory=list)
    _nodes: list[int] = field(default_factory=list)

    def append(self, time_s: float, busy_power_w: float, busy_nodes: int) -> None:
        """Record the state holding from ``time_s`` onwards."""
        if self._times and time_s == self._times[-1]:
            # Same-instant update (several starts in one scheduling pass):
            # keep only the final state for that instant.
            self._power[-1] = busy_power_w
            self._nodes[-1] = busy_nodes
            return
        self._times.append(time_s)
        self._power.append(busy_power_w)
        self._nodes.append(busy_nodes)

    def build(self, t_end_s: float) -> PowerTrace:
        """Freeze into an immutable :class:`PowerTrace`."""
        if not self._times:
            self.append(self.t_start_s, 0.0, 0)
        return PowerTrace(
            times_s=np.asarray(self._times, dtype=float),
            busy_power_w=np.asarray(self._power, dtype=float),
            busy_nodes=np.asarray(self._nodes, dtype=float),
            t_end_s=t_end_s,
        )

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable snapshot of the accumulated trace points."""
        return {
            "t_start_s": self.t_start_s,
            "times": list(self._times),
            "power": list(self._power),
            "nodes": list(self._nodes),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore accumulated trace points from :meth:`state_dict` output."""
        self.t_start_s = float(state["t_start_s"])
        self._times = [float(t) for t in state["times"]]
        self._power = [float(p) for p in state["power"]]
        self._nodes = [int(n) for n in state["nodes"]]


@dataclass
class FaultAccounting(Ledger):
    """Fault-injection outcome counters and wasted-capacity integrals.

    All-zero by default, so fault-free results carry a trivially consistent
    account. ``wasted_node_seconds``/``wasted_energy_j`` are the burn of
    attempts killed by node failures (re-execution inflates operational
    emissions); ``drained_node_seconds`` is capacity lost while failed nodes
    awaited repair. The degraded-tick counters track forecast-feed outages
    in the malleable scheduler.

    A running simulation updates its ledger in place and hands each result
    a copy. The run's identities are float sums with tolerances, checked by
    :func:`reconciles` rather than as ledger ``IDENTITIES``.
    """

    n_failures: int = 0
    n_job_kills: int = 0
    n_retries: int = 0
    n_failed_terminal: int = 0
    wasted_node_seconds: float = 0.0
    wasted_energy_j: float = 0.0
    drained_node_seconds: float = 0.0
    n_degraded_ticks: int = 0
    n_degraded_starts: int = 0

    @property
    def wasted_node_hours(self) -> float:
        """Node-hours burned by killed attempts."""
        return self.wasted_node_seconds / SECONDS_PER_HOUR

    @property
    def wasted_energy_kwh(self) -> float:
        """Energy burned by killed attempts, kWh."""
        return self.wasted_energy_j / JOULES_PER_KWH

    @property
    def drained_node_hours(self) -> float:
        """Node-hours of capacity lost to repair drains."""
        return self.drained_node_seconds / SECONDS_PER_HOUR

    def mean_unavailability(self, n_nodes: int, span_s: float) -> float:
        """Time-average fraction of the fleet held down for repair."""
        if n_nodes <= 0 or span_s <= 0:
            return 0.0
        return self.drained_node_seconds / (n_nodes * span_s)


class _RunMetrics:
    """Metrics shared by :class:`SimulationResult` and
    :class:`~repro.scheduler.malleable.MalleableSimulationResult`."""

    n_nodes: int
    records: list
    trace: PowerTrace

    def mean_utilisation(self) -> float:
        """Time-weighted mean node utilisation over the span."""
        return self.trace.mean_busy_nodes() / self.n_nodes

    def total_energy_kwh(self) -> float:
        """Busy-node energy integrated over the span, kWh."""
        return self.trace.energy_j() / JOULES_PER_KWH

    def emissions_tco2e(self, ci: TimeSeries) -> float:
        """Scope-2 emissions of the run against a carbon-intensity series."""
        return trace_emissions_tco2e(self.trace, ci)

    def mean_bounded_stretch(self, tau_s: float = 600.0) -> float:
        """Mean bounded slowdown of completed attempts (1.0 when none ran)."""
        completed = [r for r in self.records if not r.interrupted]
        stretches = bounded_stretches(completed, tau_s)
        if len(stretches) == 0:
            return 1.0
        return float(np.mean(stretches))

    def p95_bounded_stretch(self, tau_s: float = 600.0) -> float:
        """95th-percentile bounded slowdown of completed attempts (1.0 when none ran)."""
        completed = [r for r in self.records if not r.interrupted]
        stretches = bounded_stretches(completed, tau_s)
        if len(stretches) == 0:
            return 1.0
        return float(np.quantile(stretches, 0.95))


@dataclass(frozen=True)
class SimulationResult(_RunMetrics):
    """Everything a scheduler run produced."""

    n_nodes: int
    t_start_s: float
    t_end_s: float
    records: list[JobRecord]
    n_unstarted: int
    trace: PowerTrace
    n_jobs: int = 0
    n_completed: int = 0
    n_running_at_end: int = 0
    faults: FaultAccounting = field(default_factory=FaultAccounting)

    @property
    def span_s(self) -> float:
        """Simulated wall-clock span, seconds."""
        return self.t_end_s - self.t_start_s

    def reconciles(self, rel_tol: float = 1e-6) -> bool:
        """Conservation identities of the run (see :func:`reconciles`)."""
        return reconciles(self, self.n_unstarted, rel_tol)

    def total_node_hours(self) -> float:
        """Node-hours delivered to jobs within the span (wasted burn excluded)."""
        return sum(r.node_hours for r in self.records if not r.interrupted)

    def mean_wait_s(self) -> float:
        """Mean queue wait of completed attempts, seconds (0 when none)."""
        waits = [r.wait_s for r in self.records if not r.interrupted]
        if not waits:
            return 0.0
        return float(np.mean(waits))

    def node_hours_by_app(self) -> dict[str, float]:
        """Node-hours per application name."""
        shares: dict[str, float] = {}
        for r in self.records:
            shares[r.job.app.name] = shares.get(r.job.app.name, 0.0) + r.node_hours
        return shares

    def node_hours_by_setting(self) -> dict[str, float]:
        """Node-hours per frequency setting actually used (policy audit)."""
        shares: dict[str, float] = {}
        for r in self.records:
            key = r.setting.value
            shares[key] = shares.get(key, 0.0) + r.node_hours
        return shares

    def mean_busy_node_power_w(self) -> float:
        """Mean per-busy-node power, watts (0 when nothing ran)."""
        busy_nodes = self.trace.mean_busy_nodes()
        if busy_nodes == 0:
            return 0.0
        return self.trace.mean_busy_power_w() / busy_nodes


def trace_emissions_tco2e(trace: PowerTrace, ci: TimeSeries) -> float:
    """Exact scope-2 emissions of a power trace, tonnes CO₂e.

    Both the trace and the carbon-intensity series are previous-value-hold
    step functions, so the product integrates exactly over the union of
    their breakpoints — no quadrature error regardless of grid alignment.
    CI samples must be NaN-free (meter dropouts must be filled upstream).
    """
    if np.any(np.isnan(ci.values)):
        raise SchedulingError(
            "carbon-intensity series contains NaN samples; fill gaps before "
            "integrating emissions"
        )
    t0, t1 = trace.t_start_s, trace.t_end_s
    if t1 <= t0:
        return 0.0
    interior = np.union1d(trace.times_s, ci.times_s)
    interior = interior[(interior > t0) & (interior < t1)]
    edges = np.concatenate(([t0], interior, [t1]))
    starts = edges[:-1]
    durations_s = np.diff(edges)
    power_w = trace.sample(starts)
    idx = np.searchsorted(ci.times_s, starts, side="right") - 1
    idx = np.clip(idx, 0, len(ci.times_s) - 1)
    intensity = ci.values[idx]
    grams = emissions_g(power_w * durations_s, intensity)
    return float(g_to_tonnes(np.sum(grams)))


def bounded_stretches(
    records: list[JobRecord] | list[ElasticRecord], tau_s: float = 600.0
) -> np.ndarray:
    """Bounded slowdown ``max(1, (wait + run) / max(run, tau))`` per record.

    The ``tau_s`` floor (10 min, the conventional choice) stops very short
    jobs from dominating responsiveness metrics.
    """
    if not records:
        return np.empty(0, dtype=float)
    waits_s = np.array([r.wait_s for r in records], dtype=float)
    runs_s = np.array([r.runtime_s for r in records], dtype=float)
    return np.maximum(1.0, (waits_s + runs_s) / np.maximum(runs_s, tau_s))


def reconciles(
    result: SimulationResult | MalleableSimulationResult,
    n_queued: int,
    rel_tol: float = 1e-6,
) -> bool:
    """Conservation identities of a scheduler run, for either result type.

    Checks (1) job conservation — submitted == completed +
    terminally-failed + running-at-horizon + ``n_queued`` (still waiting or
    awaiting release); (2) node-hour conservation — the trace's busy
    integral equals delivered plus wasted record node-seconds; (3) the
    wasted column matches the interrupted records; and (4) busy plus
    drained capacity never exceeds the facility's node-seconds over the
    span. Float identities use a relative tolerance (the two sides group
    the same rectangle areas differently).
    """
    faults = result.faults
    jobs_ok = result.n_jobs == (
        result.n_completed
        + faults.n_failed_terminal
        + result.n_running_at_end
        + n_queued
    )
    delivered = sum(r.node_seconds for r in result.records if not r.interrupted)
    wasted = sum(r.node_seconds for r in result.records if r.interrupted)
    busy = result.trace.node_seconds()
    span_s = result.t_end_s - result.t_start_s
    abs_tol = 1e-6 * max(1.0, span_s)
    hours_ok = math.isclose(
        delivered + wasted, busy, rel_tol=rel_tol, abs_tol=abs_tol
    )
    wasted_ok = math.isclose(
        wasted, faults.wasted_node_seconds, rel_tol=rel_tol, abs_tol=abs_tol
    )
    capacity = result.n_nodes * span_s
    capacity_ok = (
        busy + faults.drained_node_seconds <= capacity * (1 + rel_tol) + abs_tol
    )
    return jobs_ok and hours_ok and wasted_ok and capacity_ok
