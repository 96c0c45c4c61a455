"""Grid-aware operation: demand response through frequency modulation.

§1 and §3 of the paper frame HPC centres as "good grid citizens" that should
"respond flexibly to fluctuating power demands, particularly during times of
power shortages". The cheapest flexible response a busy facility has — one
that sheds load without killing jobs — is exactly the paper's §4.2 lever:
drop the CPU frequency while the grid is stressed, restore it afterwards.

:class:`DemandResponseEnvironment` wraps any execution environment and
overrides the frequency setting for jobs *starting* inside a stress window.
Because running jobs are untouched, the response ramps over the job-duration
scale — the realistic physical limit of this mechanism, which
:func:`response_latency_estimate` quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..grid.events import GridStressEvent
from ..node.pstates import FrequencySetting
from ..workload.jobs import Job
from .backfill import ExecutionEnvironment, ResolvedExecution

__all__ = ["DemandResponseEnvironment", "response_latency_estimate"]


@dataclass
class DemandResponseEnvironment:
    """Execution environment that sheds load during grid-stress events.

    Parameters
    ----------
    inner:
        The normal environment (static or intervention-scheduled).
    events:
        Stress windows during which the response applies.
    response_setting:
        Frequency forced on jobs starting inside a window. 1.5 GHz trades
        ~25–45 % performance for the deepest available shed; 2.0 GHz is the
        gentler option the paper made the default anyway.
    override_users:
        If True, user frequency overrides are also suppressed during events
        (an emergency posture; default honours user choices as §4.2 did).
    """

    inner: ExecutionEnvironment
    events: list[GridStressEvent]
    response_setting: FrequencySetting = FrequencySetting.GHZ_1_5
    override_users: bool = False
    _sorted_starts: np.ndarray = field(init=False, repr=False)
    _sorted_ends: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        events = sorted(self.events, key=lambda e: e.start_s)
        for a, b in zip(events[:-1], events[1:]):
            if b.start_s < a.end_s:
                raise ConfigurationError("stress events must not overlap")
        self.events = events
        self._sorted_starts = np.array([e.start_s for e in events])
        self._sorted_ends = np.array([e.end_s for e in events])

    def in_event(self, time_s: float) -> bool:
        """Whether ``time_s`` falls inside any stress window."""
        idx = int(np.searchsorted(self._sorted_starts, time_s, side="right")) - 1
        return idx >= 0 and time_s < float(self._sorted_ends[idx])

    def resolve(self, job: Job, time_s: float) -> ResolvedExecution:
        base = self.inner.resolve(job, time_s)
        if not self.in_event(time_s):
            return base
        if job.frequency_override is not None and not self.override_users:
            return base
        if base.setting is self.response_setting:
            return base
        # The response setting bypasses the frequency policy, so it holds
        # whether or not the policy honours user overrides.
        return self.inner.resolve_setting(job, self.response_setting, time_s)

    def resolve_setting(
        self, job: Job, setting: FrequencySetting, time_s: float
    ) -> ResolvedExecution:
        """Execution of ``job`` at ``setting`` in the inner environment."""
        return self.inner.resolve_setting(job, setting, time_s)


def response_latency_estimate(
    mean_job_runtime_s: float, target_fraction: float = 0.63
) -> float:
    """Time for the frequency response to reach ``target_fraction`` of its depth.

    New jobs start at the response frequency while old jobs drain; with
    roughly exponential job-age mixing, the shed depth approaches its
    steady state on the mean-runtime scale: t ≈ −ln(1−f)·T̄.
    """
    if mean_job_runtime_s <= 0:
        raise ConfigurationError("mean_job_runtime_s must be positive")
    if not 0.0 < target_fraction < 1.0:
        raise ConfigurationError("target_fraction must be in (0, 1)")
    return float(-np.log(1.0 - target_fraction) * mean_job_runtime_s)
