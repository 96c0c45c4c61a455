"""Job and job-record types.

A :class:`Job` is a scheduling request: an application, a node count and a
reference runtime (wall time the job would take at the facility's reference
operating point — 2.25 GHz+turbo, Power Determinism). The scheduler resolves
it into a :class:`JobRecord` once placed, with actual runtime stretched by
the roofline time ratio for the operating point the job ran at.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..node.pstates import FrequencySetting
from ..units import ensure_nonnegative, ensure_positive  # noqa: F401  (ensure_nonnegative used by JobRecord)
from .applications import AppProfile

__all__ = ["Job", "JobRecord"]


@dataclass(frozen=True)
class Job:
    """A batch job request.

    ``frequency_override`` is the user's explicit ``--cpu-freq`` choice; when
    ``None`` the facility's default-frequency policy decides (§4.2: users
    could revert the 2.0 GHz default for their jobs).

    ``min_nodes``/``max_nodes`` declare an *elastic shape*: the job can run
    anywhere in ``[min_nodes, max_nodes]`` with ``n_nodes`` as its preferred
    allocation, and a malleable scheduler may grow or shrink it at runtime.
    Rigid jobs leave both ``None``. ``shift_slack_s`` is how far past
    submission the job's start may be delayed (temporal load shifting into
    low-carbon windows); 0 means start as soon as possible.
    """

    job_id: int
    app: AppProfile
    n_nodes: int
    submit_time_s: float
    reference_runtime_s: float
    frequency_override: FrequencySetting | None = None
    min_nodes: int | None = None
    max_nodes: int | None = None
    shift_slack_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ConfigurationError(f"job {self.job_id}: n_nodes must be positive")
        # Negative submit times are legal: campaigns place their warm-up
        # before the reporting window's t=0 origin.
        if not np.isfinite(self.submit_time_s):
            raise ConfigurationError(f"job {self.job_id}: submit_time_s must be finite")
        ensure_positive(self.reference_runtime_s, f"job {self.job_id}: reference_runtime_s")
        if (self.min_nodes is None) != (self.max_nodes is None):
            raise ConfigurationError(
                f"job {self.job_id}: min_nodes and max_nodes must be set together "
                f"(got min={self.min_nodes}, max={self.max_nodes})"
            )
        if self.min_nodes is not None and self.max_nodes is not None:
            if not 1 <= self.min_nodes <= self.n_nodes <= self.max_nodes:
                raise ConfigurationError(
                    f"job {self.job_id}: elastic shape must satisfy "
                    f"1 <= min_nodes <= n_nodes <= max_nodes, got "
                    f"min={self.min_nodes}, n={self.n_nodes}, max={self.max_nodes}"
                )
        if not np.isfinite(self.shift_slack_s) or self.shift_slack_s < 0:
            raise ConfigurationError(
                f"job {self.job_id}: shift_slack_s must be finite and "
                f"non-negative, got {self.shift_slack_s}"
            )

    @property
    def is_elastic(self) -> bool:
        """Whether the job declares a malleable/moldable node-count shape."""
        return self.min_nodes is not None


@dataclass(frozen=True)
class JobRecord:
    """A completed (placed) job with its realised schedule and power.

    ``node_power_w`` is the per-node busy power for this job at the operating
    point it ran at — the scheduler computes it once at job start from the
    node power model and the app's execution profile.

    ``interrupted`` marks an attempt killed by a node failure before
    completing: its node-seconds were burned but delivered no science, so
    fault accounting charges them as wasted energy. The job itself may
    reappear in a later (requeued) record.
    """

    job: Job
    start_time_s: float
    end_time_s: float
    setting: FrequencySetting
    effective_ghz: float
    node_power_w: float
    interrupted: bool = False

    def __post_init__(self) -> None:
        if self.end_time_s <= self.start_time_s:
            raise ConfigurationError(
                f"job {self.job.job_id}: end time must exceed start time"
            )
        if self.start_time_s < self.job.submit_time_s:
            raise ConfigurationError(
                f"job {self.job.job_id}: started before submission"
            )
        ensure_nonnegative(self.node_power_w, f"job {self.job.job_id}: node_power_w")

    @property
    def runtime_s(self) -> float:
        """Realised wall time, seconds."""
        return self.end_time_s - self.start_time_s

    @property
    def wait_s(self) -> float:
        """Queue wait, seconds."""
        return self.start_time_s - self.job.submit_time_s

    @property
    def node_seconds(self) -> float:
        """Realised node-seconds (grows when a lower frequency stretches runtime)."""
        return self.job.n_nodes * self.runtime_s

    @property
    def node_hours(self) -> float:
        """Realised node-hours."""
        return self.node_seconds / 3600.0
