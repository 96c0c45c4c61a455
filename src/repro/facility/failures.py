"""Node failure and repair model.

Real utilisation never reaches the scheduler's packing limit partly because
nodes fail and drain for repair. The model is the standard two-state Markov
picture: exponential time-to-failure (rate 1/MTBF per node) and exponential
repair (1/MTTR), giving a stationary unavailability of MTTR/(MTBF+MTTR).
At ARCHER2 scale (5,860 nodes, node MTBF of years) this is a steady ~0.5–2 %
of the machine — one of the §3.2 "scheduling overheads" separating the
measured 3,220 kW baseline from the Table 2 full-load sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..units import SECONDS_PER_HOUR, ensure_nonnegative, ensure_positive

__all__ = ["FailureModel", "FaultConfig"]


@dataclass(frozen=True)
class FailureModel:
    """Exponential failure/repair behaviour of a node fleet.

    Defaults: 4-year node MTBF (hardware plus software crashes needing a
    drain) and a 24-hour mean repair/triage time.
    """

    mtbf_hours: float = 4 * 365.25 * 24.0
    mttr_hours: float = 24.0

    def __post_init__(self) -> None:
        ensure_positive(self.mtbf_hours, "mtbf_hours")
        ensure_positive(self.mttr_hours, "mttr_hours")

    @property
    def steady_state_unavailability(self) -> float:
        """Long-run fraction of nodes down: MTTR / (MTBF + MTTR)."""
        return self.mttr_hours / (self.mtbf_hours + self.mttr_hours)


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection knobs for the scheduler simulations.

    ``model`` drives seeded event-driven node failures (rate ``up/MTBF``)
    and per-node exponential repairs (mean MTTR). A failure on a busy node
    kills the victim job: the burned node-hours are charged as wasted
    energy and the job requeues after a seeded exponential backoff
    (``base · multiplier^(attempt-1)`` capped at ``backoff_cap_s``, jittered
    uniformly in [0.5, 1.5)×) until ``max_retries`` is exhausted, after
    which it is dropped as terminally failed.

    ``checkpoint_interval_s > 0`` enables simulated checkpoint/restart for
    the malleable progress model: a restarted attempt resumes from the last
    whole checkpoint boundary, minus ``checkpoint_overhead_s`` of recovery
    work, instead of from zero. Rigid jobs always restart from zero.
    """

    model: FailureModel = field(default_factory=FailureModel)
    seed: int = 0
    max_retries: int = 3
    backoff_base_s: float = 300.0
    backoff_multiplier: float = 2.0
    backoff_cap_s: float = 4.0 * SECONDS_PER_HOUR
    checkpoint_interval_s: float = 0.0
    checkpoint_overhead_s: float = 60.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        ensure_positive(self.backoff_base_s, "backoff_base_s")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        ensure_positive(self.backoff_cap_s, "backoff_cap_s")
        ensure_nonnegative(self.checkpoint_interval_s, "checkpoint_interval_s")
        ensure_nonnegative(self.checkpoint_overhead_s, "checkpoint_overhead_s")

    @property
    def mtbf_s(self) -> float:
        """Per-node mean time between failures, seconds."""
        return self.model.mtbf_hours * SECONDS_PER_HOUR

    @property
    def mttr_s(self) -> float:
        """Per-node mean time to repair, seconds."""
        return self.model.mttr_hours * SECONDS_PER_HOUR

    def backoff_s(self, attempt: int, jitter: float) -> float:
        """Requeue delay for retry ``attempt`` (1-based) with ``jitter`` ∈ [0, 1)."""
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        base = self.backoff_base_s * self.backoff_multiplier ** (attempt - 1)
        return min(self.backoff_cap_s, base) * (0.5 + jitter)
