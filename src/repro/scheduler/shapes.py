"""Elastic job shapes: how runtime responds to the node allocation.

A malleable scheduler needs one number per (job, allocation) pair: the
runtime *stretch* relative to the job's preferred allocation. The stretch
comes from the strong-scaling law

``t(n) = t₁·(s + (1−s)/n + c·ln n)``

with serial fraction ``s`` (Amdahl) and a logarithmic communication term
``c`` (tree collectives), the same for every job. It is normalised so the
preferred node count has stretch exactly 1.0, which keeps malleable
simulations bit-compatible with rigid ones when no grow/shrink ever fires.

Because the scaling overheads grow with node count, ``n · stretch(n)`` is
monotone increasing: shrinking a job always *reduces* its node-seconds (and
therefore energy) while lengthening its wall time — the trade the
carbon-aware scheduler exploits in high-carbon-intensity periods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ..errors import ConfigurationError
from ..workload.jobs import Job

__all__ = ["JobShape"]

#: The strong-scaling law's serial fraction ``s`` and communication
#: coefficient ``c``.
SERIAL_FRACTION = 0.02
COMM_COEFFICIENT = 0.01


@lru_cache(maxsize=65536)
def _relative_time(n_nodes: int, preferred_nodes: int) -> float:
    """``t(n)/t(preferred)`` for the strong-scaling law, in pure floats.

    The scheduler evaluates this on every progress update and reservation
    sort — hundreds of thousands of times per simulated month — so ``t₁``
    is cancelled out and the ratio memoised per distinct allocation pair,
    of which a trace has only a handful.
    """

    def t(n: int) -> float:
        return (
            SERIAL_FRACTION
            + (1.0 - SERIAL_FRACTION) / n
            + COMM_COEFFICIENT * math.log(n)
        )

    return t(n_nodes) / t(preferred_nodes)


@dataclass(frozen=True)
class JobShape:
    """The allocation envelope of one job.

    ``min_nodes == max_nodes == preferred_nodes`` describes a rigid job;
    its only legal allocation has stretch 1.0.
    """

    job_id: int
    min_nodes: int
    max_nodes: int
    preferred_nodes: int

    def __post_init__(self) -> None:
        if not 1 <= self.min_nodes <= self.preferred_nodes <= self.max_nodes:
            raise ConfigurationError(
                f"job {self.job_id}: shape must satisfy "
                f"1 <= min_nodes <= preferred_nodes <= max_nodes, got "
                f"min={self.min_nodes}, preferred={self.preferred_nodes}, "
                f"max={self.max_nodes}"
            )

    @classmethod
    def from_job(cls, job: Job) -> "JobShape":
        """Shape for ``job``: its declared elastic envelope, or rigid."""
        if job.is_elastic:
            min_nodes, max_nodes = job.min_nodes, job.max_nodes
        else:
            min_nodes = max_nodes = job.n_nodes
        return cls(
            job_id=job.job_id,
            min_nodes=min_nodes,
            max_nodes=max_nodes,
            preferred_nodes=job.n_nodes,
        )

    @property
    def is_elastic(self) -> bool:
        """Whether more than one allocation is legal."""
        return self.min_nodes < self.max_nodes

    def stretch(self, n_nodes: int) -> float:
        """Runtime multiplier at ``n_nodes`` vs the preferred allocation.

        Exactly 1.0 at ``preferred_nodes`` (same expression evaluated at the
        same point — no float residue), above 1.0 when shrunk below it.
        """
        if n_nodes == self.preferred_nodes:
            return 1.0
        if not self.min_nodes <= n_nodes <= self.max_nodes:
            raise ConfigurationError(
                f"job {self.job_id}: allocation {n_nodes} outside "
                f"[{self.min_nodes}, {self.max_nodes}]"
            )
        return _relative_time(n_nodes, self.preferred_nodes)

    def rate_per_s(self, n_nodes: int, preferred_runtime_s: float) -> float:
        """Progress rate (fraction of the job per second) at ``n_nodes``.

        ``preferred_runtime_s`` is the wall time the job needs at its
        preferred allocation under the operating point it started at; the
        allocation scales it through :meth:`stretch`.
        """
        if preferred_runtime_s <= 0:
            raise ConfigurationError(
                f"job {self.job_id}: preferred_runtime_s must be positive"
            )
        return 1.0 / (preferred_runtime_s * self.stretch(n_nodes))
