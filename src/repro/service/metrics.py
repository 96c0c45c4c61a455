"""Service accounting: every request in is served, rejected, or failed.

The live pipeline's discipline (``PipelineMetrics.reconciles()``, PR 3)
applied to the request plane::

    requests_in == served + rejected + failed        (per tenant)

* ``served`` — an ``ok`` envelope went back;
* ``rejected`` — admission control refused the request (rate-limited or
  overloaded) before any work was done;
* ``failed`` — the handler raised (bad request, internal error), or the
  request was cancelled/lost to a restart after admission.

Nothing is allowed to fall between the buckets: the selftest, the soak CI
job and ``benchmarks/bench_service.py`` all gate on :meth:`ServiceMetrics.
reconciles` under load *and* across kill/resume. The identity is checked
for every tenant in any of the four counters (:class:`~repro.ledger.Ledger`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..ledger import Ledger

__all__ = ["ServiceMetrics"]


@dataclass
class ServiceMetrics(Ledger):
    """Counters describing one service's lifetime, keyed per tenant/method."""

    IDENTITIES = (("requests_in", ("served", "rejected", "failed")),)

    requests_in: Counter[str] = field(default_factory=Counter)
    served: Counter[str] = field(default_factory=Counter)
    rejected: Counter[str] = field(default_factory=Counter)
    failed: Counter[str] = field(default_factory=Counter)
    #: Requests answered by attaching to another request's in-flight
    #: evaluation (single-flight waiters), per tenant. A subset of served.
    coalesced: Counter[str] = field(default_factory=Counter)
    #: Actual handler executions, per method — the denominator of the
    #: coalescing gate (evaluations ≪ requests under identical load).
    evaluations: Counter[str] = field(default_factory=Counter)
    #: Rejection breakdown by structured error code ("rate-limited", …).
    rejections_by_code: Counter[str] = field(default_factory=Counter)
    #: Failure breakdown by structured error code ("bad-request", …).
    failures_by_code: Counter[str] = field(default_factory=Counter)
    #: Requests in flight when a restart snapshot was restored; they were
    #: counted in and folded into ``failed`` so the identity survives.
    lost_to_restart: int = 0
    in_flight_peak: int = 0

    # -- recording ---------------------------------------------------------

    def record_in(self, tenant: str) -> None:
        """Count one request arriving for a tenant."""
        self.requests_in[tenant] += 1

    def record_served(self, tenant: str, *, coalesced: bool = False) -> None:
        """Count one ok response (``coalesced`` when it joined another flight)."""
        self.served[tenant] += 1
        if coalesced:
            self.coalesced[tenant] += 1

    def record_rejected(self, tenant: str, code: str) -> None:
        """Count one admission refusal."""
        self.rejected[tenant] += 1
        self.rejections_by_code[code] += 1

    def record_failed(self, tenant: str, code: str) -> None:
        """Count one failed request."""
        self.failed[tenant] += 1
        self.failures_by_code[code] += 1

    def record_evaluation(self, method: str) -> None:
        """Count one actual handler execution."""
        self.evaluations[method] += 1

    def observe_in_flight(self, depth: int) -> None:
        """Track the deepest concurrent in-flight watermark."""
        self.in_flight_peak = max(self.in_flight_peak, depth)

    # -- totals ------------------------------------------------------------

    @property
    def total_coalesced(self) -> int:
        """Requests served by joining another flight, across all tenants."""
        return sum(self.coalesced.values())

    @property
    def total_evaluations(self) -> int:
        """Handler executions across all methods."""
        return sum(self.evaluations.values())
