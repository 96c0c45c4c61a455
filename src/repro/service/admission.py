"""Admission control and fairness: per-tenant token buckets, depth shedding.

A service that cannot say no falls over, and every no must be *accounted*.
Two independent gates run before any work is admitted:

* **per-tenant token bucket** — each tenant refills at ``rate_per_s`` up to
  ``burst`` tokens; a dry bucket raises a structured ``"rate-limited"``
  :class:`~repro.errors.AdmissionError` carrying ``retry_after_s``. One
  noisy tenant cannot starve the rest — fairness is per-bucket, not FIFO.
* **queue-depth shedding** — when the whole service already has
  ``max_in_flight`` requests in flight, new arrivals are shed with an
  ``"overloaded"`` error rather than queued without bound.

Time is data: callers pass ``now_s`` explicitly (the service injects its
clock), so admission decisions are deterministic and replayable, and the
bucket state round-trips through ``state_dict`` for drain/restart.
"""

from __future__ import annotations

from ..errors import AdmissionError, ConfigurationError

__all__ = ["TokenBucket", "AdmissionController"]


class TokenBucket:
    """A classic leaky token bucket: ``rate_per_s`` refill up to ``burst``."""

    def __init__(self, rate_per_s: float, burst: float) -> None:
        if rate_per_s <= 0:
            raise ConfigurationError(f"rate_per_s must be positive, got {rate_per_s}")
        if burst < 1:
            raise ConfigurationError(f"burst must be >= 1, got {burst}")
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last_refill_s = 0.0

    def _refill(self, now_s: float) -> None:
        elapsed = max(0.0, now_s - self.last_refill_s)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate_per_s)
        self.last_refill_s = max(self.last_refill_s, now_s)

    def try_acquire(self, now_s: float, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; never blocks."""
        self._refill(now_s)
        if self.tokens >= tokens:
            self.tokens -= tokens
            return True
        return False

    def retry_after_s(self, now_s: float, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` could be available (0 when they are)."""
        self._refill(now_s)
        deficit = tokens - self.tokens
        return max(0.0, deficit / self.rate_per_s)

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of the bucket."""
        return {
            "rate_per_s": self.rate_per_s,
            "burst": self.burst,
            "tokens": self.tokens,
            "last_refill_s": self.last_refill_s,
        }

    def load_state_dict(self, state: dict) -> None:
        """Overwrite the bucket in place from a :meth:`state_dict` snapshot."""
        self.rate_per_s = state["rate_per_s"]
        self.burst = state["burst"]
        self.tokens = state["tokens"]
        self.last_refill_s = state["last_refill_s"]


class AdmissionController:
    """Decides, per request, whether the service takes on the work."""

    def __init__(
        self,
        *,
        rate_per_s: float = 50.0,
        burst: float = 100.0,
        max_in_flight: int = 1024,
    ) -> None:
        """Defaults admit bursty interactive use; soak tests tighten them.

        ``rate_per_s``/``burst`` parameterise the bucket every new tenant
        starts with; :meth:`set_tenant_limits` overrides one tenant.
        """
        if max_in_flight < 1:
            raise ConfigurationError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        self.default_rate_per_s = float(rate_per_s)
        self.default_burst = float(burst)
        self.max_in_flight = int(max_in_flight)
        self._buckets: dict[str, TokenBucket] = {}

    def bucket(self, tenant: str) -> TokenBucket:
        """The tenant's bucket, created at the defaults on first sight."""
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.default_rate_per_s, self.default_burst)
            self._buckets[tenant] = bucket
        return bucket

    def set_tenant_limits(
        self, tenant: str, *, rate_per_s: float, burst: float
    ) -> None:
        """Give one tenant its own bucket parameters (resets its level)."""
        self._buckets[tenant] = TokenBucket(rate_per_s, burst)

    def admit(self, tenant: str, *, now_s: float, in_flight: int) -> None:
        """Admit or raise a structured :class:`AdmissionError`.

        Depth shedding is checked first — when the service is saturated it
        must not *also* drain the tenant's bucket for work it will refuse.
        """
        if in_flight >= self.max_in_flight:
            raise AdmissionError(
                f"service saturated: {in_flight} requests in flight "
                f"(max {self.max_in_flight}); shedding new arrivals",
                code="overloaded",
            )
        bucket = self.bucket(tenant)
        if not bucket.try_acquire(now_s):
            raise AdmissionError(
                f"tenant {tenant!r} exceeded its request rate "
                f"({bucket.rate_per_s:g}/s, burst {bucket.burst:g})",
                code="rate-limited",
                retry_after_s=bucket.retry_after_s(now_s),
            )

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot: limits plus every tenant bucket."""
        return {
            "default_rate_per_s": self.default_rate_per_s,
            "default_burst": self.default_burst,
            "max_in_flight": self.max_in_flight,
            "buckets": {
                tenant: self._buckets[tenant].state_dict()
                for tenant in sorted(self._buckets)
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Overwrite limits and buckets in place from a snapshot."""
        self.default_rate_per_s = state["default_rate_per_s"]
        self.default_burst = state["default_burst"]
        self.max_in_flight = state["max_in_flight"]
        self._buckets = {}
        for tenant, bucket_state in state["buckets"].items():
            bucket = TokenBucket(
                bucket_state["rate_per_s"], bucket_state["burst"]
            )
            bucket.load_state_dict(bucket_state)
            self._buckets[tenant] = bucket
