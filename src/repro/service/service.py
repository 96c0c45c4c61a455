"""The multi-tenant facility service: one shared cache, many sessions.

:class:`FacilityService` composes the pieces of this package into a single
request plane over one shared :class:`~repro.service.core.FacilityCore`:

1. parse/validate the versioned envelope (:mod:`~repro.service.envelope`);
2. admit or shed (:mod:`~repro.service.admission` — per-tenant token
   buckets, queue-depth shedding);
3. coalesce identical in-flight questions (:mod:`~repro.service.coalesce`
   — N concurrent identical sweeps cost exactly one evaluation);
4. dispatch to the shared core (:mod:`~repro.service.router`);
5. account the outcome (:mod:`~repro.service.metrics` — every request in
   is served, rejected or failed, per tenant).

The service is an ordinary asyncio object: ``await service.handle(req)``
from any task. The HTTP front (:mod:`~repro.service.http`) is a thin
stdlib adapter over exactly this method.

Time is injected (``clock=``; defaults to the running loop's clock) and
randomness is owned (``seed=``), so the whole service round-trips through
``state_dict``/``load_state_dict``: buckets, counters, RNG — and requests
in flight at snapshot time are folded into ``failed`` on restore
(``lost_to_restart``), keeping the accounting identity true across a
kill/resume.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Mapping

import numpy as np

from ..errors import AdmissionError, ConfigurationError, ServiceError
from .admission import AdmissionController
from .coalesce import SingleFlight
from .core import FacilityCore
from .envelope import ServiceRequest, ServiceResponse, error_code
from .metrics import ServiceMetrics
from .router import ServiceRouter

__all__ = ["FacilityService"]


class FacilityService:
    """Serves many tenants' facility questions over one shared core."""

    def __init__(
        self,
        *,
        core: FacilityCore | None = None,
        cache_dir=None,
        admission: AdmissionController | None = None,
        metrics: ServiceMetrics | None = None,
        clock: Callable[[], float] | None = None,
        seed: int = 0,
    ) -> None:
        """Build a service around ``core`` (or a fresh one over ``cache_dir``).

        ``clock`` is seconds-monotonic used for admission decisions; it
        defaults to the running event loop's clock. Tests inject a manual
        clock to make bucket refills deterministic.
        """
        if core is not None and cache_dir is not None:
            raise ConfigurationError("pass either core or cache_dir, not both")
        self.core = core if core is not None else FacilityCore(cache_dir=cache_dir)
        self.router = ServiceRouter(self.core)
        self.admission = admission if admission is not None else AdmissionController()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.flights = SingleFlight()
        self.rng = np.random.default_rng(seed)
        self._clock = clock
        self._in_flight: dict[str, int] = {}

    # -- request plane -----------------------------------------------------

    async def handle(self, request: ServiceRequest | object) -> ServiceResponse:
        """Answer one request; always returns an envelope, never raises.

        Anything else is parsed as a wire envelope (any JSON value) first.

        (Except for :class:`asyncio.CancelledError`, which is accounted as
        a failure and then re-raised — the caller is going away.)
        """
        if not isinstance(request, ServiceRequest):
            tenant = request.get("tenant") if isinstance(request, Mapping) else None
            tenant = tenant if isinstance(tenant, str) and tenant else "default"
            try:
                request = ServiceRequest.from_wire(request)
            except ServiceError as exc:
                self.metrics.record_in(tenant)
                self.metrics.record_failed(tenant, exc.code)
                return ServiceResponse.failure(exc)

        tenant = request.tenant
        key = request.request_key
        self.metrics.record_in(tenant)

        try:
            self.admission.admit(
                tenant, now_s=self._now(), in_flight=self.in_flight
            )
        except AdmissionError as exc:
            self.metrics.record_rejected(tenant, exc.code)
            return ServiceResponse.failure(exc, request_key=key)

        # No await between the join-peek and flights.run(): in a single
        # event loop nothing can change the flight table in between, so
        # the peek is an exact prediction.
        joining = key in self.flights
        self._in_flight[tenant] = self._in_flight.get(tenant, 0) + 1
        self.metrics.observe_in_flight(self.in_flight)

        async def evaluate() -> dict:
            # Yield once before computing so every concurrently-created
            # task reaches flights.run() and attaches as a waiter first.
            await asyncio.sleep(0)
            self.metrics.record_evaluation(request.method)
            # lint: allow-blocking -- the single-flight leader evaluates
            # in-loop by design: one bounded computation serves every
            # coalesced waiter, and moving it off-loop would break the
            # deterministic wire-parity guarantee (DESIGN.md, PR 9)
            return self.router.dispatch(request)

        try:
            payload = await self.flights.run(key, evaluate)
        except asyncio.CancelledError:
            self.metrics.record_failed(tenant, "cancelled")
            raise
        except Exception as exc:
            self.metrics.record_failed(tenant, error_code(exc))
            return ServiceResponse.failure(exc, request_key=key)
        else:
            self.metrics.record_served(tenant, coalesced=joining)
            return ServiceResponse.success(
                payload,
                request_key=key,
                served_by="coalesced" if joining else "computed",
            )
        finally:
            remaining = self._in_flight.get(tenant, 0) - 1
            if remaining > 0:
                self._in_flight[tenant] = remaining
            else:
                self._in_flight.pop(tenant, None)

    async def call(
        self, method: str, params: Mapping | None = None, *, tenant: str = "default"
    ) -> ServiceResponse:
        """Convenience: build the request envelope and :meth:`handle` it."""
        return await self.handle(
            ServiceRequest(method=method, params=dict(params or {}), tenant=tenant)
        )

    @property
    def in_flight(self) -> int:
        """Requests admitted and not yet answered, across all tenants."""
        return sum(self._in_flight.values())

    async def drain(self) -> None:
        """Wait until every admitted request has been answered."""
        while self.in_flight > 0 or len(self.flights) > 0:
            await asyncio.sleep(0)

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return asyncio.get_running_loop().time()

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot: admission, metrics, RNG, in-flight.

        In-flight work cannot be snapshotted mid-computation; it is
        recorded per tenant so :meth:`load_state_dict` can fold it into
        ``failed`` and keep ``requests_in == served + rejected + failed``.
        """
        rng_state = self.rng.bit_generator.state
        return {
            "admission": self.admission.state_dict(),
            "metrics": self.metrics.state_dict(),
            "in_flight": {
                tenant: self._in_flight[tenant]
                for tenant in sorted(self._in_flight)
            },
            "inflight_keys": self.flights.inflight_keys(),
            "rng_state": {
                "bit_generator": rng_state["bit_generator"],
                "state": dict(rng_state["state"]),
                "has_uint32": int(rng_state["has_uint32"]),
                "uinteger": int(rng_state["uinteger"]),
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot into this (idle) service.

        Requests that were in flight when the snapshot was taken are
        accounted as failed with code ``"lost-to-restart"`` — the restarted
        process will never answer them — so the accounting identity holds
        across the kill/resume.
        """
        if self.in_flight:
            raise ServiceError(
                f"cannot load state into a service with {self.in_flight} "
                "requests in flight; drain first"
            )
        self.admission.load_state_dict(state["admission"])
        self.metrics.load_state_dict(state["metrics"])
        self.rng.bit_generator.state = {
            "bit_generator": state["rng_state"]["bit_generator"],
            "state": dict(state["rng_state"]["state"]),
            "has_uint32": state["rng_state"]["has_uint32"],
            "uinteger": state["rng_state"]["uinteger"],
        }
        lost = state["in_flight"]
        for tenant in sorted(lost):
            for _ in range(lost[tenant]):
                self.metrics.record_failed(tenant, "lost-to-restart")
            self.metrics.lost_to_restart += lost[tenant]
        # inflight_keys are informational: the computations died with the
        # old process, so the new service starts with an empty flight table.
        _ = state["inflight_keys"]
        self._in_flight = {}
