"""Deterministic in-process soak: thousands of clients, one service.

``repro serve --selftest`` (the CI ``service-soak`` job) runs this module:
one :class:`~repro.service.service.FacilityService` over one shared core,
driven by a few thousand concurrent simulated clients, then a checklist of
gates — every check is a named boolean in the report, and the process exit
code is the conjunction.

Phases:

1. **coalesce** — half the clients issue the *same* sweep concurrently;
   the gate is exactly **one** engine evaluation and byte-identical
   envelopes for every caller.
2. **mixed** — the other half issue a deterministic mix of methods/params
   across tenants; everything must be answered and accounted.
3. **parity** — the service's sweep payload must be byte-identical to the
   same question answered by a direct :class:`repro.api.FacilitySession`.
4. **rate-limit** — a noisy tenant with a tiny bucket gets structured
   ``rate-limited`` refusals; polite tenants are untouched.
5. **shed** — with ``max_in_flight`` forced to 1, concurrent arrivals are
   shed with ``overloaded``, never queued unboundedly.
6. **kill/resume** — snapshot mid-flight, JSON round-trip, restore into a
   fresh service; the in-flight request folds into ``failed``
   (``lost-to-restart``) and the accounting identity survives.

Everything is seeded and clocked by injection — the selftest is replayable
bit-for-bit, which is why it can gate CI.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

from .admission import AdmissionController
from .core import FacilityCore
from .envelope import ServiceRequest
from .metrics import ServiceMetrics
from .router import payload_sweep
from .service import FacilityService

__all__ = ["run_selftest", "format_report"]

#: The sweep every coalescing client asks for: tiny but a real grid.
_COALESCE_SWEEP = {
    "overrides": {"utilisations": [0.5, 0.9], "node_counts": [1024]},
    "chunk_size": 256,
}


def _mixed_request(rng: np.random.Generator, i: int, n_tenants: int) -> ServiceRequest:
    """One deterministic mixed-workload request (small shared param pools)."""
    tenant = f"tenant-{i % n_tenants}"
    kind = int(rng.integers(0, 10))
    if kind < 5:
        return ServiceRequest(
            "emissions",
            {"n_nodes": int(rng.choice([1024, 2048, 5860]))},
            tenant=tenant,
        )
    if kind < 8:
        return ServiceRequest(
            "classify_regime",
            {"at_ci_g_per_kwh": float(rng.choice([25.0, 190.0, 450.0]))},
            tenant=tenant,
        )
    if kind < 9:
        return ServiceRequest(
            "efficiency", {"app_name": "OpenSBLI TGV 1024^3"}, tenant=tenant
        )
    return ServiceRequest("advise", {}, tenant=tenant)


async def run_selftest(
    *, n_clients: int = 2000, n_tenants: int = 8, seed: int = 0
) -> dict:
    """Run every phase; returns the JSON-able report (``report["ok"]``)."""
    clock_s = [0.0]
    service = FacilityService(
        core=FacilityCore(),
        admission=AdmissionController(
            rate_per_s=1000.0, burst=float(2 * n_clients), max_in_flight=2 * n_clients
        ),
        metrics=ServiceMetrics(),
        clock=lambda: clock_s[0],
    )
    checks: dict[str, bool] = {}
    rng = np.random.default_rng(seed)

    # -- phase 1: coalesce -------------------------------------------------
    n_coalesce = max(100, n_clients // 2)
    requests = [
        ServiceRequest("sweep", _COALESCE_SWEEP, tenant=f"tenant-{i % n_tenants}")
        for i in range(n_coalesce)
    ]
    responses = await asyncio.gather(*(service.handle(r) for r in requests))
    wires = {r.wire_json() for r in responses}
    checks["coalesce_all_ok"] = all(r.ok for r in responses)
    checks["coalesce_byte_identical"] = len(wires) == 1
    checks["coalesce_single_evaluation"] = (
        service.metrics.evaluations.get("sweep", 0) == 1
    )
    checks["coalesce_joins_accounted"] = (
        service.metrics.total_coalesced == n_coalesce - 1
    )

    # -- phase 2: mixed load ----------------------------------------------
    n_mixed = max(0, n_clients - n_coalesce)
    mixed = [_mixed_request(rng, i, n_tenants) for i in range(n_mixed)]
    mixed_responses = await asyncio.gather(*(service.handle(r) for r in mixed))
    checks["mixed_all_ok"] = all(r.ok for r in mixed_responses)
    checks["mixed_reconciles"] = service.metrics.reconciles()
    # Small param pools under full concurrency: far fewer evaluations than
    # requests is the whole point of the shared cache front.
    checks["mixed_coalesced"] = (
        n_mixed == 0 or service.metrics.total_evaluations < n_mixed
    )

    # -- phase 3: parity vs a direct session -------------------------------
    from ..api import FacilitySession

    session = FacilitySession()  # its own core and caches: independent path
    direct = payload_sweep(
        # lint: allow-blocking -- the parity phase runs the direct engine
        # path on purpose: the selftest is sequential, no tenant traffic
        # shares the loop while it computes
        session.sweep(
            chunk_size=_COALESCE_SWEEP["chunk_size"], **_COALESCE_SWEEP["overrides"]
        )
    )
    canonical = lambda data: json.dumps(  # noqa: E731
        data, sort_keys=True, separators=(",", ":")
    )
    checks["parity_byte_identical"] = canonical(direct) == canonical(
        responses[0].result
    )

    # -- phase 4: per-tenant rate limiting ----------------------------------
    service.admission.set_tenant_limits("noisy", rate_per_s=1.0, burst=5)
    noisy = [
        await service.call(
            "classify_regime", {"at_ci_g_per_kwh": 190.0}, tenant="noisy"
        )
        for _ in range(50)
    ]
    rate_limited = [
        r for r in noisy if not r.ok and r.error["code"] == "rate-limited"
    ]
    checks["rate_limit_shed"] = len(rate_limited) == 45
    checks["rate_limit_retry_after"] = all(
        r.error["retry_after_s"] > 0 for r in rate_limited
    )
    polite = await service.call(
        "classify_regime", {"at_ci_g_per_kwh": 190.0}, tenant="polite"
    )
    checks["rate_limit_isolated"] = polite.ok

    # -- phase 5: queue-depth shedding --------------------------------------
    saved_max = service.admission.max_in_flight
    service.admission.max_in_flight = 1
    burst = await asyncio.gather(
        *(
            service.call(
                "classify_regime",
                {"at_ci_g_per_kwh": 20.0 + i},  # distinct: no coalescing
                tenant="burst",
            )
            for i in range(20)
        )
    )
    service.admission.max_in_flight = saved_max
    shed = [r for r in burst if not r.ok and r.error["code"] == "overloaded"]
    checks["shed_overloaded"] = len(shed) == 19 and sum(r.ok for r in burst) == 1
    checks["shed_reconciles"] = service.metrics.reconciles()

    # -- phase 6: kill/resume mid-flight ------------------------------------
    victim = asyncio.ensure_future(
        service.call(
            "sweep",
            {"overrides": {"utilisations": [0.42]}, "chunk_size": 64},
            tenant="tenant-0",
        )
    )
    await asyncio.sleep(0)  # let it admit and lead its flight
    snapshot = json.loads(json.dumps(service.state_dict()))
    checks["snapshot_caught_in_flight"] = snapshot["in_flight"] == {"tenant-0": 1}
    victim.cancel()
    await asyncio.gather(victim, return_exceptions=True)

    resumed = FacilityService(core=FacilityCore(), clock=lambda: clock_s[0])
    resumed.load_state_dict(snapshot)
    checks["resume_lost_folded"] = resumed.metrics.lost_to_restart == 1
    checks["resume_reconciles"] = resumed.metrics.reconciles()
    after = await asyncio.gather(
        *(
            resumed.call("emissions", {"n_nodes": 512 + i}, tenant="tenant-1")
            for i in range(8)
        )
    )
    checks["resume_serves"] = (
        all(r.ok for r in after) and resumed.metrics.reconciles()
    )

    await service.drain()
    checks["drained"] = service.in_flight == 0 and len(service.flights) == 0
    checks["final_reconciles"] = service.metrics.reconciles()

    return {
        "n_clients": n_clients,
        "n_tenants": n_tenants,
        "seed": seed,
        "ok": all(checks.values()),
        "checks": checks,
        "coalescing": {
            "leads": service.flights.leads,
            "joins": service.flights.joins,
            "handoffs": service.flights.handoffs,
        },
        "metrics": service.metrics.state_dict(),
    }


def format_report(report: dict) -> str:
    """Human-readable summary (the JSON report is the machine artefact)."""
    lines = [
        f"service selftest: {'PASS' if report['ok'] else 'FAIL'} "
        f"({report['n_clients']} clients, {report['n_tenants']} tenants, "
        f"seed {report['seed']})"
    ]
    for name, passed in report["checks"].items():
        lines.append(f"  [{'ok' if passed else 'FAIL'}] {name}")
    metrics = report["metrics"]
    lines.append(
        "  totals: in=%d served=%d rejected=%d failed=%d coalesced=%d evaluations=%d"
        % (
            sum(metrics["requests_in"].values()),
            sum(metrics["served"].values()),
            sum(metrics["rejected"].values()),
            sum(metrics["failed"].values()),
            sum(metrics["coalesced"].values()),
            sum(metrics["evaluations"].values()),
        )
    )
    return "\n".join(lines)
