"""service-mix: closed-loop HTTP clients against the facility service.

The server runs in its own process (``server.py``); this process holds a
few keep-alive connections, each sending its next request only after the
previous reply arrived. Every reply is checked: payloads byte-for-byte
against direct ``FacilityCore`` answers computed here, malformed envelopes
against their structured 400 error code.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from .common import (
    ROOT,
    ROUTED_METHODS,
    SETUP_REPEATS,
    Outcome,
    child_env,
    percentile,
    reference_s,
    remove_tree,
    scratch_dir,
    span,
    speed_factor,
    stop_process,
    tail,
)
from .inputs import ServiceInputs, service_inputs
from .tracing import Tracer, count_hits

#: Closed-loop connections: a few, never more than the machine's cores.
N_CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Requests sent before timing starts (caches fill, lazy imports run).
WARMUP_REQUESTS = 300
#: Requests in the traced phase, so per-layer totals cover fixed work.
TRACED_REQUESTS = 4000
#: Fewest timed requests in a run, so p99 has ten or more samples beyond it.
MIN_TIMED_REQUESTS = 1000
#: The timed phase runs in slices this long, with a machine-speed reading
#: between slices; the throughputs are medians over slices.
SLICE_S = 1.0
POINT_METHODS = ("emissions", "classify_regime")
SERVER = Path(__file__).resolve().parent / "server.py"


# -- tracing -------------------------------------------------------------------


def trace_service(tracer: Tracer, service) -> None:
    """Wrap every service layer the request path crosses."""
    from repro.engine.cache import LRUCache
    from repro.engine.runner import SweepResult
    from repro.service import admission, coalesce, core, envelope, router
    from repro.service import service as service_module

    tracer.wrap(service_module.FacilityService, "handle", "service.handle")
    tracer.wrap(envelope.ServiceRequest, "from_wire", "envelope.from_wire")
    tracer.wrap(envelope.ServiceRequest, "request_key", "envelope.request_key")
    tracer.wrap(admission.AdmissionController, "admit", "admission.admit")
    tracer.wrap(coalesce.SingleFlight, "run", "coalesce.run")
    tracer.wrap(
        router.ServiceRouter, "dispatch", lambda self, request: f"router.dispatch.{request.method}"
    )
    tracer.wrap(core.FacilityCore, "point_spec", "core.point_spec")
    tracer.wrap(core, "evaluate_scenario", "runner.evaluate_scenario")
    tracer.wrap(service.core, "runner", "service.run_sweep")
    tracer.wrap(LRUCache, "get", "cache.lru.get", on_result=count_hits)
    tracer.wrap(SweepResult, "to_csv_rows", "runner.to_csv_rows")


# -- expected answers ----------------------------------------------------------


def expected_bodies(inputs: ServiceInputs) -> list[bytes]:
    """The exact response body each distinct question must get, computed
    directly through ``FacilityCore`` and the router's payload functions."""
    from repro.service.core import FacilityCore, SessionParams
    from repro.service.router import (
        payload_advice,
        payload_efficiency,
        payload_emissions,
        payload_regime,
        payload_sweep,
    )

    core = FacilityCore()
    bodies = []
    for method, params in inputs.questions:
        session = SessionParams.from_mapping(params)
        if method == "emissions":
            payload = payload_emissions(core.emissions(session))
        elif method == "classify_regime":
            ci = params.get("at_ci_g_per_kwh")
            ci = float(ci) if ci is not None else core.mean_ci_g_per_kwh(session)
            payload = payload_regime(
                core.classify_regime(session, ci), core.optimisation_target(session, ci), ci
            )
        elif method == "advise":
            payload = payload_advice(core.advise(session))
        elif method == "efficiency":
            payload = payload_efficiency(core.efficiency(session, app_name=params.get("app_name")))
        else:
            payload = payload_sweep(
                core.sweep(session, chunk_size=params["chunk_size"], **params["overrides"])
            )
        envelope = {"ok": True, "result": payload, "v": 1}
        bodies.append(json.dumps(envelope, sort_keys=True, separators=(",", ":")).encode())
    return bodies


# -- server process ------------------------------------------------------------


def start_server(trace_out: Path | None = None) -> tuple[subprocess.Popen, int, float]:
    """Start a server process; returns it, its port, and seconds to healthy."""
    cmd = [sys.executable, str(SERVER)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT
    )
    try:
        port = int(json.loads(proc.stdout.readline())["port"])
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("GET", "/v1/health")
            response = conn.getresponse()
            healthy = response.status == 200 and json.loads(response.read())["ok"]
        finally:
            conn.close()
        elapsed = time.perf_counter() - t0
        if not healthy:
            raise RuntimeError("service did not report healthy")
    except BaseException:
        stop_server(proc)
        raise
    return proc, port, elapsed


def stop_server(proc: subprocess.Popen) -> float:
    """Stop a server process; returns its peak resident memory, MB."""
    stop_process(proc)
    lines = proc.stdout.read().splitlines()
    proc.stdout.close()
    for line in reversed(lines):
        if line.startswith(b"{"):
            return json.loads(line)["peak_rss_kb"] / 1024.0
    return float("nan")


def fetch_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


# -- closed-loop clients -------------------------------------------------------


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


class LoopResult:
    """What one closed-loop phase observed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.correct = 0
        self.correct_point = 0
        self.latencies_s: list[float] = []
        self.elapsed_s = 0.0


async def closed_loop(
    port: int,
    inputs: ServiceInputs,
    expected: list[bytes],
    start: int,
    *,
    n_requests: int | None = None,
    seconds: float | None = None,
) -> LoopResult:
    """Drive requests ``start, start+1, ...`` over the keep-alive connections
    until ``n_requests`` were sent or ``seconds`` elapsed."""
    clock = time.perf_counter
    out = LoopResult()
    bodies, methods, expect = inputs.bodies, inputs.methods, inputs.expect
    end = start + n_requests if n_requests is not None else float("inf")
    cursor = [start]
    connections = [
        await asyncio.open_connection("127.0.0.1", port) for _ in range(N_CONNECTIONS)
    ]
    t_start = clock()
    deadline = t_start + seconds if seconds is not None else float("inf")

    async def client(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        while cursor[0] < end and clock() < deadline:
            j = cursor[0] % len(bodies)
            cursor[0] += 1
            body = bodies[j]
            head = (
                "POST /v1/request HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode()
            t0 = clock()
            writer.write(head + body)
            status, payload = await _read_response(reader)
            out.latencies_s.append(clock() - t0)
            out.attempted += 1
            kind, ref = expect[j]
            if kind == "ok":
                ok = status == 200 and payload == expected[ref]
            else:
                ok = status == 400 and json.loads(payload)["error"]["code"] == ref
            if ok:
                out.correct += 1
                if methods[j] in POINT_METHODS:
                    out.correct_point += 1

    try:
        await asyncio.gather(*(client(r, w) for r, w in connections))
        out.elapsed_s = clock() - t_start
    finally:
        for _, writer in connections:
            writer.close()
            await writer.wait_closed()
    return out


# -- the workload --------------------------------------------------------------


def _record_loop(out: Outcome, phase: LoopResult, name: str) -> None:
    out.attempted += phase.attempted
    out.failed += phase.attempted - phase.correct
    out.check(f"{name}: every reply correct", phase.correct == phase.attempted)


def started_server() -> tuple[subprocess.Popen, int, float]:
    """:func:`start_server`, its set-up time scaled to the nominal machine speed."""
    before = reference_s()
    proc, port, setup = start_server()
    return proc, port, setup * speed_factor(before, reference_s())


def timed_slices(port: int, inputs: ServiceInputs, expected: list[bytes], start: int, seconds: float):
    """Closed-loop slices of :data:`SLICE_S` until ``seconds`` have passed.

    Returns ``(slice, speed)`` pairs; ``speed`` comes from the reference
    readings on either side of the slice.
    """
    slices = []
    cursor = start
    t_end = time.perf_counter() + seconds
    before = reference_s()
    while not slices or time.perf_counter() < t_end:
        phase = asyncio.run(closed_loop(port, inputs, expected, cursor, seconds=SLICE_S))
        after = reference_s()
        slices.append((phase, speed_factor(before, after)))
        cursor += phase.attempted
        before = after
    return slices


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    inputs = service_inputs(seed)
    expected = expected_bodies(inputs)
    out = Outcome()

    setups = []
    for _ in range(SETUP_REPEATS - 1 if not trace else 0):
        proc, _, setup = started_server()
        setups.append(setup)
        stop_server(proc)
    proc, port, setup = started_server()
    setups.append(setup)
    try:
        warm = asyncio.run(closed_loop(port, inputs, expected, 0, n_requests=WARMUP_REQUESTS))
        _record_loop(out, warm, "warm-up")
        slices = timed_slices(port, inputs, expected, WARMUP_REQUESTS, seconds)
        for phase, _ in slices:
            _record_loop(out, phase, "timed")
        metrics = fetch_json(port, "/v1/metrics")
    finally:
        peak_mb = stop_server(proc)
    out.check("server shed nothing", sum(metrics["rejected"].values()) == 0)
    n_timed = sum(phase.attempted for phase, _ in slices)
    out.check(f"timed phase has at least {MIN_TIMED_REQUESTS} requests", n_timed >= MIN_TIMED_REQUESTS)
    untraced_rps = statistics.median(p.correct / (p.elapsed_s * speed) for p, speed in slices)

    if not trace:
        lat_ms = [1e3 * s * speed for p, speed in slices for s in p.latencies_s]
        out.metrics.update(
            primary_per_s=untraced_rps,
            secondary_per_s=statistics.median(
                p.correct_point / (p.elapsed_s * speed) for p, speed in slices
            ),
            op_p50_ms=percentile(lat_ms, 50),
            op_tail_ms=tail(lat_ms)[1],
            setup_s=statistics.median(setups),
            peak_rss_mb=peak_mb,
        )
        out.figure("service_rps", untraced_rps, "req/s", f"correct responses per second, median of {len(slices)} slices")
        out.figure("secondary_per_s", out.metrics["secondary_per_s"], "req/s", "correct point-method responses per second")
        note = f"{len(lat_ms)} requests, {N_CONNECTIONS} closed-loop connections"
        out.figure("service_p50_ms", out.metrics["op_p50_ms"], "ms", note)
        out.figure(f"service_p{tail(lat_ms)[0]:.0f}_ms", out.metrics["op_tail_ms"], "ms", note)
        out.figure("setup_s", out.metrics["setup_s"], "s", f"median of {len(setups)} server starts to /v1/health")
        out.figure("peak_rss_mb", peak_mb, "MB", "server process")
        out.figure("machine_speed", statistics.median(speed for _, speed in slices), "x nominal", "median over slices")
        return out

    workdir = scratch_dir()
    trace_file = workdir / "service-trace.json"
    try:
        proc, port, _ = start_server(trace_out=trace_file)
        try:
            warm = asyncio.run(closed_loop(port, inputs, expected, 0, n_requests=WARMUP_REQUESTS))
            _record_loop(out, warm, "traced warm-up")
            before = reference_s()
            traced = asyncio.run(
                closed_loop(port, inputs, expected, WARMUP_REQUESTS, n_requests=TRACED_REQUESTS)
            )
            traced_speed = speed_factor(before, reference_s())
            _record_loop(out, traced, "traced")
        finally:
            stop_server(proc)
        table = json.loads(trace_file.read_text())
    finally:
        remove_tree(workdir)
    layers = out.layers = table["layers"]
    metrics = table["metrics"]
    m = out.metrics
    m["service.handle.count"] = span(layers, "service.handle", "count")
    m["service.handle.busy_s"] = span(layers, "service.handle")
    m["envelope.from_wire.busy_s"] = span(layers, "envelope.from_wire")
    m["envelope.request_key.busy_s"] = span(layers, "envelope.request_key")
    m["admission.admit.busy_s"] = span(layers, "admission.admit")
    m["admission.rejected"] = sum(metrics["rejected"].values())
    m["coalesce.wait_s"] = span(layers, "coalesce.run", "self_s")
    m["coalesce.joined_ratio"] = sum(metrics["coalesced"].values()) / sum(metrics["served"].values())
    for method in ROUTED_METHODS:
        m[f"router.dispatch.{method}.count"] = span(layers, f"router.dispatch.{method}", "count")
        m[f"router.dispatch.{method}.busy_s"] = span(layers, f"router.dispatch.{method}")
    m["core.point_spec.busy_s"] = span(layers, "core.point_spec")
    m["runner.evaluate_scenario.busy_s"] = span(layers, "runner.evaluate_scenario")
    m["service.run_sweep.busy_s"] = span(layers, "service.run_sweep")
    m["cache.lru.hit_ratio"] = span(layers, "cache.lru.get", "hits") / span(layers, "cache.lru.get", "count")
    m["runner.to_csv_rows.busy_s"] = span(layers, "runner.to_csv_rows")
    client_s = warm.latencies_s + traced.latencies_s
    m["http.residual_ms"] = 1e3 * (
        statistics.fmean(client_s) - m["service.handle.busy_s"] / m["service.handle.count"]
    )
    out.overhead(untraced_rps, traced.correct / (traced.elapsed_s * traced_speed))
    # The traced server's totals cover its warm-up requests too.
    out.traced_work = (
        warm.attempted + traced.attempted, "requests", warm.elapsed_s + traced.elapsed_s, traced_speed
    )
    return out
