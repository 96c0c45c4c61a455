"""sweep-grid: one large spec, cold into an empty store, then replayed warm.

Each pass runs ``run_sweep`` in-process (``workers=0``) into a fresh, empty
on-disk ``SweepStore`` (cold: every chunk is evaluated and written), then
again over the same store with a fresh ``LRUCache`` (warm: every chunk is
read back, so no memory hit can short-circuit it). The cold and warm
columns must be byte-identical, and seeded rows must match the scalar
``evaluate_scenario`` oracle within the engine's 1e-9 relative contract.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .common import (
    Outcome,
    peak_rss_mb,
    percentile,
    probe_setup,
    reference_s,
    remove_tree,
    scratch_dir,
    setup_metric,
    span,
    speed_factor,
    tail,
)
from .inputs import sweep_inputs
from .tracing import Tracer, count_hits

#: Passes (cold + warm) in the traced phase, so per-layer totals cover fixed work.
TRACED_PASSES = 2
REL_TOL = 1e-9


def _put_bytes(tracer: Tracer, name: str, args, kwargs, result) -> None:
    tracer.add(name, "bytes", result.stat().st_size)


def _get_bytes(tracer: Tracer, name: str, args, kwargs, result) -> None:
    count_hits(tracer, name, args, kwargs, result)
    if result is not None:
        tracer.add(name, "bytes", sum(a.nbytes for a in result.values()))


def trace_sweep(tracer: Tracer) -> None:
    """Wrap the plan, runner and cache layers of the sweep path."""
    from repro.engine import cache, plan, runner

    tracer.wrap(plan.SweepSpec, "spec_hash", "plan.spec_hash")
    tracer.wrap(runner, "run_sweep", "runner.run_sweep")
    tracer.wrap(cache.SweepStore, "put_chunk", "cache.put_chunk", on_result=_put_bytes)
    tracer.wrap(cache.SweepStore, "get_chunk", "cache.get_chunk", on_result=_get_bytes)


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


@dataclass
class _Pass:
    """One cold + warm pass and its checks.

    Timings are scaled to the nominal machine speed by reference readings
    taken just before the cold run and just after the warm one.
    """

    cold_s: float
    warm_s: float
    chunk_s: list[float]
    ok: dict[str, bool]
    speed: float


def one_pass(spec, oracle: dict[int, dict], workdir, index: int, tracers=(None, None)) -> _Pass:
    from repro.engine import runner
    from repro.engine.cache import LRUCache, SweepStore

    n_chunks = math.ceil(spec.n_scenarios / runner.DEFAULT_CHUNK_SIZE)
    store_dir = workdir / f"store-{index}"
    store = SweepStore(store_dir)
    clock = time.perf_counter
    marks: list[float] = []

    def progress(done: int, total: int, source: str) -> None:
        marks.append(clock())

    cold_tracer, warm_tracer = tracers
    try:
        if cold_tracer is not None:
            trace_sweep(cold_tracer)
        try:
            gc.collect()
            before = reference_s()
            cold_start = clock()
            cold = runner.run_sweep(spec, store=store, memory_cache=LRUCache(), progress=progress)
            cold_s = clock() - cold_start
        finally:
            if cold_tracer is not None:
                cold_tracer.restore()
        if warm_tracer is not None:
            trace_sweep(warm_tracer)
        try:
            t0 = clock()
            warm = runner.run_sweep(spec, store=store, memory_cache=LRUCache())
            warm_s = clock() - t0
        finally:
            if warm_tracer is not None:
                warm_tracer.restore()
        speed = speed_factor(before, reference_s())
    finally:
        remove_tree(store_dir)
    # Each cold chunk's latency: evaluation plus store write, between two
    # progress callbacks (the first also covers the store-miss scan).
    chunk_s = np.diff([cold_start, *marks]).tolist()
    ok = {
        "cold pass computed every chunk": cold.meta.computed_chunks == n_chunks
        and cold.meta.disk_hits == 0,
        "warm pass read every chunk from disk": warm.meta.disk_hits == n_chunks
        and warm.meta.computed_chunks == 0,
        "cold and warm columns byte-identical": all(
            cold.columns[name].dtype == warm.columns[name].dtype
            and cold.columns[name].tobytes() == warm.columns[name].tobytes()
            for name in runner.COLUMNS
        ),
        "sampled rows match evaluate_scenario": all(
            _close(float(cold.columns[name][row]), float(expected[name]))
            for row, expected in oracle.items()
            for name in runner.COLUMNS
        ),
    }
    return _Pass(cold_s * speed, warm_s * speed, [s * speed for s in chunk_s], ok, speed)


def _merged(*tracers: Tracer) -> dict[str, dict]:
    """Layer tables of several tracers summed by layer name."""
    merged: dict[str, dict] = {}
    for tracer in tracers:
        for name, row in tracer.summary().items():
            into = merged.setdefault(name, {})
            for key, value in row.items():
                into[key] = into.get(key, 0) + value
    return merged


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.engine.runner import COLUMNS, evaluate_scenario
    from repro.node.calibration import build_node_model

    spec, rows = sweep_inputs(seed)
    node_model = build_node_model()
    oracle = {row: evaluate_scenario(spec, spec.scenario(row), node_model) for row in rows}
    out = Outcome()
    workdir = scratch_dir()
    try:
        setups = [] if trace else probe_setup("sweep-grid")
        passes: list[_Pass] = []
        t_end = time.perf_counter() + seconds
        while not passes or time.perf_counter() < t_end:
            passes.append(one_pass(spec, oracle, workdir, len(passes)))
        traced = []
        cold_tracer, warm_tracer = Tracer(), Tracer()
        if trace:
            for _ in range(TRACED_PASSES):
                traced.append(
                    one_pass(spec, oracle, workdir, len(passes) + len(traced), (cold_tracer, warm_tracer))
                )
    finally:
        remove_tree(workdir)

    for p in passes + traced:
        for name, ok in p.ok.items():
            out.check(name, ok)
        cold_ok = p.ok["cold pass computed every chunk"] and p.ok["sampled rows match evaluate_scenario"]
        warm_ok = p.ok["warm pass read every chunk from disk"] and p.ok["cold and warm columns byte-identical"]
        out.attempted += 2
        out.failed += (not cold_ok) + (not warm_ok)
    n = spec.n_scenarios
    # Medians over passes: a burst of machine noise moves one pass, not the figure.
    cold_rate = n / statistics.median(p.cold_s for p in passes)
    if not trace:
        chunk_ms = [s * 1e3 for p in passes for s in p.chunk_s]
        out.metrics.update(
            primary_per_s=cold_rate,
            secondary_per_s=n / statistics.median(p.warm_s for p in passes),
            op_p50_ms=percentile(chunk_ms, 50),
            op_tail_ms=tail(chunk_ms)[1],
            peak_rss_mb=peak_rss_mb(),
        )
        setup_metric(out, setups, "fresh processes building the node model")
        note = f"{len(passes)} passes of {n:,} rows"
        out.figure("sweep_cold_rows_per_s", cold_rate, "rows/s", note)
        out.figure("sweep_warm_rows_per_s", out.metrics["secondary_per_s"], "rows/s", note)
        out.figure("op_p50_ms", out.metrics["op_p50_ms"], "ms", f"cold chunk, {len(chunk_ms)} chunks")
        out.figure(f"op_tail_ms (p{tail(chunk_ms)[0]:.0f})", out.metrics["op_tail_ms"], "ms", f"cold chunk, {len(chunk_ms)} chunks")
        out.figure("peak_rss_mb", out.metrics["peak_rss_mb"], "MB", "benchmark process")
        out.figure("machine_speed", statistics.median(p.speed for p in passes), "x nominal", "median over passes")
        return out

    cold, warm = cold_tracer.summary(), warm_tracer.summary()
    layers = out.layers = _merged(cold_tracer, warm_tracer)
    m = out.metrics
    m["plan.spec_hash.busy_s"] = span(layers, "plan.spec_hash")
    m["runner.run_sweep.cold_s"] = span(cold, "runner.run_sweep")
    m["runner.run_sweep.warm_s"] = span(warm, "runner.run_sweep")
    m["runner.compute_self_s"] = (
        m["runner.run_sweep.cold_s"] - span(cold, "cache.put_chunk") - span(cold, "cache.get_chunk")
    )
    m["runner.computed_bytes"] = n * len(COLUMNS) * 8 * len(traced)
    for op in ("put_chunk", "get_chunk"):
        m[f"cache.{op}.count"] = span(layers, f"cache.{op}", "count")
        m[f"cache.{op}.busy_s"] = span(layers, f"cache.{op}")
        m[f"cache.{op}.bytes"] = span(layers, f"cache.{op}", "bytes")
    m["cache.store.hit_ratio"] = span(layers, "cache.get_chunk", "hits") / m["cache.get_chunk.count"]
    out.overhead(cold_rate, n / statistics.median(p.cold_s for p in traced))
    out.traced_work = (
        2 * n * len(traced),
        "rows",
        m["runner.run_sweep.cold_s"] + m["runner.run_sweep.warm_s"],
        statistics.median(p.speed for p in traced),
    )
    return out
