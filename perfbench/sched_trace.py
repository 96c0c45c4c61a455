"""sched-trace: a multi-week faulted trace through both scheduler event loops.

Each pass runs the seeded trace through ``BackfillScheduler.run`` (rigid
EASY backfill) and ``MalleableScheduler.run``, both with seeded node
faults. Both results must reconcile, the malleable run must emit less than
the rigid one, and every pass of one seed must produce the same records
and power-trace bytes.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time

from .common import (
    Outcome,
    peak_rss_mb,
    percentile,
    probe_setup,
    reference_s,
    setup_metric,
    span,
    speed_factor,
    tail,
)
from .inputs import SCHED_MTBF_HOURS, SCHED_MTTR_HOURS, SCHED_NODES, SchedInputs, sched_inputs
from .tracing import Tracer

#: Passes in the traced phase, so per-layer totals and counts cover fixed work.
TRACED_PASSES = 2


def trace_sched(tracer: Tracer) -> None:
    """Wrap both event loops and the emissions accounting."""
    from repro.scheduler import accounting, backfill, malleable

    tracer.wrap(backfill.BackfillScheduler, "run", "backfill.run")
    tracer.wrap(malleable.MalleableSimulation, "step", "malleable.step", keep_durations=True)
    tracer.wrap(malleable.MalleableSimulation, "result", "malleable.result")
    tracer.wrap(accounting, "trace_emissions_tco2e", "accounting.trace_emissions")


def _fingerprint(result) -> str:
    trace = result.trace
    h = hashlib.sha256(trace.times_s.tobytes() + trace.busy_power_w.tobytes() + trace.busy_nodes.tobytes())
    h.update(repr(result.records).encode())
    return h.hexdigest()


class Pass:
    """One rigid plus one malleable run over the trace: timings, checks, counts.

    Timings are scaled to the nominal machine speed by reference readings
    taken just before and just after the two runs.
    """

    def __init__(self, inputs: SchedInputs, environment, fault_config, seed: int) -> None:
        from repro.scheduler import BackfillScheduler, MalleableScheduler, accounting

        clock = time.perf_counter
        jobs = list(inputs.jobs)
        gc.collect()
        before = reference_s()
        t0 = clock()
        rigid = BackfillScheduler(SCHED_NODES, fault_config=fault_config).run(
            jobs, inputs.t_end_s, environment
        )
        rigid_s = clock() - t0
        scheduler = MalleableScheduler(
            SCHED_NODES, environment, inputs.ci, seed=seed, fault_config=fault_config
        )
        t0 = clock()
        malleable = scheduler.run(jobs, inputs.t_end_s)
        malleable_s = clock() - t0
        self.speed = speed_factor(before, reference_s())
        self.rigid_s, self.malleable_s = rigid_s * self.speed, malleable_s * self.speed

        self.reconciles = (rigid.reconciles(), malleable.reconciles())
        self.tco2e = (
            accounting.trace_emissions_tco2e(rigid.trace, inputs.ci),
            accounting.trace_emissions_tco2e(malleable.trace, inputs.ci),
        )
        self.fingerprints = (_fingerprint(rigid), _fingerprint(malleable))
        self.failures = rigid.faults.n_failures + malleable.faults.n_failures
        self.job_kills = rigid.faults.n_job_kills + malleable.faults.n_job_kills
        self.shifted, self.shrinks, self.grows = (
            malleable.n_shifted,
            malleable.n_shrinks,
            malleable.n_grows,
        )


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.facility.failures import FailureModel, FaultConfig
    from repro.node.calibration import build_node_model
    from repro.scheduler import StaticEnvironment

    inputs = sched_inputs(seed)
    environment = StaticEnvironment(node_model=build_node_model())
    fault_config = FaultConfig(
        model=FailureModel(mtbf_hours=SCHED_MTBF_HOURS, mttr_hours=SCHED_MTTR_HOURS),
        seed=inputs.fault_seed,
    )
    out = Outcome()
    setups = [] if trace else probe_setup("sched-trace")
    passes: list[Pass] = []
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        passes.append(Pass(inputs, environment, fault_config, seed))
    tracer = Tracer()
    traced: list[Pass] = []
    if trace:
        trace_sched(tracer)
        try:
            traced = [Pass(inputs, environment, fault_config, seed) for _ in range(TRACED_PASSES)]
        finally:
            tracer.restore()

    reference = passes[0].fingerprints
    for p in passes + traced:
        rigid_ok = out.check("rigid result reconciles", p.reconciles[0])
        rigid_ok = out.check("rigid records and trace repeat", p.fingerprints[0] == reference[0]) and rigid_ok
        mall_ok = out.check("malleable result reconciles", p.reconciles[1])
        mall_ok = out.check("malleable tCO2e below rigid", p.tco2e[1] < p.tco2e[0]) and mall_ok
        mall_ok = out.check("malleable records and trace repeat", p.fingerprints[1] == reference[1]) and mall_ok
        out.attempted += 2
        out.failed += (not rigid_ok) + (not mall_ok)

    n_jobs = len(inputs.jobs)
    # Medians over passes: a burst of machine noise moves one pass, not the figure.
    rigid_rate = n_jobs / statistics.median(p.rigid_s for p in passes)
    if not trace:
        # A malleable run's wall time per 1,000 trace jobs.
        run_ms = [1e6 * p.malleable_s / n_jobs for p in passes]
        out.metrics.update(
            primary_per_s=rigid_rate,
            secondary_per_s=n_jobs / statistics.median(p.malleable_s for p in passes),
            op_p50_ms=percentile(run_ms, 50),
            op_tail_ms=tail(run_ms)[1],
            peak_rss_mb=peak_rss_mb(),
        )
        setup_metric(out, setups, "fresh processes building both schedulers")
        note = f"{len(passes)} passes of {n_jobs:,} jobs, {passes[0].failures} node failures per pass"
        out.figure("sched_rigid_jobs_per_s", rigid_rate, "jobs/s", note)
        out.figure("sched_malleable_jobs_per_s", out.metrics["secondary_per_s"], "jobs/s", note)
        out.figure("op_p50_ms", out.metrics["op_p50_ms"], "ms", f"malleable run per 1,000 jobs, {len(run_ms)} runs")
        out.figure(f"op_tail_ms (p{tail(run_ms)[0]:.0f})", out.metrics["op_tail_ms"], "ms", f"malleable run per 1,000 jobs, {len(run_ms)} runs")
        out.figure("tco2e_saving", passes[0].tco2e[0] - passes[0].tco2e[1], "tCO2e", "rigid minus malleable")
        out.figure("machine_speed", statistics.median(p.speed for p in passes), "x nominal", "median over passes")
        out.figure("peak_rss_mb", out.metrics["peak_rss_mb"], "MB", "benchmark process")
        return out

    layers = out.layers = tracer.summary()
    m = out.metrics
    m["backfill.run.busy_s"] = span(layers, "backfill.run")
    m["malleable.step.count"] = span(layers, "malleable.step", "count")
    m["malleable.step.busy_s"] = span(layers, "malleable.step")
    m["malleable.step.p99_us"] = percentile(tracer.layers["malleable.step"].durations_s, 99) * 1e6
    m["malleable.result.busy_s"] = span(layers, "malleable.result")
    m["accounting.trace_emissions.busy_s"] = span(layers, "accounting.trace_emissions")
    m["sched.failures"] = sum(p.failures for p in traced)
    m["sched.job_kills"] = sum(p.job_kills for p in traced)
    m["sched.shifted"] = sum(p.shifted for p in traced)
    m["sched.shrinks"] = sum(p.shrinks for p in traced)
    m["sched.grows"] = sum(p.grows for p in traced)
    # Overhead on both loops together: the rigid loop alone is barely wrapped.
    untraced_s = sum(p.rigid_s + p.malleable_s for p in passes)
    traced_s = sum(p.rigid_s + p.malleable_s for p in traced)
    out.overhead(2 * n_jobs * len(passes) / untraced_s, 2 * n_jobs * len(traced) / traced_s)
    raw_s = sum((p.rigid_s + p.malleable_s) / p.speed for p in traced)
    out.traced_work = (2 * n_jobs * len(traced), "jobs", raw_s, traced_s / raw_s)
    return out
