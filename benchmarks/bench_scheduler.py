"""Bench S3 — carbon-aware malleable scheduling at large trace scale.

A multi-month synthetic trace (100k jobs in the CI smoke configuration;
set ``REPRO_BENCH_SCHED_JOBS=1000000`` for the full million-job run —
roughly 10× the wall time, same gates) runs through rigid EASY backfill
and the carbon-aware malleable scheduler against a 'balanced' grid
scenario whose CI crosses the paper's 100 gCO₂/kWh boundary daily.

Shape criteria:

* malleable scope-2 emissions are *strictly* below rigid on the same trace;
* a rerun under the same seed is byte-identical (trace arrays compared as
  raw bytes, records compared exactly);
* a mid-trace checkpoint (JSON round-trip) resumed to completion is
  byte-identical to the uninterrupted run;
* the job-conservation identity holds: jobs in == completed + running +
  queued;
* bounded-stretch deltas are reported so the responsiveness cost of the
  carbon savings stays visible.
"""

import json
import os
import time

import numpy as np

from repro.core.reporting import render_table
from repro.grid.carbon_intensity import CarbonIntensityModel
from repro.node import build_node_model
from repro.scheduler import (
    BackfillScheduler,
    MalleableScheduler,
    StaticEnvironment,
    trace_emissions_tco2e,
)
from repro.workload.generator import JobStreamConfig, JobStreamGenerator
from repro.workload.mix import archer2_mix

N_JOBS = int(os.environ.get("REPRO_BENCH_SCHED_JOBS", "100000"))
N_NODES = 1024
SEED = 20230501


def _build_trace():
    rng = np.random.default_rng(SEED)
    config = JobStreamConfig(
        n_facility_nodes=N_NODES,
        offered_load=0.95,
        mean_runtime_s=3600.0,
        max_job_nodes=N_NODES // 4,
        malleable_fraction=0.5,
        shift_slack_mean_s=2.0 * 3600.0,
    )
    generator = JobStreamGenerator(archer2_mix(), config, rng)
    jobs = generator.generate(N_JOBS)
    t_end_s = jobs[-1].submit_time_s + 6.0 * 3600.0
    ci = CarbonIntensityModel.from_scenario("balanced").series(
        0.0, t_end_s + 86400.0, 1800.0, rng
    )
    return jobs, t_end_s, ci


def _trace_bytes(trace) -> bytes:
    return (
        trace.times_s.tobytes()
        + trace.busy_power_w.tobytes()
        + trace.busy_nodes.tobytes()
    )


def _run() -> dict:
    jobs, t_end_s, ci = _build_trace()
    environment = StaticEnvironment(node_model=build_node_model())

    t0 = time.perf_counter()
    rigid = BackfillScheduler(N_NODES).run(jobs, t_end_s, environment)
    t_rigid = time.perf_counter() - t0

    scheduler = MalleableScheduler(N_NODES, environment, ci, seed=SEED)

    t0 = time.perf_counter()
    malleable = scheduler.run(jobs, t_end_s)
    t_malleable = time.perf_counter() - t0

    # Gate 2: byte-identical rerun under the fixed seed.
    rerun = scheduler.run(jobs, t_end_s)
    rerun_identical = (
        _trace_bytes(rerun.trace) == _trace_bytes(malleable.trace)
        and rerun.records == malleable.records
        and rerun.n_completed == malleable.n_completed
    )

    # Gate 3: kill mid-trace, JSON round-trip the snapshot, resume.
    sim = scheduler.simulation(jobs, t_end_s)
    for _ in range(3 * N_JOBS // 2):  # roughly mid-trace (≈4 events per job)
        if not sim.step():
            break
    snapshot = json.loads(json.dumps(sim.state_dict()))
    resumed_sim = scheduler.simulation(jobs, t_end_s)
    resumed_sim.load_state_dict(snapshot)
    resumed = resumed_sim.run_to_completion()
    resume_identical = (
        _trace_bytes(resumed.trace) == _trace_bytes(malleable.trace)
        and resumed.records == malleable.records
    )

    return {
        "n_jobs": len(jobs),
        "span_days": t_end_s / 86400.0,
        "t_rigid": t_rigid,
        "t_malleable": t_malleable,
        "rigid_tco2e": trace_emissions_tco2e(rigid.trace, ci),
        "malleable_tco2e": trace_emissions_tco2e(malleable.trace, ci),
        "rigid_kwh": rigid.total_energy_kwh(),
        "malleable_kwh": malleable.total_energy_kwh(),
        "rigid_stretch": rigid.mean_bounded_stretch(),
        "malleable_stretch": malleable.mean_bounded_stretch(),
        "rigid_p95_stretch": rigid.p95_bounded_stretch(),
        "malleable_p95_stretch": malleable.p95_bounded_stretch(),
        "reconciles": malleable.reconciles(),
        "n_completed": malleable.n_completed,
        "n_running": malleable.n_running_at_end,
        "n_queued": malleable.n_queued_at_end,
        "n_shifted": malleable.n_shifted,
        "n_shrinks": malleable.n_shrinks,
        "n_grows": malleable.n_grows,
        "rerun_identical": rerun_identical,
        "resume_identical": resume_identical,
    }


def test_malleable_scheduler_at_scale(once):
    r = once(_run)
    saving_tco2e = r["rigid_tco2e"] - r["malleable_tco2e"]
    rows = [
        ["Trace", f"{r['n_jobs']:,} jobs over {r['span_days']:.0f} days on {N_NODES} nodes"],
        ["Rigid EASY backfill", f"{r['t_rigid']:.1f} s, {r['rigid_tco2e']:.2f} tCO2e, {r['rigid_kwh']:,.0f} kWh"],
        ["Malleable (carbon-aware)", f"{r['t_malleable']:.1f} s, {r['malleable_tco2e']:.2f} tCO2e, {r['malleable_kwh']:,.0f} kWh"],
        ["Emissions saving", f"{saving_tco2e:.2f} tCO2e ({saving_tco2e / r['rigid_tco2e']:.1%})"],
        ["Mean bounded stretch", f"rigid {r['rigid_stretch']:.3f} -> malleable {r['malleable_stretch']:.3f}"],
        ["p95 bounded stretch", f"rigid {r['rigid_p95_stretch']:.3f} -> malleable {r['malleable_p95_stretch']:.3f}"],
        ["Reshape/shift actions", f"{r['n_shifted']:,} shifted, {r['n_shrinks']:,} shrinks, {r['n_grows']:,} grows"],
        ["Job conservation", f"{r['n_completed']:,} completed + {r['n_running']:,} running + {r['n_queued']:,} queued"],
        ["Seeded rerun byte-identical", str(r["rerun_identical"])],
        ["Checkpoint/resume byte-identical", str(r["resume_identical"])],
    ]
    print()
    print(render_table(["Quantity", "Value"], rows, title="Carbon-aware malleable scheduling"))

    assert r["n_jobs"] >= 100_000
    assert r["span_days"] >= 60.0  # multi-month
    assert r["malleable_tco2e"] < r["rigid_tco2e"]  # lint: exact-float
    assert r["reconciles"]
    assert r["rerun_identical"]
    assert r["resume_identical"]
    assert r["n_shrinks"] > 0 and r["n_grows"] > 0 and r["n_shifted"] > 0


# --- fault injection -------------------------------------------------------
#
# The same trace, now on an imperfect machine: seeded node failures at the
# CLI-default MTBF/MTTR kill jobs, requeue them with backoff, and drain
# capacity while nodes repair. Gates: the extended conservation identities
# hold (delivered + wasted node-hours reconcile against the trace), the
# measured mean unavailability lands within 2x of the two-state Markov
# steady state MTTR/(MTBF+MTTR), and both a seeded rerun and a mid-fault
# kill/resume stay byte-identical — for the malleable run and, on the same
# event loop and fault path, for rigid EASY backfill.

MTBF_HOURS = 4380.0
MTTR_HOURS = 12.0


def _identical(a, b) -> bool:
    return (
        _trace_bytes(a.trace) == _trace_bytes(b.trace)
        and a.records == b.records
        and a.faults == b.faults
    )


def _rerun_and_resume(new_simulation, reference) -> tuple[bool, bool]:
    """Seeded-rerun and mid-fault kill/resume byte-identity against
    ``reference``; ``new_simulation()`` builds a fresh run of the trace."""
    rerun_identical = _identical(new_simulation().run_to_completion(), reference)
    # Kill mid-trace while faults are in flight, JSON round-trip, resume.
    sim = new_simulation()
    for _ in range(3 * N_JOBS // 2):
        if not sim.step():
            break
    snapshot = json.loads(json.dumps(sim.state_dict()))
    resumed_sim = new_simulation()
    resumed_sim.load_state_dict(snapshot)
    return rerun_identical, _identical(resumed_sim.run_to_completion(), reference)


def _run_faulted() -> dict:
    from repro.facility.failures import FailureModel, FaultConfig

    jobs, t_end_s, ci = _build_trace()
    environment = StaticEnvironment(node_model=build_node_model())
    fault_config = FaultConfig(
        model=FailureModel(mtbf_hours=MTBF_HOURS, mttr_hours=MTTR_HOURS),
        seed=SEED,
    )

    scheduler = MalleableScheduler(
        N_NODES, environment, ci, seed=SEED, fault_config=fault_config
    )

    t0 = time.perf_counter()
    faulted = scheduler.run(jobs, t_end_s)
    t_faulted = time.perf_counter() - t0
    rerun_identical, resume_identical = _rerun_and_resume(
        lambda: scheduler.simulation(jobs, t_end_s), faulted
    )

    rigid_scheduler = BackfillScheduler(N_NODES, fault_config=fault_config)
    t0 = time.perf_counter()
    rigid = rigid_scheduler.run(jobs, t_end_s, environment)
    t_rigid = time.perf_counter() - t0
    rigid_rerun_identical, rigid_resume_identical = _rerun_and_resume(
        lambda: rigid_scheduler.simulation(jobs, t_end_s, environment), rigid
    )

    span_s = faulted.t_end_s - faulted.t_start_s
    return {
        "t_faulted": t_faulted,
        "t_rigid": t_rigid,
        "rigid_faults": rigid.faults,
        "rigid_reconciles": rigid.reconciles(),
        "rigid_rerun_identical": rigid_rerun_identical,
        "rigid_resume_identical": rigid_resume_identical,
        "span_days": span_s / 86400.0,
        "faults": faulted.faults,
        "measured_unavailability": faulted.faults.mean_unavailability(
            N_NODES, span_s
        ),
        "steady_state": fault_config.model.steady_state_unavailability,
        "reconciles": faulted.reconciles(),
        "n_completed": faulted.n_completed,
        "n_failed_terminal": faulted.faults.n_failed_terminal,
        "rerun_identical": rerun_identical,
        "resume_identical": resume_identical,
    }


def test_faulted_scheduler_at_scale(once):
    r = once(_run_faulted)
    acct, rigid_acct = r["faults"], r["rigid_faults"]
    rows = [
        ["Fault model", f"MTBF {MTBF_HOURS:g} h, MTTR {MTTR_HOURS:g} h, seed {SEED}"],
        ["Faulted run", f"{r['t_faulted']:.1f} s over {r['span_days']:.0f} days"],
        ["Node failures", f"{acct.n_failures:,} ({acct.n_job_kills:,} job kills, {acct.n_retries:,} retries, {acct.n_failed_terminal:,} terminal)"],
        ["Wasted", f"{acct.wasted_node_hours:,.0f} node-h, {acct.wasted_energy_kwh:,.0f} kWh"],
        ["Drained", f"{acct.drained_node_hours:,.0f} node-h"],
        ["Mean unavailability", f"{r['measured_unavailability']:.5f} (steady state {r['steady_state']:.5f})"],
        ["Conservation reconciles", str(r["reconciles"])],
        ["Seeded rerun byte-identical", str(r["rerun_identical"])],
        ["Mid-fault kill/resume byte-identical", str(r["resume_identical"])],
        ["Rigid faulted run", f"{r['t_rigid']:.1f} s, {rigid_acct.n_failures:,} failures, {rigid_acct.n_job_kills:,} job kills, {rigid_acct.wasted_node_hours:,.0f} wasted node-h"],
        ["Rigid conservation reconciles", str(r["rigid_reconciles"])],
        ["Rigid seeded rerun byte-identical", str(r["rigid_rerun_identical"])],
        ["Rigid mid-fault kill/resume byte-identical", str(r["rigid_resume_identical"])],
    ]
    print()
    print(render_table(["Quantity", "Value"], rows, title="Scheduling under injected faults"))

    assert acct.n_failures > 0 and acct.n_job_kills > 0
    assert r["reconciles"]
    assert r["steady_state"] / 2.0 <= r["measured_unavailability"] <= r["steady_state"] * 2.0
    assert r["rerun_identical"]
    assert r["resume_identical"]
    assert rigid_acct.n_failures > 0 and rigid_acct.n_job_kills > 0
    assert r["rigid_reconciles"]
    assert r["rigid_rerun_identical"]
    assert r["rigid_resume_identical"]
