"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest perfbench -q

They check the metric declarations against ``BENCHMARK.json``, that seeded
inputs repeat byte for byte, that every tracing wrapper is put back, and
that tracing never changes what the program computes.
"""

from __future__ import annotations

import asyncio
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common, inputs, run  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared_names() -> list[str]:
    return [m[0] for m in common.END_TO_END] + [m[0] for m in common.per_layer_declared()]


def test_metric_names_are_well_formed_and_unique():
    names = declared_names()
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))


def test_benchmark_json_declares_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in common.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in common.per_layer_declared()
    ]
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_every_declared_metric_is_reported_with_its_unit(workload, trace):
    own = common.PER_LAYER[workload] + common.TRACE_OVERHEAD if trace else common.END_TO_END
    outcome = common.Outcome(metrics={name: 1.5 for name, *_ in own})
    reported = run.reported_metrics(workload, outcome, trace)
    declared = common.per_layer_declared() if trace else common.END_TO_END
    assert {name: m["unit"] for name, m in reported.items()} == {n: u for n, u, *_ in declared}
    assert all(reported[name]["value"] == 1.5 for name, *_ in own)
    del outcome.metrics[own[0][0]]
    with pytest.raises(RuntimeError, match="did not measure"):
        run.reported_metrics(workload, outcome, trace)


def test_a_layer_that_never_ran_fails_the_run():
    with pytest.raises(RuntimeError, match="never entered"):
        common.span({"a": {"count": 0, "busy_s": 0.0}}, "a")
    assert common.span({"a": {"count": 2, "busy_s": 0.5}}, "a") == 0.5


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert inputs.fingerprint(workload, 3) == inputs.fingerprint(workload, 3)
    assert inputs.fingerprint(workload, 3) != inputs.fingerprint(workload, 4)


def _tracers():
    from repro.service import FacilityService

    from perfbench.monitor_replay import trace_monitor
    from perfbench.sched_trace import trace_sched
    from perfbench.service_mix import trace_service
    from perfbench.sweep_grid import trace_sweep

    return {
        "service-mix": lambda t: trace_service(t, FacilityService(cache_dir=None)),
        "sweep-grid": trace_sweep,
        "monitor-replay": trace_monitor,
        "sched-trace": trace_sched,
    }


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_tracing_wrappers_restore_every_wrapped_function(workload):
    tracer = Tracer()
    _tracers()[workload](tracer)
    patched = list(tracer._patches)
    assert patched

    def current(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else vars(owner)[attr]

    assert all(current(owner, attr) is not raw for owner, attr, raw in patched)
    tracer.restore()
    assert all(current(owner, attr) is raw for owner, attr, raw in patched)


def test_sweep_outputs_identical_traced_and_untraced(tmp_path):
    from repro.engine.cache import LRUCache, SweepStore
    from repro.engine.plan import SweepSpec
    from repro.engine.runner import COLUMNS, run_sweep

    from perfbench.sweep_grid import trace_sweep

    spec = SweepSpec(utilisations=(0.5, 0.7, 0.9), node_counts=(1024, 4096), lifetimes_years=(4.0, 6.0))

    def once(store_dir, tracer=None):
        if tracer is not None:
            trace_sweep(tracer)
        try:
            cold = run_sweep(spec, store=SweepStore(store_dir), memory_cache=LRUCache())
            warm = run_sweep(spec, store=SweepStore(store_dir), memory_cache=LRUCache())
        finally:
            if tracer is not None:
                tracer.restore()
        return [r.columns[name].tobytes() for r in (cold, warm) for name in COLUMNS]

    tracer = Tracer()
    assert once(tmp_path / "plain") == once(tmp_path / "traced", tracer)
    assert tracer.layers["cache.put_chunk"].count > 0


def test_monitor_outputs_identical_traced_and_untraced(tmp_path, monkeypatch):
    from perfbench.monitor_replay import replay, trace_monitor

    monkeypatch.setattr(inputs, "MONITOR_DAYS", 0.3)
    data = inputs.monitor_inputs(5)
    plain = replay(data, tmp_path / "plain.ckpt")
    tracer = Tracer()
    trace_monitor(tracer)
    try:
        traced = replay(data, tmp_path / "traced.ckpt", tracer=tracer)
    finally:
        tracer.restore()
    assert plain.fingerprint == traced.fingerprint
    assert tracer.layers["cusum.process"].count > 0


def test_sched_outputs_identical_traced_and_untraced(monkeypatch):
    from repro.facility.failures import FailureModel, FaultConfig
    from repro.node.calibration import build_node_model
    from repro.scheduler import StaticEnvironment

    from perfbench.sched_trace import Pass, trace_sched

    monkeypatch.setattr(inputs, "SCHED_DAYS", 2.0)
    data = inputs.sched_inputs(5)
    environment = StaticEnvironment(node_model=build_node_model())
    faults = FaultConfig(model=FailureModel(mtbf_hours=200.0, mttr_hours=12.0), seed=data.fault_seed)
    plain = Pass(data, environment, faults, 5)
    tracer = Tracer()
    trace_sched(tracer)
    try:
        traced = Pass(data, environment, faults, 5)
    finally:
        tracer.restore()
    assert plain.fingerprints == traced.fingerprints
    assert tracer.layers["malleable.step"].count > 0


def test_service_outputs_identical_traced_and_untraced():
    from repro.service import FacilityService

    from perfbench.service_mix import trace_service

    data = inputs.service_inputs(5, n_requests=120)
    requests = [json.loads(body) for body, kind in zip(data.bodies, data.expect) if kind[0] == "ok"]

    async def answers(tracer=None):
        service = FacilityService(cache_dir=None)
        if tracer is not None:
            trace_service(tracer, service)
        try:
            return [(await service.handle(request)).wire_json() for request in requests]
        finally:
            if tracer is not None:
                tracer.restore()
            await service.drain()

    tracer = Tracer()
    assert asyncio.run(answers()) == asyncio.run(answers(tracer))
    assert tracer.layers["service.handle"].count == len(requests)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_short_run_prints_every_declared_metric(trace, tmp_path):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "sched-trace",
           "--seed", "2", "--seconds", "0.1", "--trace", trace, "--trace-out", str(tmp_path / "t.json")]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = common.per_layer_declared() if trace == "1" else common.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {n: u for n, u, *_ in declared}


def test_trace_diff_attributes_the_end_to_end_change(tmp_path, capsys):
    from perfbench import trace_diff

    def table(path, elapsed_s, hot_s):
        layers = {"hot": {"count": 1, "busy_s": hot_s, "self_s": hot_s},
                  "cold": {"count": 1, "busy_s": 0.1, "self_s": 0.1}}
        path.write_text(json.dumps({"workload": "w", "seed": 1, "units": 1000, "unit": "rows",
                                    "elapsed_s": elapsed_s, "layers": layers}))
        return path

    before = table(tmp_path / "a.json", 1.0, 0.8)
    after = table(tmp_path / "b.json", 0.6, 0.4)
    e2e_before, e2e_after, rows = trace_diff.diff_rows(
        trace_diff.load(before), trace_diff.load(after)
    )
    assert (e2e_before, e2e_after) == pytest.approx((1000.0, 600.0))
    assert rows[0][0] == "hot" and rows[0][4] == pytest.approx(1.0)
    assert rows[1][0] == "cold" and rows[1][4] == pytest.approx(0.0)
    assert trace_diff.main([str(before), str(after)]) == 0
    assert "hot" in capsys.readouterr().out
