"""monitor-replay: days of ~86 ms cabinet power through the supervised monitor.

Each replay builds ``build_monitor(supervisor_config=...)`` on its default
hot path, with periodic checkpoints to a temporary file, and runs the
seeded power and CI streams through it. A change alert must fire near each
true step with segment means within 1 % of truth, the sample accounting
must reconcile with nothing dropped, and every replay of one seed must
produce the same alerts, segments and counters.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .common import (
    Outcome,
    SpeedTrack,
    peak_rss_mb,
    percentile,
    probe_setup,
    remove_tree,
    scratch_dir,
    setup_metric,
    span,
    tail,
)
from .inputs import MonitorInputs, monitor_inputs
from .tracing import Tracer

POWER_BATCH = 4096
#: Power batches between two machine-speed readings inside a replay.
READ_EVERY = 100
#: Carbon intensity arrives one half-hourly sample at a time, as it would live.
CI_BATCH = 1
CHECKPOINT_EVERY_S = 6 * 3600.0
#: A change alert's onset must fall this close to the true step.
ONSET_TOLERANCE_S = 600.0
LEVEL_TOLERANCE = 0.01


def _samples(tracer: Tracer, name: str, args, kwargs, result) -> None:
    tracer.add(name, "samples", len(args[1]))


def _file_bytes(tracer: Tracer, name: str, args, kwargs, result) -> None:
    tracer.add(name, "bytes", Path(args[0]).stat().st_size)


def trace_monitor(tracer: Tracer) -> None:
    """Wrap the processors, advisor, checkpoint writer and pipeline loop."""
    from repro.live import advisor, cusum, pipeline, processors, regime, supervisor

    tracer.wrap(cusum.OnlineCusum, "process", "cusum.process", on_result=_samples)
    tracer.wrap(processors.WindowedRollup, "process", "rollup.process", on_result=_samples)
    tracer.wrap(regime.RegimeTracker, "process", "regime.process", on_result=_samples)
    tracer.wrap(advisor.InterventionAdvisor, "observe", "advisor.observe")
    tracer.wrap(supervisor.SupervisedPipeline, "checkpoint", "checkpoint.snapshot")
    tracer.wrap(supervisor, "save_checkpoint", "checkpoint.save", on_result=_file_bytes)
    tracer.wrap(pipeline.MonitorPipeline, "run", "pipeline.run")


@dataclass
class Replay:
    """What one replay leaves behind: timings, an output fingerprint, checks.

    Timings are scaled to the nominal machine speed by reference readings
    taken before the build, every :data:`READ_EVERY` power batches (untraced
    replays only) and after the report.
    """

    #: Seconds inside ``pipeline.run``.
    elapsed_s: float
    #: Seconds from ``build_monitor`` to the finished report.
    total_s: float
    #: Each power batch's latency, seconds.
    batch_s: list[float]
    fingerprint: str
    checks: dict[str, bool]
    samples_dropped: int
    dead_lettered: int
    #: Median machine speed over the replay.
    speed: float
    #: Unscaled seconds inside ``pipeline.run``, readings left out.
    raw_s: float


def replay(inputs: MonitorInputs, checkpoint_path, tracer: Tracer | None = None) -> Replay:
    """Build the supervised monitor on its default path and replay the inputs."""
    from repro.live.checkpoint import alert_to_dict
    from repro.live.events import CI_STREAM, POWER_STREAM, series_batches
    from repro.live.monitor import build_monitor
    from repro.live.supervisor import SupervisorConfig

    clock = time.perf_counter
    gc.collect()
    track = SpeedTrack()
    t_build = clock()
    config = SupervisorConfig(checkpoint_path=checkpoint_path, checkpoint_every_s=CHECKPOINT_EVERY_S)
    pipeline, detector, _, _ = build_monitor(supervisor_config=config)
    marks: list[float] = []
    # A traced replay reads only at its ends, so no reading lands in a span.
    read_every = READ_EVERY if tracer is None else 0

    def marked(source):
        for i, batch in enumerate(source):
            if read_every and i and i % read_every == 0:
                track.read()
            marks.append(clock())
            yield batch

    power = marked(series_batches(POWER_STREAM, inputs.power, POWER_BATCH))
    ci = series_batches(CI_STREAM, inputs.ci, CI_BATCH)
    if tracer is not None:
        power = tracer.wrap_iterable(power, "events.source", count_key="batches")
        ci = tracer.wrap_iterable(ci, "events.source", count_key="batches")
    t0 = clock()
    report = pipeline.run(power, ci)
    t_end = clock()
    track.read()
    metrics = report.metrics
    fingerprint = json.dumps(
        {
            "alerts": [alert_to_dict(a) for a in report.alerts],
            "segments": [(s.start_time_s, s.end_time_s, s.n, s.mean, s.std) for s in detector.segments],
            "metrics": metrics.state_dict(),
        }
    )
    # A power batch's latency: from pulling it to pulling the next one.
    at = track.scaled
    return Replay(
        elapsed_s=at(t_end) - at(t0),
        total_s=at(t_end) - at(t_build),
        batch_s=np.diff([at(t) for t in (*marks, t_end)]).tolist(),
        fingerprint=fingerprint,
        checks=replay_checks(report, detector, inputs),
        samples_dropped=metrics.total_samples_dropped,
        dead_lettered=metrics.total_samples_dead_lettered,
        speed=statistics.median(track.speeds()),
        raw_s=t_end - t0 - sum(end - start for start, end, _ in track.readings[1:-1]),
    )


def replay_checks(report, detector, inputs: MonitorInputs) -> dict[str, bool]:
    """The output checks of one replay, by name."""
    from repro.live.alerts import AdviceAlert, ChangePointAlert, RegimeChangeAlert
    from repro.live.events import POWER_STREAM

    metrics = report.metrics
    onsets = [a.onset_time_s for a in report.alerts_of(ChangePointAlert) if a.stream == POWER_STREAM]

    def true_level(t: float) -> float:
        return inputs.levels_kw[sum(t >= step for step in inputs.step_times_s)]

    # Over millions of noisy samples the detector may also split a flat
    # stretch; such a segment still has to match the level it lies in.
    return {
        "a change alert near each step": all(
            any(abs(onset - step) <= ONSET_TOLERANCE_S for onset in onsets)
            for step in inputs.step_times_s
        ),
        "segment means within 1 % of truth": all(
            abs(s.mean - level) <= LEVEL_TOLERANCE * level
            for s in detector.segments
            for level in [true_level(0.5 * (s.start_time_s + s.end_time_s))]
        ),
        "accounting reconciles": metrics.reconciles(),
        "no samples dropped or dead-lettered": metrics.total_samples_dropped == 0
        and metrics.total_samples_dead_lettered == 0,
        "checkpoints written": metrics.checkpoints_written > 0,
        "regime tracker and advisor fired": bool(report.alerts_of(RegimeChangeAlert))
        and bool(report.alerts_of(AdviceAlert)),
    }


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    inputs = monitor_inputs(seed)
    n_samples = len(inputs.power) + len(inputs.ci)
    out = Outcome()
    workdir = scratch_dir()
    checkpoint = workdir / "monitor.ckpt"
    try:
        setups = [] if trace else probe_setup("monitor-replay")
        replays: list[Replay] = []
        t_end = time.perf_counter() + seconds
        while not replays or time.perf_counter() < t_end:
            replays.append(replay(inputs, checkpoint))
        traced = None
        tracer = Tracer()
        if trace:
            trace_monitor(tracer)
            try:
                traced = replay(inputs, checkpoint, tracer=tracer)
            finally:
                tracer.restore()
    finally:
        remove_tree(workdir)

    reference = replays[0].fingerprint
    for run_ in replays + ([traced] if traced else []):
        ok = all([out.check(name, held) for name, held in run_.checks.items()])
        ok = out.check("replays of one seed identical", run_.fingerprint == reference) and ok
        out.attempted += 1
        out.failed += not ok

    # Medians over replays: a burst of machine noise moves one replay, not the figure.
    rate = n_samples / statistics.median(r.elapsed_s for r in replays)
    if not trace:
        batch_ms = [s * 1e3 for r in replays for s in r.batch_s]
        out.metrics.update(
            primary_per_s=rate,
            secondary_per_s=n_samples / statistics.median(r.total_s for r in replays),
            op_p50_ms=percentile(batch_ms, 50),
            op_tail_ms=tail(batch_ms)[1],
            peak_rss_mb=peak_rss_mb(),
        )
        setup_metric(out, setups, "fresh processes building the supervised monitor")
        note = f"{len(replays)} replays of {n_samples:,} samples"
        out.figure("monitor_samples_per_s", rate, "samples/s", note + ", pipeline.run")
        out.figure("secondary_per_s", out.metrics["secondary_per_s"], "samples/s", note + ", build_monitor to report")
        out.figure("op_p50_ms", out.metrics["op_p50_ms"], "ms", f"power batch, {len(batch_ms)} batches")
        out.figure(f"op_tail_ms (p{tail(batch_ms)[0]:.0f})", out.metrics["op_tail_ms"], "ms", f"power batch, {len(batch_ms)} batches")
        out.figure("peak_rss_mb", out.metrics["peak_rss_mb"], "MB", "benchmark process")
        out.figure("machine_speed", statistics.median(r.speed for r in replays), "x nominal", "median over replays")
        return out

    layers = out.layers = tracer.summary()
    m = out.metrics
    m["events.source.busy_s"] = span(layers, "events.source")
    m["events.batches"] = span(layers, "events.source", "batches")
    for proc in ("cusum", "rollup", "regime"):
        m[f"{proc}.process.busy_s"] = span(layers, f"{proc}.process")
        m[f"{proc}.process.samples"] = span(layers, f"{proc}.process", "samples")
    m["advisor.observe.count"] = span(layers, "advisor.observe", "count")
    m["advisor.observe.busy_s"] = span(layers, "advisor.observe")
    m["checkpoint.snapshot.busy_s"] = span(layers, "checkpoint.snapshot")
    m["checkpoint.save.count"] = span(layers, "checkpoint.save", "count")
    m["checkpoint.save.busy_s"] = span(layers, "checkpoint.save")
    m["checkpoint.save.bytes"] = span(layers, "checkpoint.save", "bytes")
    m["pipeline.self_s"] = span(layers, "pipeline.run", "self_s")
    m["pipeline.samples_dropped"] = traced.samples_dropped
    m["pipeline.dead_lettered"] = traced.dead_lettered
    out.overhead(rate, n_samples / traced.elapsed_s)
    out.traced_work = (n_samples, "samples", traced.raw_s, traced.elapsed_s / traced.raw_s)
    return out
