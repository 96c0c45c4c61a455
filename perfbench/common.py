"""Shared pieces of the benchmark: metric declarations, outcomes, set-up probes.

The metric tables here are the single source of truth; ``BENCHMARK.json``
at the repository root declares exactly the same names, units and bounds
(``test_perfbench.py`` checks that).
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, checkpoints and trace files (git-ignored).
WORKDIR = ROOT / ".perfbench"

WORKLOADS = ("service-mix", "sweep-grid", "monitor-replay", "sched-trace")

#: End-to-end metrics, reported by every workload with tracing off:
#: (name, unit, better, bound). The result format has one metric set shared
#: by all workloads, so each slot holds a different figure per workload;
#: NOTES.md maps every slot to the named figure it carries.
#: Timings get the widest bound the format allows: even scaled to a nominal
#: machine speed, they vary by several per cent from run to run on a shared
#: host (NOTES.md has the measured spreads).
END_TO_END = (
    ("primary_per_s", "1/s", "higher", 0.25),
    ("secondary_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: Service methods, each traced as its own router layer.
ROUTED_METHODS = ("emissions", "classify_regime", "advise", "efficiency", "sweep")

#: Per-layer metrics of each workload's traced run: (name, unit, better).
#: A workload reports 0 for every other workload's layers.
PER_LAYER = {
    "service-mix": (
        ("service.handle.count", "count", "higher"),
        ("service.handle.busy_s", "s", "lower"),
        ("envelope.from_wire.busy_s", "s", "lower"),
        ("envelope.request_key.busy_s", "s", "lower"),
        ("admission.admit.busy_s", "s", "lower"),
        ("admission.rejected", "count", "lower"),
        ("coalesce.wait_s", "s", "lower"),
        ("coalesce.joined_ratio", "ratio", "higher"),
        *(
            entry
            for method in ROUTED_METHODS
            for entry in (
                (f"router.dispatch.{method}.count", "count", "higher"),
                (f"router.dispatch.{method}.busy_s", "s", "lower"),
            )
        ),
        ("core.point_spec.busy_s", "s", "lower"),
        ("runner.evaluate_scenario.busy_s", "s", "lower"),
        ("service.run_sweep.busy_s", "s", "lower"),
        ("cache.lru.hit_ratio", "ratio", "higher"),
        ("runner.to_csv_rows.busy_s", "s", "lower"),
        ("http.residual_ms", "ms", "lower"),
    ),
    "sweep-grid": (
        ("plan.spec_hash.busy_s", "s", "lower"),
        ("runner.run_sweep.cold_s", "s", "lower"),
        ("runner.run_sweep.warm_s", "s", "lower"),
        ("runner.compute_self_s", "s", "lower"),
        ("runner.computed_bytes", "B", "higher"),
        ("cache.put_chunk.count", "count", "higher"),
        ("cache.put_chunk.busy_s", "s", "lower"),
        ("cache.put_chunk.bytes", "B", "lower"),
        ("cache.get_chunk.count", "count", "higher"),
        ("cache.get_chunk.busy_s", "s", "lower"),
        ("cache.get_chunk.bytes", "B", "lower"),
        ("cache.store.hit_ratio", "ratio", "higher"),
    ),
    "monitor-replay": (
        ("events.source.busy_s", "s", "lower"),
        ("events.batches", "count", "higher"),
        ("cusum.process.busy_s", "s", "lower"),
        ("cusum.process.samples", "count", "higher"),
        ("rollup.process.busy_s", "s", "lower"),
        ("rollup.process.samples", "count", "higher"),
        ("regime.process.busy_s", "s", "lower"),
        ("regime.process.samples", "count", "higher"),
        ("advisor.observe.count", "count", "higher"),
        ("advisor.observe.busy_s", "s", "lower"),
        ("checkpoint.snapshot.busy_s", "s", "lower"),
        ("checkpoint.save.count", "count", "higher"),
        ("checkpoint.save.busy_s", "s", "lower"),
        ("checkpoint.save.bytes", "B", "lower"),
        ("pipeline.self_s", "s", "lower"),
        ("pipeline.samples_dropped", "count", "lower"),
        ("pipeline.dead_lettered", "count", "lower"),
    ),
    "sched-trace": (
        ("backfill.run.busy_s", "s", "lower"),
        ("malleable.step.count", "count", "higher"),
        ("malleable.step.busy_s", "s", "lower"),
        ("malleable.step.p99_us", "us", "lower"),
        ("malleable.result.busy_s", "s", "lower"),
        ("accounting.trace_emissions.busy_s", "s", "lower"),
        ("sched.failures", "count", "higher"),
        ("sched.job_kills", "count", "higher"),
        ("sched.shifted", "count", "higher"),
        ("sched.shrinks", "count", "higher"),
        ("sched.grows", "count", "higher"),
    ),
}

#: Tracing overhead, reported by every workload's traced run.
TRACE_OVERHEAD = (
    ("trace.untraced_per_s", "1/s", "higher"),
    ("trace.traced_per_s", "1/s", "higher"),
    ("trace.throughput_ratio", "ratio", "higher"),
)


def per_layer_declared() -> tuple[tuple[str, str, str], ...]:
    """Every per-layer metric, in declaration order."""
    return tuple(m for w in WORKLOADS for m in PER_LAYER[w]) + TRACE_OVERHEAD


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    #: Named output checks; every one must hold for a correct run.
    checks: dict[str, bool] = field(default_factory=dict)
    #: Declared metric name -> value.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Human-facing figures: (name, value, unit, note).
    figures: list[tuple[str, float, str, str]] = field(default_factory=list)
    #: Full per-layer table of a traced run (for the trace file).
    layers: dict[str, dict] = field(default_factory=dict)
    #: Traced phase: (work units done, unit name, wall seconds, machine speed).
    #: The wall seconds and the layer table are raw clock readings.
    traced_work: tuple[float, str, float, float] = (0.0, "", 0.0, 1.0)

    def check(self, name: str, ok: bool) -> bool:
        """Record one output check (a check that ever fails stays failed)."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        return bool(ok)

    def figure(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.figures.append((name, float(value), unit, note))

    def overhead(self, untraced_per_s: float, traced_per_s: float) -> None:
        """Record the traced phase's throughput against the untraced one."""
        self.metrics["trace.untraced_per_s"] = untraced_per_s
        self.metrics["trace.traced_per_s"] = traced_per_s
        self.metrics["trace.throughput_ratio"] = traced_per_s / untraced_per_s


def span(layers: dict[str, dict], name: str, key: str = "busy_s") -> float:
    """One figure of a traced layer; the layer must have recorded spans.

    A wrapped entry point that never ran means the wrap no longer sits on
    the live call path, so the run fails instead of reporting 0.
    """
    row = layers.get(name)
    if not row or not row.get("count"):
        raise RuntimeError(f"traced run never entered layer {name!r}; the wrap is off the call path")
    return row.get(key, 0)


#: What :func:`reference_s` takes at the nominal machine speed, seconds.
REFERENCE_NOMINAL_S = 0.03


def reference_s() -> float:
    """Wall time of a fixed pure-Python kernel: the machine's speed right now.

    On a shared host the speed of a core drifts by a quarter or more over
    a few seconds. Timings taken right after and right before this kernel
    are scaled by :func:`speed_factor`, so that they read as if the machine
    ran at its nominal speed throughout.
    """
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(150_000):
        acc += (i % 7) * 0.5
        table[i & 1023] = acc
    return time.perf_counter() - t0


def speed_factor(before_s: float, after_s: float) -> float:
    """Scale for a timing taken between two :func:`reference_s` readings.

    Below 1 when the machine ran slower than nominal; a timing multiplied
    by it is the time the work would have taken at the nominal speed.
    """
    return REFERENCE_NOMINAL_S / statistics.fmean((before_s, after_s))


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The speed readings then describe the core the measured work runs on,
    and service-mix's client and server share that core.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedTrack:
    """Reference readings taken while a long timed region runs.

    :meth:`read` takes one reading. :meth:`scaled` maps a raw
    ``time.perf_counter()`` value to seconds at the nominal machine speed
    since the first reading. Each stretch between two readings is scaled by
    the speed they show, and the readings' own time is left out.
    """

    def __init__(self) -> None:
        #: (clock at start, clock at end, reference seconds) per reading.
        self.readings: list[tuple[float, float, float]] = []
        self.read()

    def read(self) -> None:
        t0 = time.perf_counter()
        ref = reference_s()
        self.readings.append((t0, time.perf_counter(), ref))

    def speeds(self) -> list[float]:
        return [speed_factor(a[2], b[2]) for a, b in zip(self.readings, self.readings[1:])]

    def scaled(self, t: float) -> float:
        total = 0.0
        for (_, end, _), (start, _, _), speed in zip(self.readings, self.readings[1:], self.speeds()):
            if t <= end:
                break
            total += (min(t, start) - end) * speed
        return total


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail(values) -> tuple[float, float]:
    """``(q, value)`` of the tail percentile of ``values``.

    The tail is the highest percentile, at most the 99th, that has ten or
    more samples beyond it, and never below the median: p99 from 1,000
    samples up, p60 from 25.
    """
    q = min(99.0, max(50.0, 100.0 * (1.0 - 10.0 / len(values))))
    return q, percentile(values, q)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict[str, str]:
    """Environment for child processes: the checkout's ``src`` importable,
    and one fixed hash seed, so dict and set layouts repeat across runs."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def scratch_dir() -> Path:
    """A fresh private directory under :data:`WORKDIR`."""
    WORKDIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORKDIR))


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def stop_process(proc: subprocess.Popen, timeout_s: float = 20.0) -> None:
    """Close a child's stdin, wait for it, kill it if it does not exit."""
    try:
        if proc.stdin is not None and not proc.stdin.closed:
            proc.stdin.close()
        proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


#: Fresh processes timed per set-up figure; the figure is their median.
SETUP_REPEATS = 3


def probe_setup(workload: str, repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds from process start until a fresh process has built the program.

    Each probe starts ``ready.py`` in a new interpreter, which imports the
    package and builds what ``workload`` needs (node model, monitor or
    schedulers); the clock stops when it reports ready. Each time is
    scaled to the nominal machine speed.
    """
    times = []
    script = Path(__file__).resolve().parent / "ready.py"
    for _ in range(repeats):
        before = reference_s()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(script), workload],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            env=child_env(),
            cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed: {line!r}")
        times.append(elapsed * speed_factor(before, reference_s()))
    return times


def setup_metric(out: Outcome, times: list[float], what: str) -> None:
    out.metrics["setup_s"] = statistics.median(times)
    out.figure("setup_s", out.metrics["setup_s"], "s", f"median of {len(times)} {what}")
