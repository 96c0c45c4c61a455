"""Oracle parity: the vectorised hot path must be bit-identical.

``OnlineCusum.process`` and ``RegimeTracker.process`` always run the
vectorised code. Their per-sample loops, ``_process_scalar``, stay only as
the oracle, selected here by binding ``process`` to ``_process_scalar`` on
each instance (:func:`use_oracle`). Every scenario in ``SCENARIO_BUILDERS``
is replayed both ways — clean and under the full chaos-injector suite, in
batches from one sample to 65,536 — and the alerts, segments, transitions,
metrics and per-processor checkpoint state must match exactly
(string-equal JSON and byte-equal saved checkpoints, not approximately).
Checkpoints written on one path
must resume on the other and still finish bit-identical to an
uninterrupted run.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.live.checkpoint import alert_to_dict, save_checkpoint
from repro.live.cusum import CusumConfig, OnlineCusum
from repro.live.events import CI_STREAM, POWER_STREAM, StreamBatch
from repro.live.faults import FAULT_NAMES
from repro.live.monitor import build_monitor
from repro.live.regime import RegimeTracker
from repro.live.replay import (
    SCENARIO_BUILDERS,
    build_scenario,
    piecewise_power_scenario,
    scenario_sources,
)
from repro.live.supervisor import SupervisorConfig
from repro.telemetry.meters import MeterSpec

#: Short enough to keep the matrix fast, long enough to cross the fig2/fig3
#: interventions and several regime plateaus.
DURATION_DAYS = 30.0


def use_oracle(*processors):
    """Route each processor's ``process`` to its per-sample oracle loop."""
    for processor in processors:
        processor.process = processor._process_scalar


def monitor(oracle, **kwargs):
    """``build_monitor`` on the hot path, or with both detectors on the oracle."""
    pipeline, detector, tracker, advisor = build_monitor(**kwargs)
    if oracle:
        use_oracle(detector, tracker)
    return pipeline, detector, tracker, advisor


def fingerprint(report, detector, tracker):
    """Everything observable from a run, as one JSON string (NaN-safe)."""
    return json.dumps(
        {
            "alerts": [alert_to_dict(a) for a in report.alerts],
            "segments": [
                {
                    "start_time_s": s.start_time_s,
                    "end_time_s": s.end_time_s,
                    "n": s.n,
                    "mean": s.mean,
                    "std": s.std,
                }
                for s in detector.segments
            ],
            "transitions": [alert_to_dict(a) for a in tracker.transitions],
            "metrics": report.metrics.state_dict(),
            "detector_state": detector.state_dict(),
            "tracker_state": tracker.state_dict(),
        }
    )


def saved_checkpoint(pipeline):
    """The bytes of the checkpoint file ``pipeline`` writes now (exact, NaN-safe)."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "snapshot.ckpt"
        save_checkpoint(path, pipeline.checkpoint())
        return path.read_bytes()


def replay(scenario, batch_size, oracle, faults=None):
    """Replay a scenario. Returns the run's fingerprint plus its full saved
    checkpoint."""
    pipeline, detector, tracker, _ = monitor(oracle, supervisor_config=SupervisorConfig(seed=5))
    power, ci = scenario_sources(scenario, batch_size, faults=faults, fault_seed=7)
    report = pipeline.run(power, ci)
    return fingerprint(report, detector, tracker), saved_checkpoint(pipeline)


def dense_scenario():
    """Three days of 2 s power samples around a −210 kW step (129,600
    samples): a 65,536-sample batch spans many scan windows."""
    return piecewise_power_scenario(
        name="dense",
        description="2 s cadence BIOS step",
        levels_kw=(3220.0, 3010.0),
        change_days=(1.5,),
        duration_days=3.0,
        seed=17,
        settle_days=0.25,
        meter=MeterSpec(interval_s=2.0),
    )


def scenario_named(name):
    if name == "dense":
        return dense_scenario()
    return build_scenario(name, duration_days=DURATION_DAYS)


#: One-sample batches are how CI arrives live; 7 puts batch edges at odd
#: offsets; 4,096 and 65,536 are replay and catch-up slabs, larger than the
#: scan window, so one batch is scanned in several spans.
BATCH_MATRIX = [
    (name, batch)
    for name in sorted(SCENARIO_BUILDERS)
    for batch in (1, 7, 4096, 65536)
] + [("dense", 4096), ("dense", 65536)]


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
class TestCleanScenarios:
    def test_bit_identical(self, name):
        scenario = build_scenario(name, duration_days=DURATION_DAYS)
        assert replay(scenario, 512, oracle=False) == replay(scenario, 512, oracle=True)


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
class TestChaosScenarios:
    """Same property under the PR 3 fault suite: dropouts, duplicates,
    reorderings and spikes, supervised, with the full checkpoint payload
    (processors, advisor, metrics, alerts, RNG state) compared."""

    def test_bit_identical_under_chaos(self, name):
        scenario = build_scenario(name, duration_days=DURATION_DAYS)
        faults = list(FAULT_NAMES)
        fast = replay(scenario, 256, oracle=False, faults=faults)
        assert fast == replay(scenario, 256, oracle=True, faults=faults)


@pytest.mark.parametrize("name,batch", BATCH_MATRIX)
class TestBatchSizes:
    def test_clean(self, name, batch):
        scenario = scenario_named(name)
        assert replay(scenario, batch, oracle=False) == replay(scenario, batch, oracle=True)

    def test_chaos(self, name, batch):
        scenario = scenario_named(name)
        faults = list(FAULT_NAMES)
        fast = replay(scenario, batch, oracle=False, faults=faults)
        assert fast == replay(scenario, batch, oracle=True, faults=faults)


def chunked(times, values, sizes):
    """Split a series into consecutive batches of the given sizes (the
    last size repeats until the series is used up)."""
    lo, i = 0, 0
    while lo < len(values):
        size = sizes[min(i, len(sizes) - 1)]
        yield times[lo : lo + size], values[lo : lo + size]
        lo, i = lo + size, i + 1


def feed_both(make, series, sizes, stream):
    """Feed hot path and oracle the same chunking; both must raise alike,
    return equal alerts, and agree on ``state_dict`` after every batch."""
    fast, oracle = make(), make()
    use_oracle(oracle)
    times = np.arange(float(len(series)))
    values = np.asarray(series, dtype=float)
    for t, v in chunked(times, values, sizes):
        outcomes = []
        for processor in (fast, oracle):
            try:
                alerts = processor.process(StreamBatch(stream, t, v))
                outcomes.append(json.dumps([alert_to_dict(a) for a in alerts]))
            except ConfigurationError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert json.dumps(fast.state_dict()) == json.dumps(oracle.state_dict())


class TestEnvelopeFallback:
    """A span the scan cannot certify is replayed through the scalar
    recursion. The series below reaches that path: its first armed delta
    ``z - k`` is positive but inside the rounding envelope, so the scan
    cannot tell whether the statistic clamped to zero on that sample."""

    CONFIG = CusumConfig(warmup_samples=8)

    def series(self):
        warm = np.array([3230.0, 3210.0] * 4)  # μ̂ = 3,220, σ̂ = 10 exactly
        probe = OnlineCusum(POWER_STREAM, self.CONFIG)
        probe.process(StreamBatch(POWER_STREAM, np.arange(8.0), warm))
        mu, sigma, k = probe._mu, probe._sigma, self.CONFIG.drift_sigma
        first = mu + k * sigma
        while (first - mu) / sigma - k <= 0.0:
            first = float(np.nextafter(first, math.inf))
        climb = np.full(3000, mu + (k + 1e-3) * sigma)  # S⁺ creeps up, stays < h
        step = np.full(64, mu + 3.0 * sigma)  # then a real shift alarms
        return np.concatenate((warm, [first], climb, step))

    @pytest.mark.parametrize("batch", [64, 4096])
    def test_ambiguous_span_replays_bit_identically(self, batch):
        plans = []

        def make():
            detector = OnlineCusum(POWER_STREAM, self.CONFIG)
            plan_side = detector._plan_side

            def spy(*args):
                plans.append(plan_side(*args))
                return plans[-1]

            detector._plan_side = spy
            return detector

        feed_both(make, self.series(), [batch], POWER_STREAM)
        assert None in plans, "the series no longer reaches the fallback"


#: z-scores against the warm-up baseline (μ̂ = 100, σ̂ = 1, k = 0.5, h = 3):
#: 1.5 adds exactly 1.0 to S⁺, so three of them put it exactly on h and
#: the next sample decides the alarm; ±1e-12 probes either side of k.
Z_SCORES = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([1.5, 1.5, 0.5, 0.5 + 1e-12, 0.5 - 1e-12, -1.5, -0.5, 3.5]),
    st.just(math.nan),
)

#: Around both §2 boundaries and their ±5 hysteresis bands, plus NaN
#: dropouts and a negative sample, on which classify_ci raises mid-batch.
CI_VALUES = st.one_of(
    st.floats(0.0, 250.0),
    st.sampled_from([25.0, 30.0, 35.0, 95.0, 100.0, 105.0, 35.000001, 94.999999]),
    st.just(math.nan),
    st.just(-1.0),
)

BATCH_SIZES = st.lists(st.integers(1, 40), min_size=1, max_size=12)


class TestRandomChunkings:
    @settings(max_examples=80, deadline=None)
    @given(
        z=st.lists(Z_SCORES, min_size=16, max_size=400),
        sizes=BATCH_SIZES,
        span=st.sampled_from([3, 16, OnlineCusum._SCAN_SPAN]),
    )
    def test_cusum(self, z, sizes, span):
        def make():
            detector = OnlineCusum(
                POWER_STREAM,
                CusumConfig(threshold_sigma=3.0, drift_sigma=0.5, warmup_samples=8),
            )
            detector._SCAN_SPAN = span  # small windows put scan edges everywhere
            return detector

        warm = [101.0, 99.0] * 4
        feed_both(make, warm + [100.0 + x for x in z], sizes, POWER_STREAM)

    @settings(max_examples=80, deadline=None)
    @given(ci=st.lists(CI_VALUES, max_size=300), sizes=BATCH_SIZES)
    def test_regime(self, ci, sizes):
        feed_both(lambda: RegimeTracker(CI_STREAM), ci, sizes, CI_STREAM)


class Killed(RuntimeError):
    """Simulated hard kill of the monitor process."""


def kill_after(source, n_batches):
    for i, batch in enumerate(source):
        if i >= n_batches:
            raise Killed(f"killed after {n_batches} batches")
        yield batch


class TestCheckpointInterchangeability:
    """A checkpoint written by one path resumes under the other and the
    finished run is bit-identical to an uninterrupted reference."""

    FAULTS = list(FAULT_NAMES)

    def run_sources(self, pipeline, scenario, killed_after=None):
        power, ci = scenario_sources(
            scenario, batch_size=256, faults=self.FAULTS, fault_seed=9
        )
        if killed_after is not None:
            power = kill_after(power, killed_after)
        return pipeline.run(power, ci)

    def reference(self, scenario):
        pipeline, detector, tracker, _ = monitor(
            True, supervisor_config=SupervisorConfig(seed=3)
        )
        report = self.run_sources(pipeline, scenario)
        return report, tuple(detector.segments), tuple(tracker.transitions)

    @pytest.mark.parametrize(
        "write_oracle,resume_oracle",
        [(False, True), (True, False)],
        ids=["columnar-writes-scalar-resumes", "scalar-writes-columnar-resumes"],
    )
    def test_cross_path_resume(self, tmp_path, write_oracle, resume_oracle):
        scenario = build_scenario("fig2", duration_days=DURATION_DAYS)
        full_report, full_segments, full_transitions = self.reference(scenario)

        ckpt = tmp_path / "monitor.ckpt"
        cfg = SupervisorConfig(
            seed=3, checkpoint_path=ckpt, checkpoint_every_s=2 * 86400.0
        )
        victim, *_ = monitor(write_oracle, supervisor_config=cfg)
        with pytest.raises(Killed):
            self.run_sources(victim, scenario, killed_after=7)
        assert ckpt.exists()

        resumed, r_det, r_track, _ = monitor(resume_oracle, supervisor_config=cfg)
        resumed.resume_from(ckpt)
        report = self.run_sources(resumed, scenario)

        assert tuple(r_det.segments) == full_segments
        assert tuple(r_track.transitions) == full_transitions
        assert report.alerts == full_report.alerts
        resumed_state = report.metrics.state_dict()
        full_state = full_report.metrics.state_dict()
        # The reference run writes no checkpoints.
        resumed_state.pop("checkpoints_written")
        full_state.pop("checkpoints_written")
        assert resumed_state == full_state
        assert report.metrics.reconciles()
