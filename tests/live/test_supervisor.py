"""Supervised pipeline tests: admission control and dead-lettering, crash
isolation with backoff/quarantine, staleness watchdogs and degraded-mode
advice, and the accounting identity under chaos."""

import numpy as np
import pytest

from repro.errors import MonitoringError
from repro.live.advisor import AdvisorConfig
from repro.live.alerts import (
    AdviceAlert,
    DataGapAlert,
    DeadLetterAlert,
    DegradedModeAlert,
    ProcessorCrashAlert,
    format_alert,
)
from repro.live.events import CI_STREAM, POWER_STREAM, StreamBatch
from repro.live.faults import FAULT_NAMES
from repro.live.monitor import build_monitor, run_monitor
from repro.live.processors import Processor
from repro.live.replay import build_scenario
from repro.live.supervisor import (
    DeadLetterStore,
    SupervisedPipeline,
    SupervisorConfig,
)

DAY = 86_400.0


def make_batch(stream=POWER_STREAM, t0=0.0, n=8, value=3220.0, dt=10.0):
    times = t0 + dt * np.arange(n)
    return StreamBatch(stream, times, np.full(n, float(value)))


class Recorder(Processor):
    """Counts what it receives; never alerts."""

    def __init__(self, stream):
        super().__init__(stream)
        self.samples = 0

    def process(self, batch):
        self.samples += len(batch)
        return []


class Flaky(Processor):
    """Raises whenever a batch reaches one of the scheduled crash times."""

    def __init__(self, stream, crash_times):
        super().__init__(stream)
        self.crash_times = list(crash_times)
        self.samples = 0

    def process(self, batch):
        if self.crash_times and batch.t_end_s >= self.crash_times[0]:
            self.crash_times.pop(0)
            raise RuntimeError("synthetic processor fault")
        self.samples += len(batch)
        return []


class TestAdmissionControl:
    def run_batches(self, batches, **cfg_kwargs):
        pipeline = SupervisedPipeline(
            supervisor_config=SupervisorConfig(**cfg_kwargs)
        )
        recorder = Recorder(POWER_STREAM)
        pipeline.add_processor(recorder)
        report = pipeline.run(batches)
        return pipeline, recorder, report

    def test_duplicate_batch_dead_lettered(self):
        first = make_batch(t0=0.0)
        pipeline, recorder, report = self.run_batches([first, first])
        assert recorder.samples == 8
        metrics = report.metrics
        assert metrics.samples_in[POWER_STREAM] == 16
        assert metrics.samples_dead_lettered[POWER_STREAM] == 8
        assert metrics.reconciles()
        (alert,) = report.alerts_of(DeadLetterAlert)
        assert "out-of-order or duplicate" in alert.reason
        assert "DEAD LETTER" in format_alert(alert)

    def test_out_of_order_batch_dead_lettered(self):
        late = make_batch(t0=0.0)
        pipeline, recorder, report = self.run_batches([make_batch(t0=1000.0), late])
        assert report.metrics.batches_dead_lettered[POWER_STREAM] == 1
        assert pipeline.dead_letters.total_samples == 8

    def test_backwards_stream_dead_lettered(self):
        """A batch that starts inside its stream's previous batch is
        dead-lettered whole and leaves the watermark where it was."""
        batches = [make_batch(t0=0.0), make_batch(t0=50.0), make_batch(t0=80.0)]
        pipeline, recorder, report = self.run_batches(batches)
        assert recorder.samples == 16
        assert report.metrics.samples_dead_lettered[POWER_STREAM] == 8
        (entry,) = pipeline.dead_letters.entries
        assert entry["t_start_s"] == 50.0
        assert entry["reason"] == "out-of-order or duplicate delivery"

    def test_boundary_duplicate_timestamp_dead_lettered(self):
        """A batch starting exactly where the previous one ended would
        duplicate that timestamp in the stream; starting one step later is
        fine."""
        first = make_batch(t0=0.0, n=4, dt=1.0)  # ends at t=3
        seam = make_batch(t0=3.0, n=4, dt=1.0)
        adjacent = make_batch(t0=4.0, n=4, dt=1.0)
        pipeline, recorder, report = self.run_batches([first, seam, adjacent])
        assert recorder.samples == 8
        assert report.metrics.batches_dead_lettered[POWER_STREAM] == 1
        (entry,) = pipeline.dead_letters.entries
        assert (entry["t_start_s"], entry["t_end_s"]) == (3.0, 6.0)
        assert report.metrics.reconciles()

    def test_unknown_stream_dead_lettered_not_fatal(self):
        batches = [make_batch(t0=0.0), make_batch(stream="rogue", t0=5.0)]
        pipeline, recorder, report = self.run_batches(batches)
        assert report.metrics.samples_dead_lettered["rogue"] == 8
        assert report.metrics.reconciles()

    def test_nonfinite_values_sanitised_to_nan(self):
        batch = StreamBatch(
            POWER_STREAM, [0.0, 1.0, 2.0], [3220.0, np.inf, -np.inf]
        )
        pipeline, recorder, report = self.run_batches([batch])
        assert report.metrics.samples_sanitised[POWER_STREAM] == 2
        assert recorder.samples == 3  # sanitised, not shed

    def test_dead_letter_store_bounded_but_totals_keep_counting(self):
        store = DeadLetterStore(capacity=2)
        for i in range(5):
            store.add(make_batch(t0=i * 1000.0), "test")
        assert len(store.entries) == 2
        assert store.total_batches == 5
        assert store.total_samples == 40

    def test_config_validation(self):
        with pytest.raises(MonitoringError):
            SupervisorConfig(max_restarts=-1)
        with pytest.raises(MonitoringError):
            SupervisorConfig(backoff_multiplier=0.5)
        with pytest.raises(MonitoringError):
            SupervisorConfig(dead_letter_capacity=0)
        durations = ("backoff_base_s", "backoff_cap_s", "staleness_timeout_s", "checkpoint_every_s")
        for duration in durations:
            with pytest.raises(MonitoringError, match=duration):
                SupervisorConfig(**{duration: float("nan")})


class TestCrashIsolation:
    def build(self, crash_times, **cfg_kwargs):
        cfg = SupervisorConfig(
            seed=1, backoff_base_s=3600.0, backoff_jitter_fraction=0.0, **cfg_kwargs
        )
        pipeline = SupervisedPipeline(supervisor_config=cfg)
        flaky = Flaky(POWER_STREAM, crash_times)
        healthy = Recorder(POWER_STREAM)
        pipeline.add_processor(flaky)
        pipeline.add_processor(healthy)
        return pipeline, flaky, healthy

    def flow(self, hours=10):
        return [make_batch(t0=h * 3600.0, n=6, dt=60.0) for h in range(hours)]

    def test_crash_is_isolated_from_healthy_processors(self):
        pipeline, flaky, healthy = self.build([2 * 3600.0])
        report = pipeline.run(self.flow())
        assert healthy.samples == 60  # untouched by its neighbour's crash
        (alert,) = report.alerts_of(ProcessorCrashAlert)
        assert alert.crashes == 1 and not alert.quarantined
        assert "synthetic processor fault" in alert.error
        assert report.metrics.reconciles()

    def test_backoff_skips_batches_then_restarts(self):
        pipeline, flaky, healthy = self.build([2 * 3600.0])
        report = pipeline.run(self.flow())
        # Crash at hour 2; backoff 1h ⇒ restarted in time for the hour-3 batch.
        assert report.metrics.processor_restarts == {"power_kw:Flaky": 1}
        assert flaky.samples == healthy.samples - 6  # lost only the crash batch

    def test_backoff_grows_exponentially(self):
        pipeline, flaky, healthy = self.build(
            [2 * 3600.0, 4 * 3600.0], max_restarts=5
        )
        report = pipeline.run(self.flow(hours=20))
        first, second = report.alerts_of(ProcessorCrashAlert)
        assert (second.retry_at_s - second.time_s) == pytest.approx(
            2 * (first.retry_at_s - first.time_s)
        )

    def test_quarantine_after_max_restarts(self):
        pipeline, flaky, healthy = self.build(
            [h * 3600.0 for h in (1, 3, 5, 7)], max_restarts=2
        )
        report = pipeline.run(self.flow(hours=12))
        crashes = report.alerts_of(ProcessorCrashAlert)
        assert [c.quarantined for c in crashes] == [False, False, True]
        assert report.metrics.processors_quarantined == ["power_kw:Flaky"]
        last = crashes[-1]
        assert last.retry_at_s == np.inf
        assert "QUARANTINED" in format_alert(last)
        # Healthy neighbour still processed the entire stream.
        assert healthy.samples == 72

    def test_jitter_is_seeded_and_deterministic(self):
        def retry(seed):
            cfg = SupervisorConfig(seed=seed, backoff_jitter_fraction=0.5)
            pipeline = SupervisedPipeline(supervisor_config=cfg)
            pipeline.add_processor(Flaky(POWER_STREAM, [3600.0]))
            report = pipeline.run(self.flow(hours=3))
            return report.alerts_of(ProcessorCrashAlert)[0].retry_at_s

        assert retry(3) == retry(3)
        assert retry(3) != retry(4)

    def test_crashing_finish_is_isolated(self):
        class FinishBomb(Recorder):
            def finish(self):
                raise ValueError("finish exploded")

        cfg = SupervisorConfig(seed=0)
        pipeline = SupervisedPipeline(supervisor_config=cfg)
        pipeline.add_processor(FinishBomb(POWER_STREAM))
        report = pipeline.run([make_batch()])
        (alert,) = report.alerts_of(ProcessorCrashAlert)
        assert "finish exploded" in alert.error


class TestStalenessWatchdog:
    def run_scenario(
        self, power_hours, ci_hours, timeout_h=2.0, policy="flag", shift_hour=None
    ):
        cfg = SupervisorConfig(seed=0, staleness_timeout_s=timeout_h * 3600.0)
        pipeline, detector, tracker, advisor = build_monitor(
            supervisor_config=cfg,
            advisor_config=AdvisorConfig(degraded_policy=policy),
        )
        power = [
            make_batch(
                POWER_STREAM,
                t0=h * 3600.0,
                n=60,
                dt=60.0,
                value=3220.0 if shift_hour is None or h < shift_hour else 2500.0,
            )
            for h in power_hours
        ]
        ci = [
            make_batch(CI_STREAM, t0=h * 3600.0 + 1.0, n=4, dt=880.0, value=150.0)
            for h in ci_hours
        ]
        return pipeline.run(power, ci), advisor

    def test_gap_detected_and_recovery_announced(self):
        report, advisor = self.run_scenario(
            power_hours=range(12), ci_hours=[0, 1, 2, 9, 10, 11]
        )
        gaps = report.alerts_of(DataGapAlert)
        assert [g.recovered for g in gaps] == [False, True]
        assert gaps[0].stream == CI_STREAM
        assert report.metrics.data_gaps_detected == {CI_STREAM: 1}
        assert "DATA GAP" in format_alert(gaps[0])

    def test_degraded_mode_entered_and_left(self):
        report, advisor = self.run_scenario(
            power_hours=range(12), ci_hours=[0, 1, 2, 9, 10, 11]
        )
        modes = report.alerts_of(DegradedModeAlert)
        assert [m.entered for m in modes] == [True, False]
        assert modes[0].stale_streams == (CI_STREAM,)
        assert not advisor.degraded  # recovered by end of run

    def test_degraded_advice_is_confidence_flagged(self):
        report, advisor = self.run_scenario(
            power_hours=range(24), ci_hours=[0, 1, 2], shift_hour=12
        )
        advice = report.alerts_of(AdviceAlert)
        assert advice, "expected advice from the regime classification"
        degraded = [a for a in advice if a.confidence == "degraded"]
        assert degraded, "level shifts while CI is stale must be flagged"
        assert "[DEGRADED]" in format_alert(degraded[0])

    def test_suppress_policy_emits_no_degraded_advice(self):
        report, advisor = self.run_scenario(
            power_hours=range(24), ci_hours=[0, 1, 2], policy="suppress",
            shift_hour=12,
        )
        advice = report.alerts_of(AdviceAlert)
        assert advice, "pre-degradation advice still expected"
        assert all(a.confidence == "normal" for a in advice)

    def test_trailing_gap_detected_for_truncated_stream(self):
        report, advisor = self.run_scenario(
            power_hours=range(12), ci_hours=[0, 1, 2]
        )
        gaps = report.alerts_of(DataGapAlert)
        assert gaps and gaps[-1].stream == CI_STREAM
        assert not gaps[-1].recovered

    @pytest.mark.parametrize("name", ["fig2", "fig3", "combined", "regimes"])
    def test_clean_replay_matches_the_plain_pipeline(self, name):
        """A long batch of one stream must not make another look stale: on
        clean telemetry supervision adds no alert and moves no fault counter."""
        report = run_monitor(build_scenario(name)).report
        for alert_type in (DataGapAlert, DeadLetterAlert, ProcessorCrashAlert, DegradedModeAlert):
            assert report.alerts_of(alert_type) == []
        metrics = report.metrics
        for counter in (
            metrics.samples_dead_lettered,
            metrics.batches_dead_lettered,
            metrics.samples_sanitised,
            metrics.processor_crashes,
            metrics.processor_restarts,
            metrics.data_gaps_detected,
        ):
            assert sum(counter.values()) == 0
        assert metrics.processors_quarantined == []
        assert metrics.reconciles()

    def test_stall_gaps_measure_the_silence(self):
        """Each stalled stream is flagged and recovered where it resumes,
        with the length of its silence, not the distance to the watermark."""
        scenario = build_scenario("fig2", duration_days=10)
        report = run_monitor(scenario, faults=["stall"], fault_seed=7).report
        gaps = report.alerts_of(DataGapAlert)
        assert [(g.stream, g.recovered, round(g.gap_s / 3600.0, 1)) for g in gaps] == [
            (POWER_STREAM, False, 12.2),
            (POWER_STREAM, True, 12.2),
            (CI_STREAM, False, 12.5),
            (CI_STREAM, True, 12.5),
        ]
        for gap in gaps:
            assert gap.time_s == gap.last_seen_s + gap.gap_s


class TestChaosSoak:
    @pytest.mark.parametrize("fault", list(FAULT_NAMES))
    def test_single_fault_survives_and_reconciles(self, fault):
        scenario = build_scenario("fig2", duration_days=10, seed=2)
        outcome = run_monitor(
            scenario,
            batch_size=256,
            faults=[fault],
            fault_seed=11,
            supervisor_config=SupervisorConfig(seed=1),
        )
        metrics = outcome.report.metrics
        assert metrics.reconciles(), f"{fault}: accounting identity broken"
        assert metrics.total_samples_in > 0

    def test_composed_suite_survives_and_reconciles(self):
        scenario = build_scenario("fig2", duration_days=15, seed=2)
        outcome = run_monitor(
            scenario,
            batch_size=256,
            faults=list(FAULT_NAMES),
            fault_seed=29,
            supervisor_config=SupervisorConfig(seed=1),
        )
        metrics = outcome.report.metrics
        assert metrics.reconciles()
        assert isinstance(outcome.pipeline, SupervisedPipeline)
        # The chaos suite actually exercised the defences.
        assert metrics.total_samples_dead_lettered > 0
        assert sum(metrics.data_gaps_detected.values()) > 0
