"""Checkpoint/resume tests: alert serialisation round-trips, checkpoint
file error paths, pipeline snapshot validation, and the acceptance
property — a killed-and-resumed monitor is bit-identical to one that was
never interrupted."""

import base64
import copy
import json
import math
import re

import numpy as np
import pytest

from repro.core.regimes import OptimisationTarget, Regime
from repro.errors import CheckpointError
from repro.live.advisor import InterventionAdvisor
from repro.live.alerts import (
    AdviceAlert,
    Alert,
    ChangePointAlert,
    DataGapAlert,
    DeadLetterAlert,
    DegradedModeAlert,
    ProcessorCrashAlert,
    Recommendation,
    RegimeChangeAlert,
    RollupAlert,
)
from repro.live.checkpoint import (
    CHECKPOINT_VERSION,
    alert_from_dict,
    alert_to_dict,
    load_checkpoint,
    save_checkpoint,
)
from repro.live.cusum import OnlineCusum
from repro.live.events import CI_STREAM, POWER_STREAM, StreamBatch
from repro.live.monitor import build_monitor, monitor_main
from repro.live.processors import WindowedRollup
from repro.live.regime import RegimeTracker
from repro.live.replay import build_scenario, scenario_sources
from repro.live.supervisor import SupervisedPipeline, SupervisorConfig

SAMPLE_ALERTS = [
    Alert(time_s=10.0, stream=POWER_STREAM),
    RollupAlert(
        time_s=86400.0,
        stream=POWER_STREAM,
        window_start_s=0.0,
        window_end_s=86400.0,
        n_samples=96,
        n_valid=90,
        mean=3220.0,
        std=18.5,
        minimum=3150.0,
        maximum=3290.0,
        quantiles=((0.05, 3160.0), (0.95, 3280.0)),
    ),
    ChangePointAlert(
        time_s=5000.0,
        stream=POWER_STREAM,
        onset_time_s=4200.0,
        level_before=3220.0,
        level_after_estimate=3010.0,
        significance=12.5,
        direction=-1,
    ),
    RegimeChangeAlert(
        time_s=7200.0,
        stream=CI_STREAM,
        previous=None,
        regime=Regime.BALANCED,
        ci_g_per_kwh=55.0,
    ),
    RegimeChangeAlert(
        time_s=9000.0,
        stream=CI_STREAM,
        previous=Regime.BALANCED,
        regime=Regime.SCOPE2_DOMINATED,
        ci_g_per_kwh=180.0,
    ),
    AdviceAlert(
        time_s=9100.0,
        stream=CI_STREAM,
        regime=Regime.SCOPE2_DOMINATED,
        target=OptimisationTarget.MAXIMISE_ENERGY_EFFICIENCY,
        recommendations=(
            Recommendation("cap-frequency", "cap CPU frequency", -480.0, 1600.0),
        ),
        note="grid is dirty",
        confidence="degraded",
    ),
    DataGapAlert(
        time_s=4.0 * 3600,
        stream=CI_STREAM,
        last_seen_s=3600.0,
        gap_s=3.0 * 3600,
        recovered=False,
    ),
    ProcessorCrashAlert(
        time_s=3600.0,
        stream=POWER_STREAM,
        processor="power_kw:OnlineCusum",
        error="ValueError: boom",
        crashes=2,
        retry_at_s=10800.0,
        quarantined=False,
    ),
    DeadLetterAlert(
        time_s=1800.0,
        stream=POWER_STREAM,
        reason="batch rewinds admitted watermark",
        n_samples=64,
        t_start_s=0.0,
        t_end_s=900.0,
    ),
    DegradedModeAlert(
        time_s=5.0 * 3600,
        stream="advisor",
        entered=True,
        stale_streams=(CI_STREAM,),
    ),
]


class TestAlertSerialisation:
    @pytest.mark.parametrize(
        "alert", SAMPLE_ALERTS, ids=lambda a: type(a).__name__
    )
    def test_json_roundtrip_is_exact(self, alert):
        through_json = json.loads(json.dumps(alert_to_dict(alert)))
        assert alert_from_dict(through_json) == alert

    def test_unregistered_alert_type_rejected(self):
        class Bespoke(Alert):
            pass

        with pytest.raises(CheckpointError, match="Bespoke"):
            alert_to_dict(Bespoke(time_s=0.0, stream=POWER_STREAM))

    def test_non_primitive_field_rejected(self):
        alert = DataGapAlert(
            time_s=0.0,
            stream=CI_STREAM,
            last_seen_s=0.0,
            gap_s=np.arange(3.0),  # arrays are not checkpointable
            recovered=False,
        )
        with pytest.raises(CheckpointError, match="gap_s"):
            alert_to_dict(alert)

    def test_unknown_type_tag_rejected(self):
        with pytest.raises(CheckpointError, match="unknown alert type"):
            alert_from_dict({"type": "GremlinAlert", "time_s": 0.0})

    def test_malformed_record_rejected(self):
        with pytest.raises(CheckpointError, match="malformed"):
            alert_from_dict({"type": "Alert", "time_s": 0.0})  # stream missing


class TestCheckpointFile:
    def test_roundtrip_preserves_nonfinite_floats(self, tmp_path):
        path = tmp_path / "monitor.ckpt"
        payload = {"retry_at": {"p": math.inf}, "mean": 3219.25, "gap": math.nan}
        save_checkpoint(path, payload)
        loaded = load_checkpoint(path)
        assert loaded["retry_at"]["p"] == math.inf
        assert loaded["mean"] == 3219.25
        assert math.isnan(loaded["gap"])
        assert not path.with_name(path.name + ".tmp").exists()  # atomic write

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "garbled.ckpt"
        path.write_text("{truncated")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(path)

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_text(json.dumps({"payload": {}}))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.ckpt"
        path.write_text(
            json.dumps({"version": CHECKPOINT_VERSION + 1, "payload": {}})
        )
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_v2_checkpoint_rejected(self, tmp_path):
        """v2 stored the sketch arrays as float lists; v3 packs them."""
        path = tmp_path / "v2.ckpt"
        sketch = {"n_valid": 2, "pending": [3220.0, 3221.5], "summary": []}
        path.write_text(json.dumps({"version": 2, "payload": {"sketch": sketch}}))
        with pytest.raises(CheckpointError, match="has version 2; this build reads"):
            load_checkpoint(path)

    def test_missing_payload_rejected(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_text(json.dumps({"version": CHECKPOINT_VERSION}))
        with pytest.raises(CheckpointError, match="payload"):
            load_checkpoint(path)

    def test_unserialisable_payload_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="not serialisable"):
            save_checkpoint(tmp_path / "bad.ckpt", {"streams": {POWER_STREAM}})


def assemble_supervised(with_advisor=True):
    """The standard monitor processor set on a bare SupervisedPipeline."""
    pipeline = SupervisedPipeline(supervisor_config=SupervisorConfig())
    pipeline.add_processor(OnlineCusum(POWER_STREAM))
    pipeline.add_processor(WindowedRollup(POWER_STREAM, window_s=86400.0))
    pipeline.add_processor(RegimeTracker(CI_STREAM))
    pipeline.add_processor(WindowedRollup(CI_STREAM, window_s=86400.0))
    if with_advisor:
        pipeline.set_advisor(InterventionAdvisor())
    return pipeline


class TestPipelineSnapshot:
    def test_snapshot_is_json_serialisable(self):
        pipeline, *_ = build_monitor(supervisor_config=SupervisorConfig())
        json.dumps({"version": CHECKPOINT_VERSION, "payload": pipeline.checkpoint()})

    def test_undrained_channels_rejected(self):
        pipeline = assemble_supervised()
        pipeline._channels[POWER_STREAM].put(
            StreamBatch(POWER_STREAM, np.arange(4.0), np.full(4, 3220.0))
        )
        with pytest.raises(CheckpointError, match="undrained"):
            pipeline.checkpoint()

    def test_processor_mismatch_rejected(self):
        payload = assemble_supervised().checkpoint()
        other = SupervisedPipeline(supervisor_config=SupervisorConfig())
        other.add_processor(WindowedRollup(POWER_STREAM, window_s=86400.0))
        other.set_advisor(InterventionAdvisor())
        with pytest.raises(CheckpointError, match="does not match"):
            other.load_checkpoint_payload(payload)

    def test_advisor_mismatch_rejected(self):
        payload = assemble_supervised(with_advisor=True).checkpoint()
        bare = assemble_supervised(with_advisor=False)
        with pytest.raises(CheckpointError, match="advisor"):
            bare.load_checkpoint_payload(payload)

    def test_snapshot_restores_into_fresh_pipeline(self):
        original = assemble_supervised()
        flow = [
            StreamBatch(
                POWER_STREAM,
                h * 3600.0 + 900.0 * np.arange(4),
                np.full(4, 3220.0),
            )
            for h in range(6)
        ]
        original.run(iter(flow))
        payload = json.loads(json.dumps(original.checkpoint()))
        restored = assemble_supervised()
        restored.load_checkpoint_payload(payload)
        # Compare serialised form: NaN fields defeat plain dict equality.
        assert json.dumps(restored.checkpoint()) == json.dumps(original.checkpoint())


class Killed(RuntimeError):
    """Simulated hard kill of the monitor process."""


def kill_after(source, n_batches):
    for i, batch in enumerate(source):
        if i >= n_batches:
            raise Killed(f"killed after {n_batches} batches")
        yield batch


class TestKillAndResume:
    """The PR's acceptance property: kill the monitor mid-run, restore from
    the last checkpoint, replay the same deterministic faulted sources, and
    the final report is *exactly* the uninterrupted run's."""

    FAULTS = ["dropout", "duplicate", "reorder", "spike"]

    def outcome(self, pipeline, detector, tracker, scenario, killed_after=None):
        power, ci = scenario_sources(
            scenario, batch_size=256, faults=self.FAULTS, fault_seed=9
        )
        if killed_after is not None:
            power = kill_after(power, killed_after)
        report = pipeline.run(power, ci)
        return report, tuple(detector.segments), tuple(tracker.transitions)

    def test_resumed_run_is_bit_identical(self, tmp_path):
        scenario = build_scenario("fig2", duration_days=30.0)

        # The reference: one uninterrupted supervised run, no checkpointing.
        pipeline, detector, tracker, _ = build_monitor(
            supervisor_config=SupervisorConfig(seed=3)
        )
        full_report, full_segments, full_transitions = self.outcome(
            pipeline, detector, tracker, scenario
        )

        # The same run, checkpointing every 2 days, killed mid-flight.
        ckpt = tmp_path / "monitor.ckpt"
        cfg = SupervisorConfig(
            seed=3, checkpoint_path=ckpt, checkpoint_every_s=2 * 86400.0
        )
        victim, v_detector, v_tracker, _ = build_monitor(supervisor_config=cfg)
        with pytest.raises(Killed):
            self.outcome(victim, v_detector, v_tracker, scenario, killed_after=7)
        assert ckpt.exists()
        assert victim.metrics.checkpoints_written >= 1

        # A fresh process restores the checkpoint and replays the same sources.
        resumed, r_detector, r_tracker, _ = build_monitor(supervisor_config=cfg)
        resumed.resume_from(ckpt)
        report, segments, transitions = self.outcome(
            resumed, r_detector, r_tracker, scenario
        )

        assert segments == full_segments
        assert transitions == full_transitions
        assert report.alerts == full_report.alerts
        resumed_state = report.metrics.state_dict()
        full_state = full_report.metrics.state_dict()
        # The loaded checkpoint does not count itself on the resumed side.
        resumed_state.pop("checkpoints_written")
        full_state.pop("checkpoints_written")
        assert resumed_state == full_state
        assert report.metrics.reconciles()


@pytest.fixture(scope="module")
def mid_run_payload(tmp_path_factory):
    """The checkpoint a killed fig2 run left behind, with rollup windows
    open (non-empty packed sketch arrays) and the CUSUM armed."""
    ckpt = tmp_path_factory.mktemp("mid-run") / "monitor.ckpt"
    cfg = SupervisorConfig(checkpoint_path=ckpt, checkpoint_every_s=2 * 86400.0)
    victim, *_ = build_monitor(supervisor_config=cfg)
    power, ci = scenario_sources(build_scenario("fig2", duration_days=30.0), 256)
    with pytest.raises(Killed):
        victim.run(kill_after(power, 7), ci)
    return load_checkpoint(ckpt)


def drop_last_float(packed):
    """A packed array one whole float shorter: still valid base64."""
    return base64.b64encode(base64.b64decode(packed)[:-8]).decode("ascii")


def set_pending(value):
    def tear(payload):
        sketch = payload["processors"][1]["state"]["sketch"]
        sketch["pending"] = value(sketch["pending"])

    return tear


class TestTornCheckpoint:
    """A checkpoint that passes the version check but is torn inside fails
    to load with a CheckpointError naming the broken component."""

    POWER_CUSUM = f"processor {POWER_STREAM}:OnlineCusum"
    POWER_ROLLUP = f"processor {POWER_STREAM}:WindowedRollup"

    def resume(self, tmp_path, payload):
        path = tmp_path / "torn.ckpt"
        save_checkpoint(path, payload)
        pipeline, *_ = build_monitor(supervisor_config=SupervisorConfig())
        pipeline.resume_from(path)

    def test_intact_payload_loads(self, tmp_path, mid_run_payload):
        sketch = mid_run_payload["processors"][1]["state"]["sketch"]
        assert sketch["pending"], "the fixture must leave a rollup window open"
        self.resume(tmp_path, mid_run_payload)

    @pytest.mark.parametrize(
        "tear,component,cause",
        [
            (
                lambda p: p["processors"][0]["state"].pop("mu"),
                POWER_CUSUM,
                "KeyError: 'mu'",
            ),
            (set_pending(lambda _: "not base64!"), POWER_ROLLUP, "'pending'"),
            (
                set_pending(lambda packed: packed[: len(packed) // 2]),
                POWER_ROLLUP,
                "TelemetryError",
            ),
            (set_pending(drop_last_float), POWER_ROLLUP, "inconsistent"),
            (
                lambda p: p["metrics"].pop("samples_in"),
                "metrics",
                "KeyError: 'samples_in'",
            ),
            (
                lambda p: p["rng_state"].update(bit_generator="MT19937"),
                "rng_state",
                "PCG64",
            ),
        ],
        ids=[
            "processor-key-missing",
            "pending-not-base64",
            "pending-cut-mid-text",
            "pending-truncated-by-one-float",
            "metrics-key-missing",
            "rng-state-wrong-generator",
        ],
    )
    def test_names_the_component(self, tmp_path, mid_run_payload, tear, component, cause):
        payload = copy.deepcopy(mid_run_payload)
        tear(payload)
        with pytest.raises(CheckpointError) as info:
            self.resume(tmp_path, payload)
        message = str(info.value)
        assert re.search(f"component '{re.escape(component)}' is malformed", message)
        assert cause in message


class TestMonitorCliErrors:
    def test_resume_from_missing_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.ckpt"
        argv = ["--scenario", "fig2", "--days", "2", "--quiet"]
        code = monitor_main([*argv, "--checkpoint", str(missing), "--resume"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read checkpoint")
