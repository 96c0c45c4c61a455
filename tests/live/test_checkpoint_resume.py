"""Checkpoint/resume tests: alert serialisation round-trips, checkpoint
file error paths, damaged files and crash points, pipeline snapshot
validation, and the acceptance property — a killed-and-resumed monitor is
bit-identical to one that was never interrupted."""

import concurrent.futures
import copy
import errno
import json
import math
import os
import re
import stat
import sys
import threading

import numpy as np
import pytest

from repro.core.regimes import OptimisationTarget, Regime
from repro.errors import CheckpointError, MonitoringError
from repro.framing import PREFIX, frame, read_frame
from repro.live import checkpoint as checkpoint_module
from repro.live import monitor as monitor_module
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


def framed(path, document):
    """Write ``document`` as a checkpoint header in a valid frame, so a
    file built this way carries only the defect its document has."""
    path.write_bytes(b"".join(frame(checkpoint_module._MAGIC, json.dumps(document), [])))
    return path


def saved_bytes(path, payload):
    """The bytes :func:`save_checkpoint` writes for ``payload``."""
    save_checkpoint(path, payload)
    return path.read_bytes()


class TestCheckpointFile:
    def test_roundtrip_preserves_nonfinite_floats(self, tmp_path):
        path = tmp_path / "monitor.ckpt"
        payload = {"retry_at": {"p": math.inf}, "mean": 3219.25, "gap": math.nan}
        save_checkpoint(path, payload)
        loaded = load_checkpoint(path)
        assert loaded["retry_at"]["p"] == math.inf
        assert loaded["mean"] == 3219.25
        assert math.isnan(loaded["gap"])
        assert list(tmp_path.glob("*.tmp")) == []  # atomic write

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_invalid_json_rejected(self, tmp_path):
        """A torn text file is not a frame: refused before any parsing."""
        path = tmp_path / "garbled.ckpt"
        path.write_text("{truncated")
        with pytest.raises(CheckpointError, match="wrong magic"):
            load_checkpoint(path)

    def test_missing_version_rejected(self, tmp_path):
        path = framed(tmp_path / "old.ckpt", {"payload": {}})
        with pytest.raises(CheckpointError, match="has no version header"):
            load_checkpoint(path)

    def test_future_version_rejected(self, tmp_path):
        path = framed(
            tmp_path / "future.ckpt", {"version": CHECKPOINT_VERSION + 1, "payload": {}}
        )
        with pytest.raises(
            CheckpointError,
            match=f"has version {CHECKPOINT_VERSION + 1}; "
            f"this build reads version {CHECKPOINT_VERSION}",
        ):
            load_checkpoint(path)

    def test_v2_checkpoint_rejected(self, tmp_path):
        """v2 stored the sketch arrays as float lists in a bare JSON file;
        v4 frames the file, so it is refused like any other non-v4 file."""
        path = tmp_path / "v2.ckpt"
        sketch = {"n_valid": 2, "pending": [3220.0, 3221.5], "summary": []}
        path.write_text(json.dumps({"version": 2, "payload": {"sketch": sketch}}))
        with pytest.raises(CheckpointError, match="wrong magic"):
            load_checkpoint(path)

    def test_missing_payload_rejected(self, tmp_path):
        path = framed(tmp_path / "empty.ckpt", {"version": CHECKPOINT_VERSION})
        with pytest.raises(CheckpointError, match="has no payload"):
            load_checkpoint(path)

    def test_unserialisable_payload_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="not serialisable"):
            save_checkpoint(tmp_path / "bad.ckpt", {"streams": {POWER_STREAM}})

    def test_bytes_values_round_trip_as_sections(self, tmp_path):
        path = tmp_path / "sections.ckpt"
        payload = {"a": b"\x00\x01", "nested": [{"b": b""}, {"c": b"xyz"}], "d": "text"}
        save_checkpoint(path, payload)
        assert load_checkpoint(path) == payload


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
    def test_snapshot_is_json_serialisable(self, tmp_path):
        """The snapshot is JSON apart from its ``bytes``, which the saved
        header references as body sections."""
        pipeline, *_ = build_monitor(supervisor_config=SupervisorConfig())
        path = tmp_path / "snapshot.ckpt"
        save_checkpoint(path, pipeline.checkpoint())
        header, _ = read_frame(
            path, checkpoint_module._MAGIC, lambda _, length: [bytearray(length)]
        )
        document = json.loads(header)
        assert document["version"] == CHECKPOINT_VERSION
        assert document["payload"].keys() == pipeline.checkpoint().keys()

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

    def test_snapshot_restores_into_fresh_pipeline(self, tmp_path):
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
        saved = saved_bytes(tmp_path / "original.ckpt", original.checkpoint())
        restored = assemble_supervised()
        restored.load_checkpoint_payload(load_checkpoint(tmp_path / "original.ckpt"))
        # Compare saved bytes: NaN fields defeat plain dict equality.
        assert saved_bytes(tmp_path / "restored.ckpt", restored.checkpoint()) == saved


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

    def test_checkpoint_with_channel_counters_resumes(self, tmp_path, mid_run_payload):
        """A checkpoint written while the monitor had channels holds
        ``channel_high_watermarks`` and a zero ``samples_dropped`` per
        stream; it resumes to the uninterrupted run's end."""
        scenario = build_scenario("fig2", duration_days=30.0)
        full, full_detector, full_tracker, _ = build_monitor(
            supervisor_config=SupervisorConfig()
        )
        full_report = full.run(*scenario_sources(scenario, 256))

        payload = copy.deepcopy(mid_run_payload)
        payload["metrics"]["channel_high_watermarks"] = {POWER_STREAM: 256, CI_STREAM: 256}
        payload["metrics"]["samples_dropped"] = {POWER_STREAM: 0, CI_STREAM: 0}
        path = tmp_path / "with-channels.ckpt"
        save_checkpoint(path, payload)
        resumed, detector, tracker, _ = build_monitor(supervisor_config=SupervisorConfig())
        resumed.resume_from(path)
        report = resumed.run(*scenario_sources(scenario, 256))

        assert report.alerts == full_report.alerts
        assert detector.segments == full_detector.segments
        assert tracker.transitions == full_tracker.transitions
        assert report.metrics.reconciles()


@pytest.fixture(scope="module")
def mid_run_checkpoint(tmp_path_factory):
    """The checkpoint file a killed fig2 run left behind, with rollup
    windows open (non-empty sketch sections) and the CUSUM armed."""
    ckpt = tmp_path_factory.mktemp("mid-run") / "monitor.ckpt"
    cfg = SupervisorConfig(checkpoint_path=ckpt, checkpoint_every_s=2 * 86400.0)
    victim, *_ = build_monitor(supervisor_config=cfg)
    power, ci = scenario_sources(build_scenario("fig2", duration_days=30.0), 256)
    with pytest.raises(Killed):
        victim.run(kill_after(power, 7), ci)
    return ckpt


@pytest.fixture(scope="module")
def mid_run_payload(mid_run_checkpoint):
    return load_checkpoint(mid_run_checkpoint)


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
                set_pending(lambda packed: packed[:-1]),
                POWER_ROLLUP,
                "TelemetryError",
            ),
            (set_pending(lambda packed: packed[:-8]), POWER_ROLLUP, "inconsistent"),
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
            (
                lambda p: p["metrics"].update(samples_in=POWER_STREAM),
                "metrics",
                "'samples_in'",
            ),
            (
                lambda p: p["metrics"]["samples_in"].update({POWER_STREAM: "5"}),
                "metrics",
                f"samples_in[{POWER_STREAM!r}]",
            ),
            (
                lambda p: p["metrics"]["samples_in"].update({POWER_STREAM: -5}),
                "metrics",
                "negative count",
            ),
            (
                lambda p: p["metrics"].update(processors_quarantined="abc"),
                "metrics",
                "'processors_quarantined'",
            ),
            (
                lambda p: p["metrics"].update(checkpoints_written="3"),
                "metrics",
                "'checkpoints_written'",
            ),
        ],
        ids=[
            "processor-key-missing",
            # The two ids name the text form older versions stored; the
            # values are a str where bytes belong and a cut mid-float.
            "pending-not-base64",
            "pending-cut-mid-text",
            "pending-truncated-by-one-float",
            "metrics-key-missing",
            "rng-state-wrong-generator",
            "metrics-counter-not-a-mapping",
            "metrics-count-a-string",
            "metrics-count-negative",
            "metrics-name-list-a-string",
            "metrics-scalar-a-string",
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


def body_start(data):
    return PREFIX.size + PREFIX.unpack_from(data)[2]


def flip_bit(data, index):
    return data[:index] + bytes([data[index] ^ 0x10]) + data[index + 1 :]


def past_eof(data):
    magic, crc, _ = PREFIX.unpack_from(data)
    return PREFIX.pack(magic, crc, len(data)) + data[PREFIX.size :]


def reframed(data, edit):
    """``data`` with its header document changed by ``edit`` and framed
    again with a valid checksum; the body is kept byte for byte."""
    start = body_start(data)
    document = json.loads(data[PREFIX.size : start])
    edit(document)
    header = json.dumps(document, separators=(",", ":"))
    return b"".join(frame(checkpoint_module._MAGIC, header, [data[start:]]))


def section_past_body(document):
    sketch = document["payload"]["processors"][1]["state"]["sketch"]
    sketch["pending"] = {"$section": [0, 10**9]}


#: Ways a checkpoint file can be torn, damaged or forged, each a function
#: of the file's bytes, with the check its refusal must name.
DAMAGE = {
    "truncated-in-magic": (lambda data: data[:5], "wrong magic"),
    "truncated-in-header": (
        lambda data: data[: PREFIX.size + 10],
        "header length past end of file",
    ),
    "truncated-mid-section": (
        lambda data: data[: body_start(data) + 13],
        "checksum mismatch",
    ),
    "one-byte-short": (lambda data: data[:-1], "checksum mismatch"),
    "one-byte-appended": (lambda data: data + b"\0", "checksum mismatch"),
    "bit-flipped-in-header": (
        lambda data: flip_bit(data, PREFIX.size + 3),
        "checksum mismatch",
    ),
    "bit-flipped-in-sketch-section": (
        lambda data: flip_bit(data, body_start(data) + 3),
        "checksum mismatch",
    ),
    "wrong-magic": (lambda data: b"PK\x03\x04" + data[4:], "wrong magic"),
    "v3-json-file": (
        lambda data: json.dumps({"version": 3, "payload": {}}).encode(),
        "wrong magic",
    ),
    "header-length-past-eof": (past_eof, "header length past end of file"),
    "forged-version-5": (
        lambda data: reframed(data, lambda d: d.update(version=5)),
        f"has version 5; this build reads version {CHECKPOINT_VERSION}",
    ),
    "forged-section-past-body": (
        lambda data: reframed(data, section_past_body),
        "runs past the",
    ),
}


class TestDamagedCheckpointFile:
    """Every torn, damaged or forged checkpoint file is refused with a
    CheckpointError naming the file and the failed check, and the monitor
    CLI refuses to resume from it."""

    def test_reframed_file_equals_the_real_one_when_unedited(self, mid_run_checkpoint):
        data = mid_run_checkpoint.read_bytes()
        assert reframed(data, lambda d: None) == data
        assert body_start(data) % 64 == 0

    @pytest.mark.parametrize("damage,check", DAMAGE.values(), ids=DAMAGE.keys())
    def test_damaged_file_is_refused(
        self, tmp_path, capsys, mid_run_checkpoint, damage, check
    ):
        path = tmp_path / "damaged.ckpt"
        path.write_bytes(damage(mid_run_checkpoint.read_bytes()))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)
        assert check in str(info.value)
        argv = ["--scenario", "fig2", "--days", "2", "--quiet"]
        assert monitor_main([*argv, "--checkpoint", str(path), "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {path} ")
        assert check in err

    def test_header_nested_past_the_parser_limit_is_refused(self, tmp_path):
        """A forged header nested past the JSON decoder's recursion limit is
        a CheckpointError, not a RecursionError."""
        path = tmp_path / "deep.ckpt"
        deep = "[" * 100_000 + "]" * 100_000
        path.write_bytes(b"".join(frame(checkpoint_module._MAGIC, deep, [])))
        with pytest.raises(CheckpointError, match="has a malformed header"):
            load_checkpoint(path)


class TestCheckpointCrashPoints:
    """What a killed, failing or racing writer leaves behind."""

    def test_temp_file_of_a_killed_writer_is_ignored(self, tmp_path, mid_run_payload):
        """A writer killed between its temp write and ``os.replace`` leaves
        a stray temp file beside the last good checkpoint."""
        ckpt = tmp_path / "monitor.ckpt"
        data = saved_bytes(ckpt, mid_run_payload)
        stray = ckpt.with_name(ckpt.name + ".x1_k2q9z.tmp")
        stray.write_bytes(data[: len(data) // 2])
        pipeline, *_ = build_monitor(supervisor_config=SupervisorConfig())
        pipeline.resume_from(ckpt)
        assert saved_bytes(ckpt, pipeline.checkpoint()) == data
        assert stray.read_bytes() == data[: len(data) // 2]

    def test_disk_full_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        ckpt = tmp_path / "monitor.ckpt"
        before = saved_bytes(ckpt, {"generation": 1})
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        real_fdopen = os.fdopen

        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

            def write(self, buf):
                raise full

        monkeypatch.setattr(os, "fdopen", lambda fd, *a, **kw: FullDisk(real_fdopen(fd, *a, **kw)))
        with pytest.raises(CheckpointError, match="cannot write checkpoint") as info:
            save_checkpoint(ckpt, {"generation": 2})
        monkeypatch.undo()
        assert info.value.__cause__ is full
        assert sorted(p.name for p in tmp_path.iterdir()) == ["monitor.ckpt"]
        assert ckpt.read_bytes() == before

    def test_directory_target_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "monitor.ckpt"
        target.mkdir()
        with pytest.raises(CheckpointError, match=f"cannot write checkpoint {target}"):
            save_checkpoint(target, {"generation": 1})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["monitor.ckpt"]
        assert list(target.iterdir()) == []

    def test_writers_racing_one_path(self, tmp_path):
        """Threads saving different payloads to one path, round after
        round, leave a file that loads as exactly one of them, and no
        temp file."""
        ckpt = tmp_path / "monitor.ckpt"
        payloads = [{"writer": i, "sketch": bytes([i]) * (1 << 18)} for i in range(4)]
        barrier = threading.Barrier(len(payloads))

        def racer(payload):
            for _ in range(20):
                barrier.wait(timeout=30)
                save_checkpoint(ckpt, payload)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=len(payloads)) as pool:
                for future in [pool.submit(racer, p) for p in payloads]:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert load_checkpoint(ckpt) in payloads
        assert sorted(p.name for p in tmp_path.iterdir()) == ["monitor.ckpt"]

    def test_saving_one_payload_twice_gives_identical_bytes(self, tmp_path, mid_run_payload):
        first = saved_bytes(tmp_path / "first.ckpt", mid_run_payload)
        assert saved_bytes(tmp_path / "second.ckpt", mid_run_payload) == first

    def test_file_is_private_to_its_owner(self, tmp_path):
        ckpt = tmp_path / "monitor.ckpt"
        save_checkpoint(ckpt, {"generation": 1})
        assert stat.S_IMODE(ckpt.stat().st_mode) == 0o600


class TestCheckpointPath:
    """A checkpoint path that can never be written is refused when the
    monitor is configured, before it ingests anything."""

    @pytest.mark.parametrize(
        "relative",
        ["", "missing-dir/monitor.ckpt", "a-file/monitor.ckpt"],
        ids=["a-directory", "parent-missing", "parent-is-a-file"],
    )
    def test_config_refuses_an_unwritable_path(self, tmp_path, relative):
        (tmp_path / "a-file").write_text("")
        with pytest.raises(MonitoringError, match="must name a file in an existing directory"):
            SupervisorConfig(checkpoint_path=tmp_path / relative)

    def test_cli_exits_2_before_ingesting(self, tmp_path, capsys, monkeypatch):
        def no_ingest(*args, **kwargs):
            raise AssertionError("telemetry was built before the path was checked")

        monkeypatch.setattr(monitor_module, "build_scenario", no_ingest)
        path = tmp_path / "missing-dir" / "monitor.ckpt"
        argv = ["--scenario", "fig2", "--days", "120", "--quiet"]
        assert monitor_main([*argv, "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint_path {path} must name a file")
        assert not path.parent.exists()


class TestMonitorCliErrors:
    def test_resume_from_missing_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.ckpt"
        argv = ["--scenario", "fig2", "--days", "2", "--quiet"]
        code = monitor_main([*argv, "--checkpoint", str(missing), "--resume"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read checkpoint")
