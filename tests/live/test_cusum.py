"""Online CUSUM detector unit tests."""

import math

import numpy as np
import pytest

from repro.errors import MonitoringError
from repro.live.cusum import CusumConfig, OnlineCusum
from repro.live.events import POWER_STREAM, StreamBatch


def feed(detector, times, values, chunk=256):
    alerts = []
    for lo in range(0, len(times), chunk):
        batch = StreamBatch(POWER_STREAM, times[lo : lo + chunk], values[lo : lo + chunk])
        alerts.extend(detector.process(batch))
    return alerts


def armed(detector):
    """Whether the detector's baseline is frozen and detection is active."""
    return not math.isnan(detector.state_dict()["mu"])


def step_signal(rng, n_before=600, n_after=600, level=3220.0, delta=-210.0, sigma=32.0):
    n = n_before + n_after
    times = 900.0 * np.arange(n)
    values = np.full(n, level) + sigma * rng.standard_normal(n)
    values[n_before:] += delta
    return times, values


class TestConfig:
    def test_defaults_valid(self):
        config = CusumConfig()
        assert config.threshold_sigma > 0
        assert config.drift_sigma >= 0

    def test_bad_threshold_rejected(self):
        for threshold in (0.0, float("nan"), float("inf")):
            with pytest.raises(MonitoringError):
                CusumConfig(threshold_sigma=threshold)

    def test_negative_drift_rejected(self):
        for drift in (-0.1, float("nan"), float("inf")):
            with pytest.raises(MonitoringError):
                CusumConfig(drift_sigma=drift)

    def test_tiny_warmup_rejected(self):
        with pytest.raises(MonitoringError):
            CusumConfig(warmup_samples=2)


class TestDetection:
    def test_no_alarm_on_steady_noise(self, rng):
        detector = OnlineCusum(POWER_STREAM)
        times = 900.0 * np.arange(5000)
        values = 3220.0 + 32.0 * rng.standard_normal(5000)
        assert feed(detector, times, values) == []
        assert armed(detector)

    def test_not_armed_before_warmup(self):
        detector = OnlineCusum(POWER_STREAM, CusumConfig(warmup_samples=50))
        feed(detector, 900.0 * np.arange(10), np.full(10, 3220.0))
        assert not armed(detector)

    def test_downward_step_detected(self, rng):
        times, values = step_signal(rng)
        detector = OnlineCusum(POWER_STREAM)
        alerts = feed(detector, times, values)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.direction == -1
        assert alert.level_after_estimate < alert.level_before
        # Onset within a handful of samples of the true step at index 600.
        assert abs(alert.onset_time_s - times[600]) <= 5 * 900.0
        assert alert.level_before == pytest.approx(3220.0, rel=0.01)
        assert alert.significance > detector.config.threshold_sigma

    def test_upward_step_detected(self, rng):
        times, values = step_signal(rng, delta=+210.0)
        alerts = feed(OnlineCusum(POWER_STREAM), times, values)
        assert len(alerts) == 1
        assert alerts[0].direction == +1
        assert alerts[0].level_after_estimate > alerts[0].level_before

    def test_nan_samples_skipped_and_counted(self, rng):
        times, values = step_signal(rng)
        values[::50] = np.nan
        detector = OnlineCusum(POWER_STREAM)
        alerts = feed(detector, times, values)
        assert len(alerts) == 1
        assert detector.nan_samples == np.isnan(values).sum()

    def test_segments_bracket_the_step(self, rng):
        times, values = step_signal(rng)
        detector = OnlineCusum(POWER_STREAM)
        feed(detector, times, values)
        detector.finish()
        segments = detector.segments
        assert len(segments) == 2
        assert segments[0].mean == pytest.approx(3220.0, rel=0.01)
        assert segments[1].mean == pytest.approx(3010.0, rel=0.01)
        assert segments[0].n + segments[1].n == len(values)
        assert segments[0].end_time_s <= segments[1].start_time_s

    def test_segment_means_match_batch_split(self, rng):
        """Reset-on-alarm attributes run samples to the *new* segment, so
        per-segment means equal the batch means at the detected onset."""
        times, values = step_signal(rng)
        detector = OnlineCusum(POWER_STREAM)
        alerts = feed(detector, times, values)
        detector.finish()
        onset = alerts[0].onset_time_s
        before = values[times < onset]
        after = values[times >= onset]
        assert detector.segments[0].mean == pytest.approx(before.mean(), rel=1e-12)
        assert detector.segments[1].mean == pytest.approx(after.mean(), rel=1e-12)

    def test_finish_idempotent(self, rng):
        times, values = step_signal(rng, n_before=200, n_after=0)
        detector = OnlineCusum(POWER_STREAM)
        feed(detector, times, values)
        detector.finish()
        detector.finish()
        assert len(detector.segments) == 1

    def test_mid_segment_resume_between_alarm_and_rearm(self, rng):
        """Kill the detector after an alarm but before the new segment has
        re-armed, resume from the state_dict, and the final segmentation is
        exactly the uninterrupted run's — not just approximately."""
        import json

        times, values = step_signal(rng)
        reference = OnlineCusum(POWER_STREAM)
        feed(reference, times, values)
        reference.finish()

        victim = OnlineCusum(POWER_STREAM)
        snapshot = None
        kill_at = None
        for i in range(len(times)):
            victim.process(
                StreamBatch(POWER_STREAM, times[i : i + 1], values[i : i + 1])
            )
            if victim.segments and not armed(victim):
                # Alarmed, new segment still warming up: the window the
                # whole-pipeline checkpoint tests never hit.
                snapshot = json.loads(json.dumps(victim.state_dict()))
                kill_at = i + 1
                break
        assert snapshot is not None, "the step must alarm before warmup completes"

        resumed = OnlineCusum(POWER_STREAM)
        resumed.load_state_dict(snapshot)
        assert not armed(resumed)
        feed(resumed, times[kill_at:], values[kill_at:])
        resumed.finish()

        assert resumed.segments == reference.segments
        assert resumed.nan_samples == reference.nan_samples
        assert json.dumps(resumed.state_dict()) == json.dumps(
            reference.state_dict()
        )

    def test_zero_variance_baseline_survives(self):
        """A constant baseline must arm (sigma floored) without crashing."""
        detector = OnlineCusum(POWER_STREAM, CusumConfig(warmup_samples=8))
        times = 900.0 * np.arange(40)
        values = np.full(40, 3220.0)
        values[20:] = 3000.0
        alerts = feed(detector, times, values)
        assert len(alerts) >= 1
        assert alerts[0].direction == -1


class TestScanWorkspace:
    def test_bounded_after_million_sample_batch(self, rng):
        """A catch-up slab leaves no batch-sized workspace behind: the scan
        covers at most ``_SCAN_SPAN`` samples at a time."""
        n = 1_000_000
        times = np.arange(float(n))
        values = 3220.0 + 32.0 * rng.standard_normal(n)
        values[n // 2 :] -= 210.0
        detector = OnlineCusum(POWER_STREAM)
        alerts = detector.process(StreamBatch(POWER_STREAM, times, values))
        assert len(alerts) >= 1  # the step alarms inside the slab
        bound = 6 * (OnlineCusum._SCAN_SPAN + 1) * values.itemsize
        assert detector._scratch.nbytes <= bound
        workspace = detector._scratch
        feed(detector, times[-4096:] + n, values[-4096:], chunk=4096)
        assert detector._scratch is workspace  # reused, never regrown
