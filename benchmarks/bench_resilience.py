"""Bench L2 — checkpoint overhead and chaos-soak reconciliation.

The same 1M-sample synthetic day as Bench L1 is replayed twice through
the one monitor pipeline, :class:`~repro.live.supervisor.SupervisedPipeline`
with admission control and staleness watchdogs: once without checkpoints
(what ``build_monitor()`` returns) and once writing a checkpoint every two
hours of stream time. On clean input checkpointing must be invisible —
identical CUSUM segments, nothing dead-lettered — and its wall-clock
overhead must stay within 10 % of the run without checkpoints. A third
pass injects the full seeded chaos suite and asserts the run survives with
the accounting identity intact:
``samples_in == samples_processed + samples_dropped + samples_dead_lettered``
per stream.
"""

import time

import numpy as np
import pytest

from repro.core.reporting import render_table
from repro.live.events import CI_STREAM, POWER_STREAM, series_batches
from repro.live.faults import FAULT_NAMES, apply_faults, chaos_chain
from repro.live.monitor import build_monitor
from repro.live.supervisor import SupervisorConfig
from repro.telemetry.series import TimeSeries
from repro.units import SECONDS_PER_DAY

N_SAMPLES = 1_000_000
BATCH = 8_192
CI_BATCH = 2  # hourly CI batches, so both streams interleave through the day
LEVEL_BEFORE_KW = 3220.0
LEVEL_AFTER_KW = 3010.0
NOISE_KW = 32.0
CHECKPOINT_EVERY_S = 2.0 * 3600.0  # ~11 checkpoints across the day
TIMING_REPEATS = 3  # runs without/with checkpoints interleaved; min-of-N per side


def _make_day() -> tuple[TimeSeries, TimeSeries]:
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, SECONDS_PER_DAY, N_SAMPLES, endpoint=False)
    values = LEVEL_BEFORE_KW + NOISE_KW * rng.standard_normal(N_SAMPLES)
    values[N_SAMPLES // 2 :] += LEVEL_AFTER_KW - LEVEL_BEFORE_KW
    values[rng.random(N_SAMPLES) < 0.002] = np.nan
    power = TimeSeries(times, values, "bench-power-kw")
    ci_times = np.arange(0.0, SECONDS_PER_DAY, 1800.0)
    ci = TimeSeries(ci_times, np.full(len(ci_times), 190.0), "bench-ci")
    return power, ci


def _one_run(power, ci, supervisor_config=None):
    pipeline, detector, _, _ = build_monitor(supervisor_config=supervisor_config)
    t0 = time.perf_counter()
    report = pipeline.run(
        series_batches(POWER_STREAM, power, BATCH),
        series_batches(CI_STREAM, ci, CI_BATCH),
    )
    return time.perf_counter() - t0, report, detector


def _run(checkpoint_path) -> dict:
    power, ci = _make_day()

    # Runs without and with checkpoints alternate so slow clock drift
    # (thermal throttling, background load) hits both sides equally;
    # min-of-N damps the remaining scheduler noise.
    cfg = SupervisorConfig(
        checkpoint_path=checkpoint_path, checkpoint_every_s=CHECKPOINT_EVERY_S
    )
    base = ckpt = None
    for _ in range(TIMING_REPEATS):
        candidate = _one_run(power, ci)
        if base is None or candidate[0] < base[0]:
            base = candidate
        candidate = _one_run(power, ci, supervisor_config=cfg)
        if ckpt is None or candidate[0] < ckpt[0]:
            ckpt = candidate
    base_s, base_report, base_detector = base
    ckpt_s, ckpt_report, ckpt_detector = ckpt

    # Chaos pass: full fault suite, independently seeded per stream. The
    # watchdog timeout is tightened below the injected stall so the gap is
    # detectable within a single synthetic day.
    chaos_pipeline, _, _, _ = build_monitor(
        supervisor_config=SupervisorConfig(staleness_timeout_s=3600.0)
    )
    chaos_t0 = time.perf_counter()
    chaos_report = chaos_pipeline.run(
        apply_faults(
            series_batches(POWER_STREAM, power, BATCH),
            *chaos_chain(FAULT_NAMES, SECONDS_PER_DAY, seed=7),
        ),
        apply_faults(
            series_batches(CI_STREAM, ci, CI_BATCH),
            *chaos_chain(FAULT_NAMES, SECONDS_PER_DAY, seed=8),
        ),
    )
    chaos_s = time.perf_counter() - chaos_t0

    return {
        "base_s": base_s,
        "ckpt_s": ckpt_s,
        "chaos_s": chaos_s,
        "base_report": base_report,
        "ckpt_report": ckpt_report,
        "chaos_report": chaos_report,
        "base_segments": tuple(base_detector.segments),
        "ckpt_segments": tuple(ckpt_detector.segments),
        "n_samples": len(power) + len(ci),
    }


def test_resilience_overhead_and_soak(once, tmp_path):
    result = once(_run, tmp_path / "bench.ckpt")
    overhead = result["ckpt_s"] / result["base_s"] - 1.0

    # On clean input checkpointing must be invisible…
    ckpt_metrics = result["ckpt_report"].metrics
    assert result["ckpt_segments"] == result["base_segments"]
    assert ckpt_metrics.total_samples_dead_lettered == 0
    assert ckpt_metrics.checkpoints_written >= 5
    assert ckpt_metrics.reconciles()
    # …and nearly free.
    assert overhead <= 0.10, (
        f"checkpointing overhead {overhead:.1%} exceeds 10%"
    )

    # Under the full chaos suite the run completes and the books balance.
    chaos_metrics = result["chaos_report"].metrics
    assert chaos_metrics.reconciles()
    assert chaos_metrics.total_samples_dead_lettered > 0
    assert sum(chaos_metrics.data_gaps_detected.values()) >= 1
    chaos_throughput = chaos_metrics.total_samples_in / result["chaos_s"]
    assert chaos_throughput > 20_000

    print()
    print(
        render_table(
            ["Quantity", "Value"],
            [
                ["Samples replayed", f"{result['n_samples']:,} per pass"],
                ["Without checkpoints", f"{result['base_s']:.2f} s"],
                [
                    "With checkpoints",
                    f"{result['ckpt_s']:.2f} s "
                    f"({ckpt_metrics.checkpoints_written} checkpoints)",
                ],
                ["Overhead", f"{overhead:+.1%} (budget +10%)"],
                [
                    "Chaos suite",
                    f"{result['chaos_s']:.2f} s, "
                    f"{chaos_metrics.total_samples_dead_lettered:,} dead-lettered, "
                    f"{sum(chaos_metrics.data_gaps_detected.values())} gaps",
                ],
                [
                    "Chaos accounting",
                    "reconciles" if chaos_metrics.reconciles() else "BROKEN",
                ],
            ],
            title="Bench L2: checkpoints and chaos on a 1M-sample day",
        )
    )
