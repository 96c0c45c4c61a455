"""Bench L1 — live monitoring pipeline throughput on a 1M-sample day.

One synthetic day of cabinet power telemetry at ~86 ms cadence (1M samples,
Gaussian meter noise, 0.2 % NaN dropouts, a −210 kW step at midday) plus
half-hourly carbon intensity is replayed through the full monitor pipeline:
daily rollups, the online CUSUM detector, the regime tracker and the
intervention advisor.

Shape criteria: the step is detected with before/after levels within 1 % of
truth, end-to-end throughput stays above 20k samples/s, and peak allocation
during the run stays bounded by the batch buffers — well under
half the resident series footprint (the pipeline never copies the day).

The columnar comparison replays the same day through the vectorised hot
path and through the per-sample oracle loops (``_process_scalar``, bound
onto each detector instance): the hot path must be at least 5× the oracle's
throughput (it targets and typically exceeds 10×) with *zero* relative
difference in every alert — bit-identical, not approximately equal.
"""

import json
import time
import tracemalloc

import numpy as np
import pytest

from repro.core.reporting import render_table
from repro.live.alerts import ChangePointAlert
from repro.live.checkpoint import alert_to_dict
from repro.live.events import CI_STREAM, POWER_STREAM, series_batches
from repro.live.monitor import build_monitor
from repro.telemetry.series import TimeSeries
from repro.units import SECONDS_PER_DAY

N_SAMPLES = 1_000_000
BATCH = 8_192
#: The columnar comparison replays in larger slabs — the catch-up/backfill
#: regime the vectorised path exists for, where per-batch dispatch is
#: amortised. Both paths always see identical batches.
COMPARISON_BATCH = 32_768
LEVEL_BEFORE_KW = 3220.0
LEVEL_AFTER_KW = 3010.0
NOISE_KW = 32.0


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


def _run() -> dict:
    power, ci = _make_day()
    pipeline, detector, tracker, advisor = build_monitor()

    # Timing pass: the full day, untraced (tracemalloc would dominate the
    # per-sample detector arithmetic and measure the tracer, not the pipeline).
    t0 = time.perf_counter()
    report = pipeline.run(
        series_batches(POWER_STREAM, power, BATCH),
        series_batches(CI_STREAM, ci, BATCH),
    )
    elapsed = time.perf_counter() - t0

    # Memory pass: a 2^17-sample slice of the same day, traced. Batch-buffer
    # footprints do not grow with replay length, so a bounded
    # peak here bounds the full-day run too.
    n_slice = 1 << 17
    sliced = TimeSeries(power.times_s[:n_slice], power.values[:n_slice], "slice")
    slice_pipeline, _, _, _ = build_monitor()
    tracemalloc.start()
    slice_pipeline.run(series_batches(POWER_STREAM, sliced, BATCH))
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    return {
        "report": report,
        "detector": detector,
        "elapsed": elapsed,
        "peak_bytes": peak_bytes,
        "slice_bytes": sliced.values.nbytes + sliced.times_s.nbytes,
        "series_bytes": power.values.nbytes + power.times_s.nbytes,
        "n_samples": len(power) + len(ci),
        "true_step_time_s": float(power.times_s[N_SAMPLES // 2]),
    }


def _fingerprint(report, detector) -> str:
    """Every observable output of a run as one JSON string (NaN-safe)."""
    return json.dumps(
        {
            "alerts": [alert_to_dict(a) for a in report.alerts],
            "segments": [
                (s.start_time_s, s.end_time_s, s.n, s.mean, s.std)
                for s in detector.segments
            ],
            "metrics": report.metrics.state_dict(),
        }
    )


def _run_comparison() -> dict:
    """The same 1M-sample day through the hot path and the oracle, timed."""
    power, ci = _make_day()
    out: dict = {}
    for label, oracle in (("scalar", True), ("columnar", False)):
        pipeline, detector, tracker, _ = build_monitor()
        if oracle:
            for processor in (detector, tracker):
                processor.process = processor._process_scalar
        t0 = time.perf_counter()
        report = pipeline.run(
            series_batches(POWER_STREAM, power, COMPARISON_BATCH),
            series_batches(CI_STREAM, ci, COMPARISON_BATCH),
        )
        out[label] = {
            "elapsed": time.perf_counter() - t0,
            "fingerprint": _fingerprint(report, detector),
            "alerts": len(report.alerts),
        }
    out["n_samples"] = len(power) + len(ci)
    return out


def test_live_monitor_throughput(once):
    result = once(_run)
    report = result["report"]
    detector = result["detector"]
    throughput = result["n_samples"] / result["elapsed"]

    changes = report.alerts_of(ChangePointAlert)
    assert changes, "the midday step must raise a change alert"
    assert abs(changes[0].onset_time_s - result["true_step_time_s"]) < 60.0
    segments = detector.segments
    assert segments[0].mean == pytest.approx(LEVEL_BEFORE_KW, rel=0.01)
    assert segments[-1].mean == pytest.approx(LEVEL_AFTER_KW, rel=0.01)

    assert report.metrics.total_samples_dropped == 0
    assert throughput > 20_000, f"throughput regressed: {throughput:,.0f} samples/s"
    assert result["peak_bytes"] < result["slice_bytes"] / 2, (
        "pipeline memory must stay bounded by the batch buffers"
    )

    print()
    print(
        render_table(
            ["Quantity", "Value"],
            [
                ["Samples replayed", f"{result['n_samples']:,}"],
                ["Wall time", f"{result['elapsed']:.2f} s"],
                ["Throughput", f"{throughput:,.0f} samples/s"],
                ["Change alerts", f"{len(changes)}"],
                [
                    "Detected levels",
                    f"{segments[0].mean:,.0f} -> {segments[-1].mean:,.0f} kW",
                ],
                ["Samples dropped", f"{report.metrics.total_samples_dropped:,}"],
                [
                    "Peak traced memory",
                    f"{result['peak_bytes'] / 1e6:.1f} MB "
                    f"(traced 2^17-sample slice, {result['slice_bytes'] / 1e6:.1f} MB resident)",
                ],
                ["Resident series", f"{result['series_bytes'] / 1e6:.1f} MB"],
            ],
            title="Bench L1: live monitor on a 1M-sample day",
        )
    )


def test_columnar_speedup_and_parity(once):
    """The columnar path must beat 5× scalar throughput (CI floor; the
    design target is ≥10×) while staying bit-identical: worst relative
    difference across every alert, segment and metric is exactly 0.0."""
    result = once(_run_comparison)
    scalar, columnar = result["scalar"], result["columnar"]

    assert columnar["fingerprint"] == scalar["fingerprint"], (
        "columnar output drifted from the scalar oracle"
    )
    worst_rel_diff = 0.0  # string-equal JSON fingerprints: exactly zero

    ratio = scalar["elapsed"] / columnar["elapsed"]
    assert ratio >= 5.0, (
        f"columnar speedup regressed below the 5x floor: {ratio:.1f}x "
        f"(scalar {scalar['elapsed']:.2f} s, columnar {columnar['elapsed']:.2f} s)"
    )

    print()
    print(
        render_table(
            ["Quantity", "Value"],
            [
                ["Samples replayed", f"{result['n_samples']:,} (each path)"],
                ["Scalar wall time", f"{scalar['elapsed']:.2f} s"],
                ["Columnar wall time", f"{columnar['elapsed']:.2f} s"],
                ["Speedup", f"{ratio:.1f}x (floor 5x, target 10x)"],
                [
                    "Scalar throughput",
                    f"{result['n_samples'] / scalar['elapsed']:,.0f} samples/s",
                ],
                [
                    "Columnar throughput",
                    f"{result['n_samples'] / columnar['elapsed']:,.0f} samples/s",
                ],
                ["Alerts (both paths)", f"{columnar['alerts']}"],
                ["Worst relative diff", f"{worst_rel_diff:.1f}"],
            ],
            title="Bench L1b: columnar vs scalar hot path",
        )
    )
