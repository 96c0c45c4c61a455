"""Monitor assembly and the ``repro monitor`` CLI subcommand.

:func:`build_monitor` wires the standard processor set — per-stream
windowed rollups, the online CUSUM detector on power, the regime tracker
on carbon intensity, and the intervention advisor — into one pipeline;
:func:`run_monitor` replays a scenario through it; :func:`monitor_main`
is the CLI entry (``python -m repro monitor``), which streams alerts as
they fire and closes with a summary comparing the live detections against
the batch analysis of the same series.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from ..analysis.changepoint import segment_means
from ..core.reporting import format_kw, render_table
from ..errors import MonitoringError
from ..units import SECONDS_PER_DAY, SECONDS_PER_HOUR
from .advisor import AdvisorConfig, InterventionAdvisor
from .alerts import AdviceAlert, ChangePointAlert, RegimeChangeAlert, TextAlertSink
from .cusum import CusumConfig, OnlineCusum
from .events import CI_STREAM, POWER_STREAM
from .faults import FAULT_NAMES
from .pipeline import MonitorPipeline, MonitorReport
from .processors import WindowedRollup
from .regime import RegimeTracker, RegimeTrackerConfig
from .replay import (
    SCENARIO_BUILDERS,
    MonitorScenario,
    build_scenario,
    scenario_sources,
)
from .supervisor import SupervisedPipeline, SupervisorConfig

__all__ = ["MonitorOutcome", "build_monitor", "run_monitor", "monitor_main"]


@dataclass(frozen=True)
class MonitorOutcome:
    """A completed monitoring run with handles to the stateful stages."""

    scenario: MonitorScenario
    report: MonitorReport
    detector: OnlineCusum
    tracker: RegimeTracker
    advisor: InterventionAdvisor
    pipeline: MonitorPipeline


def build_monitor(
    cusum_config: CusumConfig | None = None,
    tracker_config: RegimeTrackerConfig | None = None,
    advisor_config: AdvisorConfig | None = None,
    rollup_window_s: float = SECONDS_PER_DAY,
    sinks: tuple = (),
    supervisor_config: SupervisorConfig | None = None,
) -> tuple[MonitorPipeline, OnlineCusum, RegimeTracker, InterventionAdvisor]:
    """Assemble the standard monitoring pipeline; returns its stages.

    With ``supervisor_config`` the pipeline is the fault-tolerant
    :class:`~repro.live.supervisor.SupervisedPipeline`; otherwise the plain
    strict pipeline. Every processor runs its vectorised hot path, which
    is bit-identical to the per-sample oracle the tests keep (see
    docs/operations.md, "Hot path and scalar oracle").
    """
    detector = OnlineCusum(POWER_STREAM, cusum_config)
    tracker = RegimeTracker(CI_STREAM, tracker_config)
    advisor = InterventionAdvisor(config=advisor_config or AdvisorConfig())
    if supervisor_config is not None:
        pipeline: MonitorPipeline = SupervisedPipeline(supervisor_config, sinks=sinks)
    else:
        pipeline = MonitorPipeline(sinks=sinks)
    pipeline.add_processor(detector)
    pipeline.add_processor(WindowedRollup(POWER_STREAM, window_s=rollup_window_s))
    pipeline.add_processor(tracker)
    pipeline.add_processor(WindowedRollup(CI_STREAM, window_s=rollup_window_s))
    pipeline.set_advisor(advisor)
    return pipeline, detector, tracker, advisor


def run_monitor(
    scenario: MonitorScenario,
    batch_size: int = 4096,
    faults: list[str] | None = None,
    fault_seed: int = 0,
    resume_from: "str | None" = None,
    **monitor_kwargs,
) -> MonitorOutcome:
    """Replay a scenario through a freshly built monitor.

    ``faults`` injects the named chaos suite into the replayed sources (see
    :func:`~repro.live.replay.scenario_sources`); ``resume_from`` loads a
    checkpoint file before running, continuing an interrupted run. Both
    require the supervised pipeline — pass ``supervisor_config`` (one is
    created with defaults if omitted).
    """
    if (faults or resume_from) and monitor_kwargs.get("supervisor_config") is None:
        monitor_kwargs["supervisor_config"] = SupervisorConfig()
    pipeline, detector, tracker, advisor = build_monitor(**monitor_kwargs)
    if resume_from is not None:
        if not isinstance(pipeline, SupervisedPipeline):
            raise MonitoringError("resume requires the supervised pipeline")
        pipeline.resume_from(resume_from)
    power, ci = scenario_sources(
        scenario, batch_size, faults=faults, fault_seed=fault_seed
    )
    return MonitorOutcome(
        scenario=scenario,
        report=pipeline.run(power, ci),
        detector=detector,
        tracker=tracker,
        advisor=advisor,
        pipeline=pipeline,
    )


def _summary_table(outcome: MonitorOutcome) -> str:
    scenario, report = outcome.scenario, outcome.report
    metrics = report.metrics
    changes = report.alerts_of(ChangePointAlert)
    regimes = report.alerts_of(RegimeChangeAlert)
    advice_alerts = report.alerts_of(AdviceAlert)

    rows = [
        ["Scenario", f"{scenario.name}: {scenario.description}"],
        [
            "Samples in",
            " + ".join(f"{n:,} {s}" for s, n in sorted(metrics.samples_in.items())),
        ],
        ["Samples dropped", f"{metrics.total_samples_dropped:,}"],
        ["Watermark", f"day {metrics.watermark_time_s / SECONDS_PER_DAY:.1f}"],
        [
            "True changes",
            ", ".join(f"day {t / SECONDS_PER_DAY:.1f}" for t in scenario.change_times_s)
            or "none",
        ],
    ]
    for i, alert in enumerate(changes):
        rows.append(
            [
                f"Detected change {i + 1}",
                f"onset day {alert.onset_time_s / SECONDS_PER_DAY:.1f}, "
                f"{format_kw(alert.level_before)} -> "
                f"~{format_kw(alert.level_after_estimate)} kW",
            ]
        )
    for i, segment in enumerate(outcome.detector.segments):
        rows.append(
            [
                f"Live segment {i + 1} mean",
                f"{format_kw(segment.mean)} kW over {segment.n:,} samples",
            ]
        )
    if changes:
        onsets = [a.onset_time_s for a in changes]
        batch = segment_means(scenario.power_kw, onsets)
        rows.append(
            [
                "Batch segment means",
                ", ".join(f"{format_kw(m)} kW" for m in batch)
                + " (same series, offline)",
            ]
        )
    rows.append(
        [
            "Regime sequence",
            " -> ".join(a.regime.value for a in regimes) or "none observed",
        ]
    )
    if isinstance(outcome.pipeline, SupervisedPipeline):
        crashes = sum(metrics.processor_crashes.values())
        rows.extend(
            [
                [
                    "Dead-lettered",
                    f"{metrics.total_samples_dead_lettered:,} samples in "
                    f"{sum(metrics.batches_dead_lettered.values()):,} batches",
                ],
                ["Sanitised", f"{sum(metrics.samples_sanitised.values()):,} samples"],
                [
                    "Crashes",
                    f"{crashes} ({sum(metrics.processor_restarts.values())} restarts, "
                    f"{len(metrics.processors_quarantined)} quarantined)",
                ],
                ["Data gaps", f"{sum(metrics.data_gaps_detected.values())}"],
                ["Checkpoints", f"{metrics.checkpoints_written}"],
                [
                    "Accounting",
                    "reconciles" if metrics.reconciles() else "DOES NOT RECONCILE",
                ],
            ]
        )
    if advice_alerts:
        last = advice_alerts[-1]
        actions = (
            ", ".join(r.action for r in last.recommendations)
            or "no power actions advised"
        )
        rows.append(["Final advice", f"{last.note}; {actions}"])
    return render_table(
        ["Quantity", "Value"], rows, title="Live facility monitor summary"
    )


def monitor_main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro monitor``; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro monitor",
        description=(
            "Replay a Figure 1-3 style telemetry scenario through the live "
            "monitoring pipeline: online change detection on cabinet power, "
            "regime tracking on grid carbon intensity, and intervention advice."
        ),
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(SCENARIO_BUILDERS),
        default="fig2",
        help="telemetry scenario to replay (default: fig2)",
    )
    parser.add_argument(
        "--days", type=float, default=None, help="override the scenario duration"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the scenario RNG seed"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        help="CUSUM alarm threshold h, in sigma units (default: 10)",
    )
    parser.add_argument(
        "--drift",
        type=float,
        default=1.0,
        help="CUSUM drift k, in sigma units (default: 1)",
    )
    parser.add_argument(
        "--warmup",
        type=int,
        default=96,
        help="baseline warm-up samples per segment (default: 96)",
    )
    parser.add_argument(
        "--hysteresis",
        type=float,
        default=5.0,
        help="regime hysteresis margin, gCO2/kWh (default: 5)",
    )
    parser.add_argument(
        "--dwell",
        type=int,
        default=3,
        help="consecutive samples to commit a regime change (default: 3)",
    )
    parser.add_argument(
        "--window-hours",
        type=float,
        default=24.0,
        help="rollup window size, hours (default: 24)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the live alert feed, print only the summary",
    )
    parser.add_argument(
        "--supervised",
        action="store_true",
        help="run under the fault-tolerant supervisor (implied by the flags below)",
    )
    parser.add_argument(
        "--inject-faults",
        metavar="NAMES",
        default=None,
        help=(
            "inject seeded chaos into the replayed telemetry: 'all' or a "
            f"comma-separated subset of {','.join(FAULT_NAMES)}"
        ),
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault injectors (default: 0)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="write periodic pipeline checkpoints to this file",
    )
    parser.add_argument(
        "--checkpoint-every-hours",
        type=float,
        default=24.0,
        help="stream-time interval between checkpoints (default: 24)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="load the --checkpoint file before running and continue from it",
    )
    args = parser.parse_args(argv)

    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint")
    faults: list[str] | None = None
    if args.inject_faults:
        if args.inject_faults.strip() == "all":
            faults = list(FAULT_NAMES)
        else:
            faults = [s.strip() for s in args.inject_faults.split(",") if s.strip()]
    supervised = bool(args.supervised or faults or args.checkpoint)
    sinks = () if args.quiet else (TextAlertSink(sys.stdout),)
    try:
        supervisor_config = (
            SupervisorConfig(
                checkpoint_path=args.checkpoint,
                checkpoint_every_s=args.checkpoint_every_hours * SECONDS_PER_HOUR,
            )
            if supervised
            else None
        )
        scenario = build_scenario(args.scenario, args.days, args.seed)
        outcome = run_monitor(
            scenario,
            faults=faults,
            fault_seed=args.fault_seed,
            resume_from=args.checkpoint if args.resume else None,
            cusum_config=CusumConfig(
                threshold_sigma=args.threshold,
                drift_sigma=args.drift,
                warmup_samples=args.warmup,
            ),
            tracker_config=RegimeTrackerConfig(
                hysteresis_g_per_kwh=args.hysteresis, min_dwell_samples=args.dwell
            ),
            rollup_window_s=args.window_hours * SECONDS_PER_HOUR,
            sinks=sinks,
            supervisor_config=supervisor_config,
        )
    except MonitoringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print()
    print(_summary_table(outcome))
    if isinstance(outcome.pipeline, SupervisedPipeline):
        if not outcome.report.metrics.reconciles():
            print("error: sample accounting does not reconcile", file=sys.stderr)
            return 1
    return 0
