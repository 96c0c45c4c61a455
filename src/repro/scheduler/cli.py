"""``repro sched`` — rigid vs carbon-aware malleable scheduling comparison.

Generates a seeded synthetic trace (workload stream + grid CI scenario),
runs it through rigid EASY backfill and the carbon-aware malleable
scheduler, and prints the side-by-side outcome: emissions, energy, bounded
stretch and the reshape/shift counters. Everything is seeded and free of
wall-clock reads, so a rerun with the same arguments is *byte-identical* —
the CI pipeline diffs two invocations to enforce exactly that.

``--check`` turns the paper-level expectations into exit-code gates:
malleable emissions strictly below rigid, and the job-conservation
identity (jobs in == completed + failed + running + queued).

``--inject-faults`` layers a seeded two-state node failure process on both
schedulers (kills, requeues, wasted node-hours), and
``--inject-feed-outages`` additionally degrades the malleable scheduler's
forecast feed. Under ``--check`` with faults on, the gates extend to the
full conservation identities (delivered + wasted node-hours reconcile
against the trace) and a mid-simulation kill/resume byte-identity replay
of both the rigid and the malleable run.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable

import numpy as np

from ..cli import (
    NON_NEGATIVE_INT,
    POSITIVE_HOURS,
    checked,
    finite_non_negative,
    finite_positive,
)
from ..errors import HpcemError
from ..facility.failures import FailureModel, FaultConfig
from ..grid.carbon_intensity import SCENARIOS
from ..grid.forecast import ForecastFeed, ForecastIndex, sample_feed_outages
from ..node import build_node_model
from ..units import SECONDS_PER_DAY, SECONDS_PER_HOUR, SECONDS_PER_MINUTE
from ..workload.mix import archer2_mix
from .accounting import SimulationResult
from .backfill import BackfillScheduler, StaticEnvironment
from .malleable import (
    MalleableScheduler,
    MalleableSimulation,
    MalleableSimulationResult,
    compare_rigid_malleable,
    comparison_trace,
)

__all__ = ["build_sched_parser", "sched_main"]


def _fraction(value: float) -> bool:
    return 0.0 <= value <= 1.0


_CI_BOUNDARY = checked("a finite non-negative number of gCO2/kWh", finite_non_negative)


def build_sched_parser(prog: str = "repro sched") -> argparse.ArgumentParser:
    """The ``repro sched`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Compare rigid EASY backfill against carbon-aware malleable "
            "scheduling on a seeded synthetic trace."
        ),
    )
    parser.add_argument(
        "--nodes",
        type=checked("a positive whole number", lambda value: value > 0, int),
        default=512,
        help="facility size",
    )
    parser.add_argument(
        "--days",
        type=checked(
            "a finite positive number of days", finite_positive, scale=SECONDS_PER_DAY
        ),
        default=7.0,
        help="simulated span in days",
    )
    parser.add_argument(
        "--seed", type=NON_NEGATIVE_INT, default=42, help="trace + scheduler seed"
    )
    parser.add_argument(
        "--offered-load",
        type=checked("a finite positive number", finite_positive),
        default=0.95,
        help="offered load (keep < 1 so the queue stays bounded)",
    )
    parser.add_argument(
        "--malleable-fraction",
        type=checked("a fraction in [0, 1]", _fraction),
        default=0.5,
        help="fraction of jobs declaring an elastic shape",
    )
    parser.add_argument(
        "--slack-hours",
        type=checked(
            "a finite non-negative number of hours",
            finite_non_negative,
            scale=SECONDS_PER_HOUR,
        ),
        default=2.0,
        help="mean start slack of malleable jobs, hours",
    )
    parser.add_argument(
        "--tick-minutes",
        type=checked(
            "a finite positive number of minutes", finite_positive, scale=SECONDS_PER_MINUTE
        ),
        default=30.0,
        help="carbon re-evaluation cadence, minutes",
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        default="balanced",
        help="grid CI scenario (default crosses the 100 g/kWh boundary daily)",
    )
    parser.add_argument(
        "--low",
        type=_CI_BOUNDARY,
        default=30.0,
        help="low CI regime boundary, gCO2/kWh",
    )
    parser.add_argument(
        "--high",
        type=_CI_BOUNDARY,
        default=100.0,
        help="high CI regime boundary, gCO2/kWh",
    )
    parser.add_argument(
        "--inject-faults",
        action="store_true",
        help="inject seeded node failures (kills, requeue, wasted hours)",
    )
    parser.add_argument(
        "--mtbf-hours",
        type=POSITIVE_HOURS,
        default=4380.0,
        help="per-node mean time between failures, hours",
    )
    parser.add_argument(
        "--mttr-hours",
        type=POSITIVE_HOURS,
        default=12.0,
        help="per-node mean time to repair, hours",
    )
    parser.add_argument(
        "--max-retries",
        type=NON_NEGATIVE_INT,
        default=3,
        help="requeue budget before a killed job fails terminally",
    )
    parser.add_argument(
        "--ckpt-minutes",
        type=checked(
            "a finite non-negative number of minutes",
            finite_non_negative,
            scale=SECONDS_PER_MINUTE,
        ),
        default=0.0,
        help="checkpoint cadence for killed-job restart, minutes (0 = restart "
        "from scratch)",
    )
    parser.add_argument(
        "--inject-feed-outages",
        action="store_true",
        help="inject seeded forecast-feed outages (malleable degrades to "
        "rigid placement while stale)",
    )
    parser.add_argument(
        "--stale-after-hours",
        type=checked("a positive number of hours", lambda value: value > 0.0),
        default=2.0,
        help="forecast staleness beyond which malleable degrades, hours",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless malleable beats rigid emissions and the "
        "conservation identities hold (with faults on, also replays a "
        "mid-simulation kill/resume and requires byte-identity)",
    )
    return parser


def _format_row(label: str, rigid: str, malleable: str) -> str:
    return f"{label:<28}{rigid:>16}{malleable:>16}"


def _resume_replays(
    new_simulation: Callable[[], MalleableSimulation],
    result: SimulationResult | MalleableSimulationResult,
) -> bool:
    """Kill a fresh run mid-trace, round-trip its snapshot through JSON and
    resume it in another: the replay must match ``result`` byte for byte."""
    sim = new_simulation()
    for _ in range(max(1, (result.n_jobs * 3) // 2)):
        if not sim.step():
            break
    snapshot = json.loads(json.dumps(sim.state_dict()))
    resumed = new_simulation()
    resumed.load_state_dict(snapshot)
    replay = resumed.run_to_completion()
    return (
        replay.records == result.records
        and replay.faults == result.faults
        and replay.trace.times_s.tobytes() == result.trace.times_s.tobytes()
        and replay.trace.busy_power_w.tobytes() == result.trace.busy_power_w.tobytes()
    )


def sched_main(argv: list[str], prog: str = "repro sched") -> int:
    """``repro sched`` entry point; returns a process exit code.

    A flag out of its range, or ``--low`` not below ``--high``, is refused
    by argparse, which names the flag and exits 2. An argument combination
    the library still refuses prints ``error: <message>`` and returns 2.
    """
    parser = build_sched_parser(prog)
    args = parser.parse_args(argv)
    if not args.low < args.high:
        parser.error(
            f"argument --low/--high: --low must be below --high, got {args.low:g} and {args.high:g}"
        )
    t_end_s = args.days * SECONDS_PER_DAY

    try:
        jobs, ci = comparison_trace(
            archer2_mix(),
            days=args.days,
            nodes=args.nodes,
            seed=args.seed,
            scenario=args.scenario,
            offered_load=args.offered_load,
            malleable_fraction=args.malleable_fraction,
            slack_hours=args.slack_hours,
        )

        fault_config = None
        if args.inject_faults:
            fault_config = FaultConfig(
                model=FailureModel(
                    mtbf_hours=args.mtbf_hours, mttr_hours=args.mttr_hours
                ),
                seed=args.seed,
                max_retries=args.max_retries,
                checkpoint_interval_s=args.ckpt_minutes * 60.0,
            )
        feed = None
        if args.inject_feed_outages:
            outage_rng = np.random.default_rng(args.seed + 1)
            feed = ForecastFeed(
                ForecastIndex(ci),
                outages=sample_feed_outages(t_end_s, outage_rng),
            )

        environment = StaticEnvironment(node_model=build_node_model())
        comparison = compare_rigid_malleable(
            jobs,
            t_end_s,
            environment,
            ci,
            n_nodes=args.nodes,
            carbon_tick_interval_s=args.tick_minutes * 60.0,
            low_g_per_kwh=args.low,
            high_g_per_kwh=args.high,
            seed=args.seed,
            fault_config=fault_config,
            feed=feed,
            stale_after_s=args.stale_after_hours * 3600.0,
        )
    except HpcemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rigid, malleable = comparison.rigid, comparison.malleable

    print(
        f"trace: {len(jobs)} jobs over {args.days:g} days on {args.nodes} "
        f"nodes, scenario '{args.scenario}' (seed {args.seed})"
    )
    print()
    print(_format_row("", "rigid", "malleable"))
    print(_format_row("-" * 28, "-" * 14, "-" * 14))
    print(
        _format_row(
            "emissions [tCO2e]",
            f"{comparison.rigid_tco2e:.3f}",
            f"{comparison.malleable_tco2e:.3f}",
        )
    )
    print(
        _format_row(
            "energy [kWh]",
            f"{rigid.total_energy_kwh():.0f}",
            f"{malleable.total_energy_kwh():.0f}",
        )
    )
    print(
        _format_row(
            "mean utilisation",
            f"{rigid.mean_utilisation():.3f}",
            f"{malleable.mean_utilisation():.3f}",
        )
    )
    print(
        _format_row(
            "mean bounded stretch",
            f"{rigid.mean_bounded_stretch():.3f}",
            f"{malleable.mean_bounded_stretch():.3f}",
        )
    )
    print(
        _format_row(
            "p95 bounded stretch",
            f"{rigid.p95_bounded_stretch():.3f}",
            f"{malleable.p95_bounded_stretch():.3f}",
        )
    )
    print(
        _format_row(
            "placed jobs",
            f"{len(rigid.records)}",
            f"{len(malleable.records)}",
        )
    )
    print()
    print(
        f"malleable actions: {malleable.n_shifted} shifted, "
        f"{malleable.n_shrinks} shrinks, {malleable.n_grows} grows"
    )
    print(
        f"savings: {comparison.emissions_saving_tco2e:.3f} tCO2e, "
        f"{comparison.energy_saving_kwh:.0f} kWh "
        f"(stretch penalty {comparison.stretch_penalty:+.3f})"
    )

    if fault_config is not None:
        print()
        print(
            f"faults (MTBF {args.mtbf_hours:g} h, MTTR {args.mttr_hours:g} h, "
            f"seed {fault_config.seed}):"
        )
        for label, acct in (("rigid", rigid.faults), ("malleable", malleable.faults)):
            print(
                f"  {label:<10} {acct.n_failures} node failures, "
                f"{acct.n_job_kills} job kills, {acct.n_retries} retries, "
                f"{acct.n_failed_terminal} terminal, "
                f"{acct.wasted_node_hours:.1f} wasted node-h "
                f"({acct.wasted_energy_kwh:.0f} kWh), "
                f"{acct.drained_node_hours:.1f} drained node-h"
            )
    if feed is not None:
        print(
            f"feed outages: {len(feed.outages)} injected, malleable saw "
            f"{malleable.faults.n_degraded_ticks} degraded ticks, "
            f"{malleable.faults.n_degraded_starts} degraded starts"
        )

    if args.check:
        failures = []
        if fault_config is None and not (
            comparison.malleable_tco2e < comparison.rigid_tco2e
        ):
            failures.append(
                "malleable emissions not strictly below rigid "
                f"({comparison.malleable_tco2e:.6f} vs {comparison.rigid_tco2e:.6f})"
            )
        if not rigid.reconciles():
            failures.append(
                "rigid conservation violated: jobs or node-hour identity broke"
            )
        if not malleable.reconciles():
            failures.append(
                "malleable conservation violated: "
                f"{malleable.n_jobs} in != {malleable.n_completed} completed "
                f"+ {malleable.faults.n_failed_terminal} failed "
                f"+ {malleable.n_running_at_end} running "
                f"+ {malleable.n_queued_at_end} queued, or node-hour "
                "identity broke"
            )
        if fault_config is not None:
            rigid_scheduler = BackfillScheduler(args.nodes, fault_config=fault_config)
            malleable_scheduler = MalleableScheduler(
                args.nodes,
                environment,
                ci,
                carbon_tick_interval_s=args.tick_minutes * 60.0,
                low_g_per_kwh=args.low,
                high_g_per_kwh=args.high,
                seed=args.seed,
                fault_config=fault_config,
                feed=feed,
                stale_after_s=args.stale_after_hours * 3600.0,
            )
            for label, result, new_simulation in (
                ("rigid", rigid, lambda: rigid_scheduler.simulation(jobs, t_end_s, environment)),
                ("malleable", malleable, lambda: malleable_scheduler.simulation(jobs, t_end_s)),
            ):
                if not _resume_replays(new_simulation, result):
                    failures.append(f"{label} kill/resume replay under faults not byte-identical")
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("checks passed")
    return 0
