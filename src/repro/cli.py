"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``repro run [ID ...]`` — run experiment drivers (tables, figures,
  ablations); ``--list``, ``--validate`` and ``--export DIR`` live here.
* ``repro monitor`` — the live facility monitoring pipeline
  (:mod:`repro.live.monitor`).
* ``repro sweep`` — plan/run/resume/export scenario sweeps through the
  vectorized engine (:mod:`repro.engine.cli`).
* ``repro lint`` — AST-based contract checker over the repo's own source
  (:mod:`repro.lint.cli`).
* ``repro sched`` — rigid vs carbon-aware malleable scheduling comparison
  (:mod:`repro.scheduler.cli`).
* ``repro serve`` — the multi-tenant facility service over HTTP/JSON, or
  its concurrency selftest (:mod:`repro.service.cli`).
"""

from __future__ import annotations

import argparse
import sys
import time

FAST_EXPERIMENTS = ["T1", "T2", "T3", "T4", "R1", "A1", "A2"]

SUBCOMMANDS = ("run", "monitor", "sweep", "lint", "sched", "serve")
USAGE = f"usage: repro {{{','.join(SUBCOMMANDS)}}} ... (see 'repro <subcommand> --help')"


def build_parser() -> argparse.ArgumentParser:
    """The ``repro run`` argument parser (exposed for tests)."""
    from .experiments import REGISTRY

    parser = argparse.ArgumentParser(
        prog="repro run",
        description=(
            "Reproduce the ARCHER2 emissions/energy-efficiency case study "
            "(SC 2023) on a simulated facility."
        ),
        epilog=(
            "Other subcommands: 'repro monitor' runs the live facility "
            "monitoring pipeline; 'repro sweep' plans/runs/exports scenario "
            "sweeps through the vectorized engine; 'repro lint' runs the "
            "AST-based contract checker; 'repro sched' compares rigid vs "
            "carbon-aware malleable scheduling; 'repro serve' runs the "
            "multi-tenant facility service. See their --help."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help=f"experiment ids to run: {', '.join(sorted(REGISTRY))}, or 'all' "
        f"(default: the fast set {' '.join(FAST_EXPERIMENTS)})",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="run the fast reproduction self-check and exit",
    )
    parser.add_argument(
        "--export",
        metavar="DIR",
        default=None,
        help="also write each experiment's table (.txt) and series (.csv) to DIR",
    )
    return parser


def run_main(argv: list[str]) -> int:
    """``repro run`` entry point; returns a process exit code."""
    from .experiments import REGISTRY, run_experiment

    args = build_parser().parse_args(argv)
    if args.list:
        for exp_id in sorted(REGISTRY):
            print(exp_id)
        return 0
    if args.validate:
        from .core.validation import validate_reproduction

        report = validate_reproduction()
        print(report)
        return 0 if report.passed else 1
    requested = args.experiments or FAST_EXPERIMENTS
    if len(requested) == 1 and requested[0].lower() == "all":
        requested = sorted(REGISTRY)
    unknown = [e for e in requested if e.upper() not in REGISTRY]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}", file=sys.stderr)
        return 2
    for exp_id in requested:
        start = time.perf_counter()
        result = run_experiment(exp_id)
        elapsed = time.perf_counter() - start
        print(result)
        print(f"({exp_id} completed in {elapsed:.1f}s)")
        if args.export:
            from .results import write_result

            written = write_result(result, args.export)
            print(f"(exported {len(written)} file(s) to {args.export})")
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; dispatches subcommands, returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "monitor":
        from .live.monitor import monitor_main

        return monitor_main(argv[1:])
    if argv and argv[0] == "sweep":
        from .engine.cli import sweep_main

        return sweep_main(argv[1:])
    if argv and argv[0] == "lint":
        from .lint.cli import lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "sched":
        from .scheduler.cli import sched_main

        return sched_main(argv[1:])
    if argv and argv[0] == "serve":
        from .service.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "run":
        return run_main(argv[1:])
    if argv and argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0
    print(USAGE, file=sys.stderr)
    if argv:
        print(f"to run experiments: repro run {' '.join(argv)}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
