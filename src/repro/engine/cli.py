"""``repro sweep`` — plan, run, resume and export scenario sweeps.

Actions::

    repro sweep plan  [grid flags]            # show the grid + spec hash, no work
    repro sweep run   [grid flags] [--cache DIR] [--export DIR]
    repro sweep resume --spec FILE --cache DIR [--export DIR]
    repro sweep invalidate (--spec FILE | --hash HASH) --cache DIR

``plan --spec-out FILE`` writes the canonical spec JSON; ``run``/``resume``
accept the same file via ``--spec``, so a killed run resumes from whatever
chunks the on-disk cache already holds and produces byte-identical exports.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import HpcemError
from ..node.determinism import DeterminismMode
from ..node.pstates import FrequencySetting
from .cache import SweepStore
from .plan import CIScenario, SweepSpec
from .runner import run_sweep

__all__ = ["sweep_main", "build_sweep_parser"]


def _csv_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    grid = parser.add_argument_group("grid axes (defaults: the ARCHER2 study grid)")
    grid.add_argument(
        "--frequencies",
        metavar="LIST",
        help="comma-separated frequency settings, e.g. '1.5GHz,2.0GHz,2.25GHz+turbo'",
    )
    grid.add_argument(
        "--modes",
        metavar="LIST",
        help="comma-separated BIOS modes: 'power-determinism,performance-determinism'",
    )
    grid.add_argument(
        "--ci",
        metavar="LIST",
        help="comma-separated flat carbon intensities in gCO2/kWh, e.g. '25,55,190'",
    )
    grid.add_argument(
        "--decarb",
        metavar="START:RATE[:FLOOR]",
        action="append",
        default=[],
        help="add a decarbonising CI scenario (repeatable), e.g. '190:0.07:15'",
    )
    grid.add_argument(
        "--utilisations", metavar="LIST", help="comma-separated fractions, e.g. '0.5,0.9'"
    )
    grid.add_argument(
        "--nodes", metavar="LIST", help="comma-separated node counts, e.g. '1000,5860'"
    )
    grid.add_argument(
        "--lifetimes", metavar="LIST", help="comma-separated service lifetimes in years"
    )
    grid.add_argument(
        "--combine",
        choices=["cartesian", "zip"],
        default=None,
        help="grid combination: full product (default) or positional zip",
    )
    grid.add_argument(
        "--app",
        metavar="NAME",
        default=None,
        help="catalogue application for perf/energy ratio columns",
    )
    parser.add_argument(
        "--spec",
        metavar="FILE",
        default=None,
        help="load the spec from a canonical JSON file (grid flags then not allowed)",
    )


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    grid_flags = (
        args.frequencies,
        args.modes,
        args.ci,
        args.utilisations,
        args.nodes,
        args.lifetimes,
        args.combine,
        args.app,
    )
    if args.spec is not None:
        if any(flag is not None for flag in grid_flags) or args.decarb:
            raise HpcemError("--spec replaces the grid flags; pass one or the other")
        return SweepSpec.from_json(Path(args.spec).read_text())
    fields: dict = {}
    if args.frequencies is not None:
        fields["frequencies"] = tuple(
            FrequencySetting(v) for v in _csv_list(args.frequencies)
        )
    if args.modes is not None:
        fields["bios_modes"] = tuple(DeterminismMode(v) for v in _csv_list(args.modes))
    scenarios: list[CIScenario] = []
    if args.ci is not None:
        scenarios.extend(CIScenario.flat(float(v)) for v in _csv_list(args.ci))
    for text in args.decarb:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise HpcemError(f"--decarb expects START:RATE[:FLOOR], got {text!r}")
        floor = float(parts[2]) if len(parts) == 3 else 15.0
        scenarios.append(
            CIScenario.decarbonising(float(parts[0]), float(parts[1]), floor)
        )
    if scenarios:
        fields["ci_scenarios"] = tuple(scenarios)
    if args.utilisations is not None:
        fields["utilisations"] = tuple(float(v) for v in _csv_list(args.utilisations))
    if args.nodes is not None:
        fields["node_counts"] = tuple(int(v) for v in _csv_list(args.nodes))
    if args.lifetimes is not None:
        fields["lifetimes_years"] = tuple(float(v) for v in _csv_list(args.lifetimes))
    if args.combine is not None:
        fields["combine"] = args.combine
    if args.app is not None:
        fields["app_name"] = args.app
    return SweepSpec(**fields)


def build_sweep_parser() -> argparse.ArgumentParser:
    """The ``repro sweep`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Plan, run, resume and export scenario sweeps.",
    )
    actions = parser.add_subparsers(dest="action", required=True)

    plan = actions.add_parser("plan", help="describe the grid without evaluating it")
    _add_grid_arguments(plan)
    plan.add_argument(
        "--spec-out",
        metavar="FILE",
        default=None,
        help="write the canonical spec JSON for later run/resume",
    )

    for name, help_text in (
        ("run", "evaluate the grid (reusing any cached chunks)"),
        ("resume", "continue a previous run from its on-disk cache"),
    ):
        sub = actions.add_parser(name, help=help_text)
        _add_grid_arguments(sub)
        sub.add_argument(
            "--cache",
            metavar="DIR",
            default=None,
            required=(name == "resume"),
            help="on-disk chunk cache directory",
        )
        sub.add_argument(
            "--chunk-size", type=int, default=4096, help="scenario rows per batch"
        )
        sub.add_argument(
            "--export",
            metavar="DIR",
            default=None,
            help="write the sweep table (.txt) and full grid (.csv) to DIR",
        )
        sub.add_argument(
            "--max-rows", type=int, default=12, help="rows shown in the printed table"
        )
        sub.add_argument(
            "--progress", action="store_true", help="print per-chunk progress to stderr"
        )

    invalidate = actions.add_parser("invalidate", help="drop one spec's cached chunks")
    invalidate.add_argument("--spec", metavar="FILE", default=None)
    invalidate.add_argument("--hash", metavar="HASH", default=None)
    invalidate.add_argument("--cache", metavar="DIR", required=True)
    return parser


def _print_plan(spec: SweepSpec) -> None:
    lengths = spec.axis_lengths
    print(f"spec hash     : {spec.spec_hash}")
    print(f"combine       : {spec.combine}")
    print(f"scenarios     : {spec.n_scenarios}")
    print(
        "axes          : "
        + " × ".join(
            f"{name}[{n}]" for name, n in zip(
                ("freq", "mode", "ci", "util", "nodes", "lifetime"), lengths
            )
        )
    )
    print(f"frequencies   : {', '.join(f.value for f in spec.frequencies)}")
    print(f"bios modes    : {', '.join(m.value for m in spec.bios_modes)}")
    print(f"ci scenarios  : {', '.join(c.name for c in spec.ci_scenarios)}")
    print(f"utilisations  : {', '.join(f'{u:g}' for u in spec.utilisations)}")
    print(f"node counts   : {', '.join(str(n) for n in spec.node_counts)}")
    print(f"lifetimes (y) : {', '.join(f'{y:g}' for y in spec.lifetimes_years)}")
    if spec.app_name:
        print(f"app           : {spec.app_name}")


def sweep_main(argv: list[str] | None = None) -> int:
    """``repro sweep`` entry point; returns a process exit code."""
    parser = build_sweep_parser()
    args = parser.parse_args(argv)
    try:
        if args.action == "plan":
            spec = _spec_from_args(args)
            _print_plan(spec)
            if args.spec_out:
                Path(args.spec_out).write_text(spec.canonical_json() + "\n")
                print(f"(spec written to {args.spec_out})")
            return 0

        if args.action == "invalidate":
            if (args.spec is None) == (args.hash is None):
                raise HpcemError("pass exactly one of --spec or --hash")
            spec_hash = (
                SweepSpec.from_json(Path(args.spec).read_text()).spec_hash
                if args.spec
                else args.hash
            )
            store = SweepStore(args.cache)
            removed = store.invalidate(spec_hash)
            print(f"removed {removed} cached file(s) for {spec_hash}")
            return 0

        # run / resume
        spec = _spec_from_args(args)
        store = SweepStore(args.cache) if args.cache else None
        if args.action == "resume" and store is not None:
            done = store.cached_chunks(spec.spec_hash)
            print(
                f"resuming {spec.spec_hash[:12]}: {len(done)} chunk(s) already cached",
                file=sys.stderr,
            )

        def progress(done: int, total: int, source: str) -> None:
            print(f"chunk {done}/{total} ({source})", file=sys.stderr)

        result = run_sweep(
            spec,
            chunk_size=args.chunk_size,
            store=store,
            progress=progress if args.progress else None,
        )
        print(result.to_table(max_rows=args.max_rows))
        meta = result.meta
        print(
            f"({len(result)} scenario(s): {meta.disk_hits} cached chunk(s), "
            f"{meta.computed_chunks} computed)"
        )
        if args.export:
            from ..results import write_result

            written = write_result(result, args.export)
            print(f"(exported {len(written)} file(s) to {args.export})")
        return 0
    except (HpcemError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(sweep_main())
