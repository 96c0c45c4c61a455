"""``repro lint`` — run the contract checkers from the command line.

Examples::

    repro lint src tests                  # everything, text output
    repro lint src --select REP3          # float-equality only
    repro lint src --ignore REP101        # all but the suffix-spelling check
    repro lint src --format json          # stable machine-readable report
    repro lint src --format sarif         # GitHub code-scanning annotations
    repro lint --explain REP601           # contract + example fix for a code

A finding is accepted only by a justified in-source annotation on its line
(``# lint: exact-float -- reason``); every other one fails the run.

Exit codes: 0 clean, 1 findings or parse errors, 2 usage/configuration
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..errors import ConfigurationError, LintError
from .context import find_project_root
from .engine import LintReport, run_lint
from .registry import all_codes

__all__ = ["build_lint_parser", "lint_main"]


def build_lint_parser(prog: str = "repro lint") -> argparse.ArgumentParser:
    """The ``repro lint`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "AST-based contract checker: unit-suffix discipline, "
            "determinism, float equality, state-dict symmetry and "
            "public-API drift."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        metavar="PATH",
        help="files or directories to check (default: src tests)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated code prefixes to enable (e.g. REP1,REP301)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        default=None,
        help="comma-separated code prefixes to disable",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--explain",
        metavar="CODE",
        default=None,
        help="print the contract and an example fix for one code and exit",
    )
    parser.add_argument(
        "--list-checks",
        action="store_true",
        help="list every registered code with its contract and exit",
    )
    return parser


def _split(csv: str | None) -> list[str] | None:
    if csv is None:
        return None
    return [part for part in csv.split(",") if part.strip()]


def _render_text(report: LintReport) -> str:
    if not report.exit_code:
        return f"clean: {report.files_checked} file(s), 0 finding(s)"
    lines = [f.render() for f in [*report.parse_errors, *report.findings]]
    counts = ", ".join(f"{c}: {n}" for c, n in report.counts_by_code().items())
    lines.append(
        f"found {len(report.findings)} finding(s) in "
        f"{report.files_checked} file(s)" + (f" [{counts}]" if counts else "")
    )
    return "\n".join(lines)


def lint_main(argv: list[str] | None = None, prog: str = "repro lint") -> int:
    """CLI entry point; returns a process exit code."""
    args = build_lint_parser(prog).parse_args(argv)

    if args.list_checks:
        for code, description in all_codes().items():
            print(f"{code}  {description}")
        return 0

    if args.explain:
        from .explain import explain

        try:
            print(explain(args.explain))
        except (ConfigurationError, LintError) as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
        return 0

    # A path argument names a file relative to the working directory; the
    # library resolves relative paths against the project root instead.
    paths = [Path(p).resolve() for p in args.paths]
    try:
        report = run_lint(
            paths,
            root=find_project_root(paths[0]),
            select=_split(args.select),
            ignore=_split(args.ignore),
        )
    except (ConfigurationError, LintError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.format == "sarif":
        from .sarif import to_sarif

        print(json.dumps(to_sarif(report), indent=2))
    else:
        print(_render_text(report))
    return report.exit_code
