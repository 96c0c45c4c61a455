"""Lint engine: collect files, run checkers, apply in-source suppressions.

:func:`run_lint` is the library entry point (the CLI is a thin shell over
it).  The pass is deterministic: files are collected in sorted order,
findings are sorted by (path, line, col, code), and the JSON rendering is
stable — CI diffs of lint output are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ..errors import LintError
from .context import FileContext, ProjectContext, find_project_root
from .findings import Finding
from .registry import REGISTRY, checkers_for_code_set, resolve_codes
from .unitspec import validate_registry_against_units_module

# Importing the package registers the built-in checkers.
from . import checkers as _builtin_checkers  # noqa: F401  (import for effect)

__all__ = ["LintReport", "collect_files", "run_lint"]

#: Directory names never descended into when expanding directory arguments.
_EXCLUDED_DIR_NAMES = frozenset(
    {
        "__pycache__",
        ".git",
        ".mypy_cache",
        ".ruff_cache",
        ".pytest_cache",
        "build",
        "dist",
    }
)

#: Path fragments excluded when expanding directories (explicit file
#: arguments bypass this, which is how the fixture tests lint fixtures).
_EXCLUDED_FRAGMENTS = ("lint/fixtures/", ".egg-info")


@dataclass
class LintReport:
    """Everything one lint run learned."""

    root: Path
    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[Finding] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """Non-zero exactly when a finding (or parse error) exists."""
        return 1 if (self.findings or self.parse_errors) else 0

    def counts_by_code(self) -> dict[str, int]:
        """Finding tallies per code, sorted by code."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict:
        """Stable JSON-ready payload (the ``--format json`` contract)."""
        return {
            "version": 2,
            "root": str(self.root),
            "files_checked": self.files_checked,
            "counts": self.counts_by_code(),
            "findings": [f.to_dict() for f in self.findings],
            "parse_errors": [f.to_dict() for f in self.parse_errors],
            "exit_code": self.exit_code,
        }


def collect_files(paths: Sequence[Path], root: Path) -> list[Path]:
    """Expand path arguments into a sorted, de-duplicated list of .py files."""
    out: set[Path] = set()
    for path in paths:
        path = path if path.is_absolute() else root / path
        if path.is_file():
            if path.suffix == ".py":
                out.add(path.resolve())
            continue
        if not path.is_dir():
            raise LintError(f"no such file or directory: {path}")
        for candidate in path.rglob("*.py"):
            rel = candidate.as_posix()
            if any(part in _EXCLUDED_DIR_NAMES for part in candidate.parts):
                continue
            if any(fragment in rel for fragment in _EXCLUDED_FRAGMENTS):
                continue
            out.add(candidate.resolve())
    return sorted(out)


def _parse_error_finding(path: Path, root: Path, exc: SyntaxError) -> Finding:
    try:
        rel = path.resolve().relative_to(root).as_posix()
    except ValueError:
        rel = path.as_posix()
    return Finding(
        path=rel,
        line=exc.lineno or 1,
        col=(exc.offset or 0) + 1,
        code="REP000",
        message=f"file does not parse: {exc.msg}",
        checker="engine",
        snippet=(exc.text or "").rstrip("\n"),
    )


def run_lint(
    paths: Sequence[str | Path],
    *,
    root: str | Path | None = None,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintReport:
    """Run every selected checker over ``paths`` and collect the findings.

    ``select``/``ignore`` take code prefixes (``REP1``, ``REP301``).  A
    finding an in-source ``# lint:`` annotation covers is dropped; every
    other one counts towards the exit code.
    """
    path_objs = [Path(p) for p in paths]
    if not path_objs:
        raise LintError("no paths given to lint")
    root_path = (
        Path(root).resolve() if root is not None else find_project_root(path_objs[0])
    )
    validate_registry_against_units_module(root_path)
    selected = resolve_codes(select, ignore)

    report = LintReport(root=root_path)
    contexts: list[FileContext] = []
    for file_path in collect_files(path_objs, root_path):
        try:
            contexts.append(FileContext.from_path(file_path, root_path))
        except SyntaxError as exc:
            report.parse_errors.append(
                _parse_error_finding(file_path, root_path, exc)
            )
        except UnicodeDecodeError as exc:
            raise LintError(f"cannot decode {file_path}: {exc}") from exc
    report.files_checked = len(contexts) + len(report.parse_errors)

    project = ProjectContext(root=root_path, files=contexts)
    ctx_by_rel = {ctx.rel: ctx for ctx in contexts}

    raw: list[Finding] = []
    active = set(checkers_for_code_set(selected))
    for checker in REGISTRY.values():
        if checker not in active:
            continue
        if checker.scope == "project":
            raw.extend(checker.check_project(project))
        else:
            for ctx in contexts:
                if checker.applies_to(ctx.rel):
                    raw.extend(checker.check(ctx, project))

    for finding in raw:
        if finding.code not in selected:
            continue
        ctx = ctx_by_rel.get(finding.path)
        if ctx is not None and ctx.is_suppressed(finding.line, finding.code):
            continue
        report.findings.append(finding)
    report.findings.sort()
    return report
