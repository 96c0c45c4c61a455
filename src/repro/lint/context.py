"""Parsed-file and whole-project context handed to checkers.

A :class:`FileContext` is built once per file (source, AST, suppression map)
and shared by every checker; a :class:`ProjectContext` bundles all of them
plus the project root for checkers that need cross-file knowledge (public-API
drift checks the package ``__init__`` against the contract test).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import LintError
from .annotations import is_suppressed, parse_suppressions

__all__ = ["FileContext", "ProjectContext", "find_project_root"]


def find_project_root(start: Path) -> Path:
    """Nearest ancestor of ``start`` holding ``pyproject.toml`` (else start).

    Keeps reported paths and cross-file contracts stable no matter which
    subdirectory the CLI is invoked from.
    """
    start = start.resolve()
    candidates = [start, *start.parents] if start.is_dir() else list(start.parents)
    for candidate in candidates:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start if start.is_dir() else start.parent


@dataclass
class FileContext:
    """One source file, parsed and annotated, ready for checking."""

    path: Path
    rel: str  # posix path relative to the project root, used in findings
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def from_path(cls, path: Path, root: Path) -> "FileContext":
        """Parse ``path``; raises ``SyntaxError`` for unparseable source."""
        source = path.read_text(encoding="utf-8")
        try:
            rel = path.resolve().relative_to(root).as_posix()
        except ValueError:  # outside the root (explicit file argument)
            rel = path.as_posix()
        tree = ast.parse(source, filename=str(path))
        try:
            suppressions = parse_suppressions(source)
        except LintError as exc:
            raise LintError(f"{rel}: {exc}") from exc
        return cls(
            path=path,
            rel=rel,
            source=source,
            tree=tree,
            lines=source.splitlines(),
            suppressions=suppressions,
        )

    def line_text(self, lineno: int) -> str:
        """Source text of a 1-based line ('' when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def is_suppressed(self, lineno: int, code: str) -> bool:
        """Whether an in-source annotation silences ``code`` at ``lineno``."""
        return is_suppressed(self.suppressions, lineno, code)


@dataclass
class ProjectContext:
    """Every parsed file plus the root, for project-scoped checkers."""

    root: Path
    files: list[FileContext]
    _graph: object | None = field(default=None, init=False, repr=False, compare=False)
    _signatures: object | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def graph(self):
        """The whole-program :class:`~repro.lint.graph.ProjectGraph` (lazy).

        Built on first use and shared by every project-scoped checker in the
        run, so the import/call graph is constructed at most once.
        """
        if self._graph is None:
            from .graph import ProjectGraph

            self._graph = ProjectGraph(self)
        return self._graph

    def signature_table(self):
        """The interprocedural :class:`~repro.lint.signatures.SignatureTable`."""
        if self._signatures is None:
            from .signatures import SignatureTable

            self._signatures = SignatureTable(self.graph())
        return self._signatures

    def by_rel(self, rel: str) -> FileContext | None:
        """The context for a root-relative posix path, if it was collected."""
        for ctx in self.files:
            if ctx.rel == rel:
                return ctx
        return None

    def read_or_load(self, rel: str) -> FileContext | None:
        """A context for ``rel`` even when outside the linted path set.

        Cross-file contracts (e.g. the ``__init__`` / contract-test pairing)
        must hold regardless of which paths were passed on the command line.
        Returns ``None`` when the file does not exist or does not parse — the
        caller decides whether that is itself a finding.
        """
        ctx = self.by_rel(rel)
        if ctx is not None:
            return ctx
        path = self.root / rel
        if not path.is_file():
            return None
        try:
            return FileContext.from_path(path, self.root)
        except (SyntaxError, UnicodeDecodeError, OSError):
            return None
