"""Finding model shared by every checker, the engine and the CLI.

A finding pins a contract violation to a file, line and column and carries
the machine code (``REPxxx``) that selects/suppresses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One contract violation at a specific source location."""

    path: str
    line: int
    col: int
    code: str
    message: str = field(compare=False)
    checker: str = field(compare=False, default="")
    snippet: str = field(compare=False, default="")

    def to_dict(self) -> dict:
        """JSON-ready representation (stable key order)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "checker": self.checker,
            "snippet": self.snippet.strip(),
        }

    def render(self) -> str:
        """One-line human rendering, ``path:line:col CODE message`` style."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
