"""The linter's strongest test: the shipped tree must pass its own checks."""

from __future__ import annotations

from pathlib import Path

from repro.lint.engine import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_shipped_tree_is_lint_clean() -> None:
    report = run_lint(["src", "tests"], root=REPO_ROOT)
    assert not report.parse_errors, [f.render() for f in report.parse_errors]
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings
    )
    assert report.exit_code == 0
    # Sanity: the run actually covered the tree, not an empty glob.
    assert report.files_checked > 100


def test_linter_lints_itself() -> None:
    report = run_lint(["src/repro/lint"], root=REPO_ROOT)
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings
    )
