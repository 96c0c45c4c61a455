"""Fixture-driven contract tests for every lint checker.

Each checker gets one known-bad fixture (every finding asserted by exact
``(line, code)``) and one known-good fixture (zero findings — the
false-positive guard).  Fixtures are linted with ``root=`` pointing at the
fixtures directory itself so their relative paths are bare filenames: that
bypasses the ``tests/`` scoping of the float-equality checker and the
entry-point allowlist of the determinism checker, exercising the checkers
proper rather than their path filters.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.checkers.determinism import DeterminismChecker
from repro.lint.engine import run_lint

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name: str, **kwargs):
    report = run_lint([f"{name}.py"], root=FIXTURES, **kwargs)
    assert not report.parse_errors, report.parse_errors
    return report


def locations(report) -> list[tuple[int, str]]:
    return [(f.line, f.code) for f in report.findings]


BAD_EXPECTATIONS = {
    "units_bad": [
        (6, "REP102"),  # power + energy
        (11, "REP102"),  # kW compared against MW
        (16, "REP102"),  # carbon intensity vs price
        (19, "REP101"),  # _watts near-miss (parameter)
        (21, "REP101"),  # _secs near-miss (assignment)
        (22, "REP101"),  # both near-miss names used on one line
        (22, "REP101"),
    ],
    "determinism_bad": [
        (11, "REP201"),  # time.time()
        (15, "REP201"),  # datetime.now()
        (19, "REP202"),  # random.random()
        (23, "REP202"),  # np.random.seed()
        (24, "REP202"),  # np.random.rand()
        (28, "REP202"),  # unseeded default_rng()
    ],
    "floatcmp_bad": [
        (7, "REP301"),  # ratio == 1.0
        (11, "REP301"),  # delta != 0.0
        (15, "REP301"),  # year == float("inf")
        (17, "REP301"),  # x == math.nan
    ],
    "statedict_bad": [
        (10, "REP401"),  # state_dict with no load_state_dict
        (20, "REP401"),  # load_state_dict with no state_dict
        (34, "REP402"),  # written/read key sets drift
    ],
    "publicapi_bad": [
        (3, "REP501"),  # ghost_function
        (3, "REP501"),  # GhostClass
    ],
}

GOOD_FIXTURES = [
    "units_good",
    "determinism_good",
    "floatcmp_good",
    "statedict_good",
    "publicapi_good",
]


@pytest.mark.parametrize("name", sorted(BAD_EXPECTATIONS))
def test_bad_fixture_findings_are_exact(name: str) -> None:
    report = lint_fixture(name)
    assert locations(report) == BAD_EXPECTATIONS[name]


@pytest.mark.parametrize("name", GOOD_FIXTURES)
def test_good_fixture_is_clean(name: str) -> None:
    report = lint_fixture(name)
    assert locations(report) == []
    assert report.exit_code == 0


def test_bad_fixtures_fail_good_fixtures_pass() -> None:
    for name in BAD_EXPECTATIONS:
        assert lint_fixture(name).exit_code == 1, name
    for name in GOOD_FIXTURES:
        assert lint_fixture(name).exit_code == 0, name


def test_select_narrows_to_one_code_family() -> None:
    report = lint_fixture("units_bad", select=["REP102"])
    assert {code for _, code in locations(report)} == {"REP102"}
    assert len(report.findings) == 3


def test_select_by_prefix_expands() -> None:
    report = lint_fixture("units_bad", select=["REP1"])
    assert {code for _, code in locations(report)} == {"REP101", "REP102"}


def test_ignore_removes_a_code() -> None:
    report = lint_fixture("determinism_bad", ignore=["REP201"])
    assert {code for _, code in locations(report)} == {"REP202"}


def test_near_miss_messages_name_the_canonical_suffix() -> None:
    report = lint_fixture("units_bad", select=["REP101"])
    messages = " ".join(f.message for f in report.findings)
    assert "_w" in messages and "_s" in messages


def test_rep402_names_the_drifting_keys() -> None:
    report = lint_fixture("statedict_bad", select=["REP402"])
    (finding,) = report.findings
    assert "grand_total" in finding.message


def test_rep501_names_the_ghosts() -> None:
    report = lint_fixture("publicapi_bad")
    messages = " ".join(f.message for f in report.findings)
    assert "ghost_function" in messages and "GhostClass" in messages


def test_findings_are_sorted_and_deterministic() -> None:
    first = lint_fixture("units_bad")
    second = lint_fixture("units_bad")
    assert [f.to_dict() for f in first.findings] == [
        f.to_dict() for f in second.findings
    ]
    assert first.findings == sorted(first.findings)


@pytest.mark.parametrize(
    "rel, applies",
    [
        ("src/repro/cli.py", False),
        ("repro/cli.py", False),
        ("repro/core/emissions.py", True),
    ],
)
def test_rep201_exemptions_follow_the_module_not_the_root(rel: str, applies: bool) -> None:
    # Linting src/ without a pyproject.toml above it makes src/ the root.
    assert DeterminismChecker().applies_to(rel) is applies
