"""Suppression-annotation parsing and the units-registry sync guarantee."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import LintError
from repro.lint.annotations import ALL_CODES, is_suppressed, parse_suppressions
from repro.lint.unitspec import suffix_of, validate_registry_against_units_module

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_alias_expands_to_codes() -> None:
    source = "x = a == b  # lint: exact-float\n"
    suppressions = parse_suppressions(source)
    assert suppressions == {1: {"REP301"}}


def test_reason_suffix_is_ignored() -> None:
    source = "x = a == b  # lint: exact-float -- reviewed, config sentinel\n"
    assert parse_suppressions(source) == {1: {"REP301"}}


def test_standalone_comment_covers_next_statement() -> None:
    source = (
        "# lint: allow-unseeded -- state restored below\n"
        "\n"
        "rng = np.random.default_rng()\n"
    )
    suppressions = parse_suppressions(source)
    assert is_suppressed(suppressions, 3, "REP202")
    assert not is_suppressed(suppressions, 1, "REP202")


def test_explicit_disable_list() -> None:
    source = "y = f()  # lint: disable=REP101,REP301\n"
    assert parse_suppressions(source) == {1: {"REP101", "REP301"}}


def test_bare_disable_suppresses_everything() -> None:
    source = "y = f()  # lint: disable\n"
    suppressions = parse_suppressions(source)
    assert ALL_CODES in suppressions[1]
    assert is_suppressed(suppressions, 1, "REP402")


def test_unknown_alias_is_a_loud_error() -> None:
    """A typo'd annotation must not silently suppress nothing."""
    with pytest.raises(LintError, match="allow-everything"):
        parse_suppressions("x = 1  # lint: allow-everything\n")


def test_signature_directive_is_not_a_unit_declaration() -> None:
    """Units come from name suffixes only: ``signature(...)`` is unknown."""
    with pytest.raises(LintError, match="unknown lint annotation"):
        parse_suppressions("def f(n):  # lint: signature(-> kw)\n    return n\n")


def test_suffix_registry_covers_units_module() -> None:
    """Every unit token spelled in repro/units.py must be in the lint table.

    This is the sync contract: adding a converter like ``mj_to_kwh`` to
    units.py without teaching the linter its ``_mj`` suffix raises inside
    :func:`validate_registry_against_units_module` and fails this test.
    """
    derived = validate_registry_against_units_module(REPO_ROOT)
    assert {"kwh", "kw", "tonnes"} <= derived


def test_same_dimension_conversion_constants_read_as_numerator() -> None:
    seconds = suffix_of("SECONDS_PER_DAY")
    plain = suffix_of("duration_seconds")
    assert seconds is not None and plain is not None
    assert seconds.dimension == plain.dimension == "time"
    assert seconds.scale == plain.scale


def test_ambiguous_single_letters_are_not_units() -> None:
    assert suffix_of("v_min") is None
    assert suffix_of("n_max") is None
    assert suffix_of("delta_t") is None
