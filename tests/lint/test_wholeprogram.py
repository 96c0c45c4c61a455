"""Whole-program lint tests: fixtures, call graph, and unit signatures.

Cross-module fixtures live under ``tests/lint/fixtures/crossmod``,
``asyncsafe``, and ``sdclose``; ``collect_files`` deliberately skips the
fixtures tree, so every group is linted with an explicit file list and
``root=`` pointing at the fixtures directory (relative paths like
``crossmod/leak_node.py`` become importable module names).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.context import FileContext, ProjectContext
from repro.lint.engine import run_lint

FIXTURES = Path(__file__).parent / "fixtures"

CLEAN_CHAIN = [
    "crossmod/clean_node.py",
    "crossmod/clean_facility.py",
    "crossmod/clean_accounting.py",
]
LEAK_CHAIN = [
    "crossmod/leak_node.py",
    "crossmod/leak_facility.py",
    "crossmod/leak_accounting.py",
]
ASYNCSAFE = sorted(
    f"asyncsafe/{p.name}" for p in (FIXTURES / "asyncsafe").glob("*.py")
)
SDCLOSE = sorted(
    f"sdclose/{p.name}" for p in (FIXTURES / "sdclose").glob("*.py")
)


def lint_group(files: list[str]):
    report = run_lint(files, root=FIXTURES)
    assert not report.parse_errors, report.parse_errors
    return report


def located(report) -> list[tuple[str, int, str]]:
    return [(f.path, f.line, f.code) for f in report.findings]


def project_over(files: list[str]) -> ProjectContext:
    contexts = [FileContext.from_path(FIXTURES / rel, FIXTURES) for rel in files]
    return ProjectContext(root=FIXTURES, files=contexts)


# -- interprocedural unit flow (REP103/REP104) ------------------------------


def test_clean_chain_has_no_findings() -> None:
    assert located(lint_group(CLEAN_CHAIN)) == []


def test_three_module_kw_kwh_leak_is_caught() -> None:
    report = lint_group(LEAK_CHAIN)
    assert located(report) == [("crossmod/leak_accounting.py", 12, "REP104")]
    (finding,) = report.findings
    assert "_kw" in finding.message and "_kwh" in finding.message
    assert "facility_draw" in finding.message


def test_leak_needs_the_whole_chain() -> None:
    # Linting the leaky file alone gives per-file knowledge only: the
    # callee is unresolvable, so interprocedural checkers stay silent.
    assert located(lint_group(["crossmod/leak_accounting.py"])) == []


# -- async safety (REP601/REP602/REP603) ------------------------------------


def test_async_safety_fixture_findings_are_exact() -> None:
    assert located(lint_group(ASYNCSAFE)) == [
        ("asyncsafe/bad_lost_update.py", 13, "REP603"),
        ("asyncsafe/bad_reach.py", 11, "REP601"),
        ("asyncsafe/bad_sleep.py", 7, "REP601"),
        ("asyncsafe/bad_unawaited.py", 11, "REP602"),
        ("asyncsafe/bad_unawaited.py", 12, "REP602"),
    ]


def test_time_sleep_in_async_def_is_rep601() -> None:
    report = lint_group(["asyncsafe/bad_sleep.py"])
    assert located(report) == [("asyncsafe/bad_sleep.py", 7, "REP601")]
    (finding,) = report.findings
    assert "time.sleep" in finding.message


def test_reached_blocking_primitive_reports_the_chain() -> None:
    report = lint_group(
        ["asyncsafe/bad_reach.py", "asyncsafe/blocking_helpers.py"]
    )
    (finding,) = report.findings
    assert finding.code == "REP601"
    assert "warm_cache" in finding.message
    assert "time.sleep" in finding.message


def test_allow_blocking_in_sync_helper_silences_async_call_site() -> None:
    report = lint_group(
        ["asyncsafe/good_reach.py", "asyncsafe/blocking_helpers.py"]
    )
    assert located(report) == []


@pytest.mark.parametrize(
    "name",
    ["good_sleep", "good_awaited", "good_lost_update"],
)
def test_async_good_fixtures_are_clean(name: str) -> None:
    assert located(lint_group([f"asyncsafe/{name}.py"])) == []


# -- state-dict closure (REP403/REP404) -------------------------------------


def test_state_dict_closure_fixture_findings_are_exact() -> None:
    assert located(lint_group(SDCLOSE)) == [
        ("sdclose/bad_component.py", 12, "REP401"),
        ("sdclose/bad_component.py", 24, "REP404"),
        ("sdclose/bad_drop.py", 27, "REP403"),
    ]


def test_rep403_names_the_dropped_component() -> None:
    report = lint_group(["sdclose/bad_drop.py"])
    (finding,) = report.findings
    assert finding.code == "REP403"
    assert "self.gauge" in finding.message


def test_rep404_names_the_incomplete_component_class() -> None:
    report = lint_group(["sdclose/bad_component.py"])
    rep404 = [f for f in report.findings if f.code == "REP404"]
    (finding,) = rep404
    assert "Feed" in finding.message
    assert "load_state_dict" in finding.message


def test_reconstruction_idiom_counts_as_restoring() -> None:
    assert located(lint_group(["sdclose/good_closure.py"])) == []


# -- project graph -----------------------------------------------------------


def test_graph_resolves_cross_module_calls() -> None:
    graph = project_over(LEAK_CHAIN).graph()
    assert "crossmod.leak_facility.facility_draw" in graph.functions
    assert "crossmod.leak_node.node_power_kw" in graph.functions


def test_sync_reach_finds_the_blocking_helper() -> None:
    graph = project_over(
        ["asyncsafe/bad_reach.py", "asyncsafe/blocking_helpers.py"]
    ).graph()
    reach = graph.sync_reach("asyncsafe.bad_reach.serve")
    assert "asyncsafe.blocking_helpers.warm_cache" in reach


def test_class_has_method_walks_and_never_guesses() -> None:
    graph = project_over(SDCLOSE).graph()
    feed = "sdclose.bad_component.Feed"
    assert graph.class_has_method(feed, "state_dict")
    assert not graph.class_has_method(feed, "load_state_dict")
    # Unknown classes may define anything: assume yes, stay silent.
    assert graph.class_has_method("thirdparty.Unknown", "load_state_dict")


# -- signature table ---------------------------------------------------------


def test_return_unit_inference_follows_the_chain() -> None:
    table = project_over(LEAK_CHAIN).signature_table()
    sig = table.signature_of("crossmod.leak_facility.facility_draw")
    assert sig is not None
    assert sig.origin == "inferred"
    assert sig.returns is not None and sig.returns.token == "kw"
