"""Reporting surface tests: SARIF and explain."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint.cli import lint_main
from repro.lint.explain import EXPLANATIONS, explain
from repro.lint.registry import all_codes

FIXTURES = Path(__file__).parent / "fixtures"

VIOLATION = '''\
def check(ratio: float) -> bool:
    return ratio == 1.0
'''


@pytest.fixture()
def mini_project(tmp_path: Path) -> Path:
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'mini'\n")
    pkg = tmp_path / "src" / "mini"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "ratios.py").write_text(VIOLATION)
    return tmp_path


# -- SARIF output ------------------------------------------------------------


def test_sarif_output_structure(capsys, mini_project: Path) -> None:
    assert lint_main([str(mini_project / "src"), "--format", "sarif"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    (run,) = payload["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = {rule["id"] for rule in driver["rules"]}
    assert set(all_codes()) <= rule_ids
    results = run["results"]
    assert results
    for result in results:
        assert result["ruleId"].startswith("REP")
        assert result["level"] == "error"
        (location,) = result["locations"]
        region = location["physicalLocation"]["region"]
        assert region["startLine"] >= 1


# -- --explain ---------------------------------------------------------------


def test_explain_covers_every_registered_code() -> None:
    expected = set(all_codes()) | {"REP000"}
    assert expected <= set(EXPLANATIONS)
    for code in sorted(expected):
        text = explain(code)
        assert code in text and "Contract:" in text and "Fix:" in text


def test_explain_cli_prints_contract(capsys) -> None:
    assert lint_main(["--explain", "REP601"]) == 0
    out = capsys.readouterr().out
    assert "REP601" in out and "Contract:" in out


def test_explain_unknown_code_is_usage_error(capsys) -> None:
    assert lint_main(["--explain", "REP999"]) == 2
    assert "REP999" in capsys.readouterr().err
