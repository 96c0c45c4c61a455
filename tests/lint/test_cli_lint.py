"""CLI-level tests: JSON contract, exit codes, dispatch."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint.cli import lint_main
from repro.lint.engine import run_lint
from repro.lint.registry import all_codes

FIXTURES = Path(__file__).parent / "fixtures"

BAD_SOURCE = '''\
def computed(ratio: float) -> bool:
    return ratio == 1.0
'''

CLEAN_SOURCE = '''\
import math


def computed(ratio: float) -> bool:
    return math.isclose(ratio, 1.0)
'''


@pytest.fixture()
def mini_project(tmp_path: Path) -> Path:
    """A tiny standalone tree so CLI runs don't depend on the real repo."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'mini'\n")
    pkg = tmp_path / "src" / "mini"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "ratios.py").write_text(BAD_SOURCE)
    return tmp_path


def test_json_output_is_valid_and_stable(capsys, mini_project: Path) -> None:
    argv = [str(mini_project / "src"), "--format", "json"]
    assert lint_main(argv) == 1
    first = capsys.readouterr().out
    assert lint_main(argv) == 1
    second = capsys.readouterr().out
    assert first == second

    payload = json.loads(first)
    assert payload["version"] == 2
    assert payload["exit_code"] == 1
    assert payload["counts"] == {"REP301": 1}
    assert len(payload["findings"]) == 1
    finding = payload["findings"][0]
    assert set(finding) >= {"path", "line", "col", "code", "message", "snippet"}
    assert finding["code"] == "REP301"
    assert finding["path"].endswith("ratios.py")


def test_json_round_trips_through_report_dict() -> None:
    report = run_lint([str(FIXTURES / "floatcmp_bad.py")], root=FIXTURES)
    assert json.loads(json.dumps(report.to_dict())) == report.to_dict()


def test_text_output_mentions_counts(capsys) -> None:
    assert lint_main([str(FIXTURES / "units_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "REP101" in out and "REP102" in out
    assert "finding(s)" in out


def test_clean_run_exits_zero(capsys, mini_project: Path) -> None:
    (mini_project / "src" / "mini" / "ratios.py").write_text(CLEAN_SOURCE)
    assert lint_main([str(mini_project / "src")]) == 0
    assert "clean" in capsys.readouterr().out


def test_unknown_code_is_a_usage_error(capsys) -> None:
    exit_code = lint_main([str(FIXTURES / "units_good.py"), "--select", "REP999"])
    assert exit_code == 2
    assert "REP999" in capsys.readouterr().err


def test_missing_path_is_a_usage_error(tmp_path: Path, capsys) -> None:
    assert lint_main([str(tmp_path / "does-not-exist")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_list_checks_covers_every_code(capsys) -> None:
    assert lint_main(["--list-checks"]) == 0
    out = capsys.readouterr().out
    for code in all_codes():
        assert code in out


def test_repro_cli_dispatches_lint(capsys) -> None:
    exit_code = repro_main(["lint", str(FIXTURES / "floatcmp_good.py")])
    assert exit_code == 0
    assert "clean" in capsys.readouterr().out


def test_relative_path_resolves_against_working_directory(capsys, monkeypatch) -> None:
    monkeypatch.chdir(Path(__file__).parents[1])
    assert repro_main(["lint", "lint/fixtures/floatcmp_good.py"]) == 0
    assert "clean" in capsys.readouterr().out
