"""Documentation consistency: the docs must describe the repo that exists."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


class TestDesignDoc:
    @pytest.fixture(scope="class")
    def design(self):
        return (ROOT / "DESIGN.md").read_text()

    def test_exists_and_confirms_paper_match(self, design):
        assert "matches the title" in design

    def test_every_bench_target_exists(self, design):
        for name in re.findall(r"benchmarks/(bench_\w+\.py)", design):
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_every_named_module_exists(self, design):
        # Module tree entries look like "    name.py" within the code block.
        tree = design.split("```")[1]
        current_pkg = "repro"
        for line in tree.splitlines():
            pkg = re.match(r"^  (\w+)/", line)
            if pkg:
                current_pkg = f"repro/{pkg.group(1)}"
                continue
            for mod in re.findall(r"(\w+\.py)", line):
                found = list((ROOT / "src").rglob(mod))
                assert found, f"DESIGN.md names {mod} but no such file exists"


class TestExperimentsDoc:
    @pytest.fixture(scope="class")
    def experiments(self):
        return (ROOT / "EXPERIMENTS.md").read_text()

    def test_covers_every_paper_artefact(self, experiments):
        for artefact in ("T1", "T2", "T3", "T4", "F1", "F2", "F3", "C1", "R1"):
            assert f"## {artefact}" in experiments or f"— {artefact}" in experiments

    def test_mentioned_benches_exist(self, experiments):
        for name in re.findall(r"`(bench_\w+\.py)`", experiments):
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_paper_headline_numbers_present(self, experiments):
        for number in ("3,220", "3,010", "2,530", "690", "750,080"):
            assert number in experiments, number


class TestReadme:
    @pytest.fixture(scope="class")
    def readme(self):
        return (ROOT / "README.md").read_text()

    def test_examples_table_matches_directory(self, readme):
        for name in re.findall(r"`examples/(\w+\.py)`", readme):
            assert (ROOT / "examples" / name).exists(), name

    def test_linked_docs_exist(self, readme):
        for doc in ("DESIGN.md", "EXPERIMENTS.md"):
            assert doc in readme
            assert (ROOT / doc).exists()

    def test_quickstart_snippet_runs(self, readme):
        block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
        namespace: dict = {}
        exec(block, namespace)  # noqa: S102 - executing our own README

    def test_docs_directory_files_exist(self):
        assert (ROOT / "docs" / "modelling.md").exists()
        assert (ROOT / "docs" / "usage.md").exists()


class TestUsageDoc:
    def test_analyse_telemetry_recipe_runs(self, tmp_path, monkeypatch, capsys):
        import numpy as np

        from repro.telemetry import TimeSeries, save_csv

        usage = (ROOT / "docs" / "usage.md").read_text()
        section = usage.split("## Analyse telemetry", 1)[1]
        block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
        rng = np.random.default_rng(3)
        times = 900.0 * np.arange(2000)
        values = np.where(np.arange(2000) < 1200, 3220.0, 3010.0)
        values = values + rng.normal(0.0, 40.0, len(times))
        values[::97] = np.nan  # meter dropouts
        save_csv(TimeSeries(times, values, "cabinets"), tmp_path / "cabinet_power.csv")
        monkeypatch.chdir(tmp_path)
        namespace: dict = {}
        exec(block, namespace)  # noqa: S102 - executing our own usage guide
        assert namespace["after"] < namespace["before"]
        assert "significance" in capsys.readouterr().out


class TestContributingDoc:
    @pytest.fixture(scope="class")
    def contributing(self):
        return (ROOT / "docs" / "contributing.md").read_text()

    def test_exists_and_is_cross_linked(self, contributing):
        readme = (ROOT / "README.md").read_text()
        usage = (ROOT / "docs" / "usage.md").read_text()
        assert "docs/contributing.md" in readme
        assert "contributing.md" in usage

    def test_documents_every_registered_lint_code(self, contributing):
        from repro.lint.registry import all_codes

        documented = set(re.findall(r"\bREP\d{3}\b", contributing))
        registered = set(all_codes()) | {"REP000"}
        assert registered <= documented, registered - documented

    def test_documents_no_phantom_codes(self, contributing):
        from repro.lint.registry import all_codes

        documented = set(re.findall(r"\bREP\d{3}\b", contributing))
        registered = set(all_codes()) | {"REP000"}
        assert documented <= registered, documented - registered

    def test_documents_every_suppression_alias(self, contributing):
        from repro.lint.annotations import ALIASES

        for alias in ALIASES:
            assert alias in contributing, alias

    def test_design_tree_covers_lint_package(self):
        design = (ROOT / "DESIGN.md").read_text()
        assert "lint/" in design
        assert "repro lint" in design or "checkers/" in design

    def test_ci_runs_the_contract_checker_as_blocking_job(self):
        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "repro lint src tests" in ci
        assert "ruff check" in ci
        assert "mypy" in ci
