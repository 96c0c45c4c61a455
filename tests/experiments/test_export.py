"""Artefact export tests."""

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.experiments.export import export_all, export_result
from repro.telemetry.series import TimeSeries


def make_result(with_series=True):
    series = {}
    if with_series:
        series["measured_kw"] = TimeSeries(
            900.0 * np.arange(10), np.full(10, 3220.0)
        )
    return ExperimentResult(
        experiment_id="T9",
        title="stub",
        table="| a |",
        headline={"x": 1.0},
        series=series,
    )


class TestExportResult:
    def test_writes_table_and_series(self, tmp_path):
        written = export_result(make_result(), tmp_path)
        names = sorted(p.name for p in written)
        assert names == ["T9.txt", "T9_measured_kw.csv"]
        text = (tmp_path / "T9.txt").read_text()
        assert "[T9] stub" in text
        assert "x = 1" in text
        csv = (tmp_path / "T9_measured_kw.csv").read_text().splitlines()
        assert csv[0] == "time_s,value_kw"
        assert len(csv) == 11

    def test_no_series_no_csv(self, tmp_path):
        written = export_result(make_result(with_series=False), tmp_path)
        assert [p.name for p in written] == ["T9.txt"]

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "deep" / "dir"
        export_result(make_result(), target)
        assert (target / "T9.txt").exists()


class TestExportAll:
    def test_runner_injection(self, tmp_path):
        calls = []

        def stub_runner(exp_id):
            calls.append(exp_id)
            return make_result(with_series=False)

        exported = export_all(["T1", "T2"], tmp_path, runner=stub_runner)
        assert calls == ["T1", "T2"]
        assert set(exported) == {"T1", "T2"}


class TestCliExport:
    def test_export_flag(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["run", "T1", "--export", str(tmp_path)]) == 0
        assert (tmp_path / "T1.txt").exists()
        assert "exported" in capsys.readouterr().out
