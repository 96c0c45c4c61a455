"""CLI tests."""

from repro.cli import build_parser, main


class TestParser:
    def test_defaults_empty(self):
        args = build_parser().parse_args([])
        assert args.experiments == []
        assert not args.list


class TestMain:
    def test_list_mode(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert "T1" in out
        assert "F3" in out

    def test_unknown_id_exit_code(self, capsys):
        assert main(["run", "ZZ"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_runs_named_experiment(self, capsys):
        assert main(["run", "T1"]) == 0
        out = capsys.readouterr().out
        assert "[T1]" in out
        assert "750,080" in out

    def test_runs_multiple(self, capsys):
        assert main(["run", "T1", "R1"]) == 0
        out = capsys.readouterr().out
        assert "[T1]" in out
        assert "[R1]" in out

    def test_case_insensitive(self, capsys):
        assert main(["run", "t2"]) == 0
        assert "[T2]" in capsys.readouterr().out

    def test_sched_refuses_an_infinite_span(self, capsys, time_limit):
        assert main(["sched", "--days", "inf", "--nodes", "64"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestExperimentResultRendering:
    def test_str_contains_headline(self):
        from repro.experiments.table1 import run

        text = str(run())
        assert "headline:" in text
        assert "nodes" in text
