"""CLI tests."""

import pytest

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

    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (["--days", "inf"], "error: window bounds must be finite"),
            (["--days", "1", "--tick-minutes", "nan"], "error: argument --tick-minutes:"),
            (["--days", "1", "--tick-minutes", "inf"], "error: argument --tick-minutes:"),
            (["--days", "1", "--slack-hours", "nan"], "error: argument --slack-hours:"),
            (["--days", "1", "--slack-hours", "-1"], "error: argument --slack-hours:"),
            (["--days", "1", "--tick-minutes", "0"], "error: argument --tick-minutes:"),
            (["--days", "1", "--ckpt-minutes", "-1"], "error: argument --ckpt-minutes:"),
            (["--days", "1", "--stale-after-hours", "0"], "error: argument --stale-after-hours:"),
        ],
        ids=[
            "days-inf",
            "tick-nan",
            "tick-inf",
            "slack-nan",
            "slack-negative",
            "tick-zero",
            "ckpt-negative",
            "stale-zero",
        ],
    )
    def test_sched_refuses_an_infinite_span(self, capsys, time_limit, argv, refusal):
        # The library refuses the span and returns 2; argparse refuses a
        # flag out of its range and exits 2, naming the flag.
        try:
            code = main(["sched", *argv, "--nodes", "64"])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert refusal in err
        assert "_s must" not in err  # no library field in seconds


class TestExperimentResultRendering:
    def test_str_contains_headline(self):
        from repro.experiments.table1 import run

        text = str(run())
        assert "headline:" in text
        assert "nodes" in text
