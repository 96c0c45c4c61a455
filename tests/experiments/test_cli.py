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
            (["--days", "inf"], "error: argument --days:"),
            (["--days", "0"], "error: argument --days:"),
            (["--days", "1e305"], "error: argument --days:"),
            (["--days", "1", "--nodes", "0"], "error: argument --nodes:"),
            (["--days", "1", "--offered-load", "0"], "error: argument --offered-load:"),
            (
                ["--days", "1", "--malleable-fraction", "1.5"],
                "error: argument --malleable-fraction:",
            ),
            (["--days", "1", "--mtbf-hours", "0"], "error: argument --mtbf-hours:"),
            (["--days", "1", "--mttr-hours", "nan"], "error: argument --mttr-hours:"),
            (["--days", "1", "--max-retries", "-1"], "error: argument --max-retries:"),
            (["--days", "1", "--seed", "-1"], "error: argument --seed:"),
            (["--days", "1", "--low", "nan"], "error: argument --low:"),
            (["--days", "1", "--high", "-1"], "error: argument --high:"),
            (["--days", "1", "--low", "50", "--high", "40"], "error: argument --low/--high:"),
            (["--days", "1", "--tick-minutes", "nan"], "error: argument --tick-minutes:"),
            (["--days", "1", "--tick-minutes", "inf"], "error: argument --tick-minutes:"),
            (["--days", "1", "--slack-hours", "nan"], "error: argument --slack-hours:"),
            (["--days", "1", "--slack-hours", "-1"], "error: argument --slack-hours:"),
            (["--days", "1", "--slack-hours", "1e305"], "error: argument --slack-hours:"),
            (["--days", "1", "--tick-minutes", "0"], "error: argument --tick-minutes:"),
            (["--days", "1", "--ckpt-minutes", "-1"], "error: argument --ckpt-minutes:"),
            (["--days", "1", "--stale-after-hours", "0"], "error: argument --stale-after-hours:"),
        ],
        ids=[
            "days-inf",
            "days-zero",
            "days-overflow",
            "nodes-zero",
            "load-zero",
            "fraction-above-one",
            "mtbf-zero",
            "mttr-nan",
            "retries-negative",
            "seed-negative",
            "low-nan",
            "high-negative",
            "low-above-high",
            "tick-nan",
            "tick-inf",
            "slack-nan",
            "slack-negative",
            "slack-overflow",
            "tick-zero",
            "ckpt-negative",
            "stale-zero",
        ],
    )
    def test_sched_refuses_an_infinite_span(self, capsys, time_limit, argv, refusal):
        # argparse refuses a flag out of its range and exits 2, naming the flag.
        try:
            code = main(["sched", "--nodes", "64", *argv])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert refusal in err
        assert "_s must" not in err  # no library field in seconds

    def test_sched_reads_whole_numbers_of_any_size(self):
        from repro.scheduler.cli import build_sched_parser

        seed = 10**400  # past the float range
        assert build_sched_parser().parse_args(["--seed", str(seed)]).seed == seed

    def test_sched_prints_a_library_refusal_and_returns_2(self, capsys, monkeypatch):
        # argparse refuses every flag value known to fail in the library; a
        # refusal the library still raises prints its message, not a traceback.
        from repro.errors import ConfigurationError
        from repro.scheduler import cli as sched_cli

        def refuse(*args, **kwargs):
            raise ConfigurationError("t_end_s must exceed t_start_s")

        monkeypatch.setattr(sched_cli, "comparison_trace", refuse)
        assert main(["sched", "--days", "1", "--nodes", "64"]) == 2
        assert "error: t_end_s must exceed t_start_s" in capsys.readouterr().err


class TestExperimentResultRendering:
    def test_str_contains_headline(self):
        from repro.experiments.table1 import run

        text = str(run())
        assert "headline:" in text
        assert "nodes" in text
