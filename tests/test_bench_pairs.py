"""``tools/bench_pairs.py`` turns paired benchmark runs into a BENCH file.

Canned run lines stand in for perfbench: no benchmark process starts.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs_tool", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = ("primary_per_s", "secondary_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb")


def canned_stdout(secondary: float, speed: float = 1.0, correct: bool = True) -> str:
    """A perfbench run's stdout: figure lines, then the JSON result line."""
    values = dict.fromkeys(METRICS, 10.0)
    values["secondary_per_s"] = secondary
    values["op_p50_ms"] = 1e6 / secondary
    result = {
        "correct": correct,
        "attempted": 4,
        "failed": 0 if correct else 1,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in values.items()},
    }
    return (
        "workload sched-trace, seed 1, untraced\n"
        f"  machine_speed = {speed:.6g} x nominal  (median over passes)\n"
        "  operations: 4 attempted, 0 failed\n"
        f"{json.dumps(result)}\n"
    )


class FakeRunner:
    """Answers each run from a table keyed by (checkout, seed), logging the order."""

    def __init__(self, answers: dict) -> None:
        self.answers = answers
        self.calls: list[tuple[str, int, float]] = []

    def __call__(self, checkout: Path, workload: str, seed: int, seconds: float) -> str:
        self.calls.append((checkout.name, seed, seconds))
        return self.answers[checkout.name, seed]


def test_seed_lists_and_ranges():
    assert bench_pairs.parse_seeds("1-3,1009") == [1, 2, 3, 1009]
    assert bench_pairs.parse_seeds("7") == [7]


def test_a_run_keeps_its_json_result_and_machine_speed():
    run = bench_pairs.parse_run(canned_stdout(8000.0, speed=0.97))
    assert run["machine_speed"] == 0.97
    assert run["correct"] and run["failed"] == 0
    assert run["metrics"]["secondary_per_s"] == 8000.0


def test_pairs_alternate_and_a_doubling_holds():
    seeds = list(range(1, 11))
    answers = {}
    for seed in seeds:
        answers["parent", seed] = canned_stdout(8000.0 + 10 * seed)
        answers["change", seed] = canned_stdout(16000.0 + 10 * seed)
    runner = FakeRunner(answers)
    doc = bench_pairs.record(
        Path("parent"), Path("change"), "sched-trace", seeds, ("a", "b"), runner
    )
    # The parent runs first in odd pairs, the change in even ones, each for
    # the benchmark's declared run length.
    assert [call[:2] for call in runner.calls[:4]] == [
        ("parent", 1),
        ("change", 1),
        ("change", 2),
        ("parent", 2),
    ]
    assert doc["seconds"] == bench_pairs.benchmark()["run_seconds"]
    assert {seconds for _, _, seconds in runner.calls} == {doc["seconds"]}
    assert len(doc["runs"]) == 20 and doc["failed_runs"] == 0
    assert doc["commits"] == {"parent": "a", "change": "b"}
    summary = doc["summary"]["parent"]["secondary_per_s"]
    assert summary["median"] == pytest.approx(8055.0)
    assert summary["q1"] == pytest.approx(8032.5) and summary["q3"] == pytest.approx(8077.5)
    claim = doc["verdict"]["secondary_per_s"]
    assert (claim["wins"], claim["pairs"]) == (10, 10)
    assert claim["gain_holds"] and claim["bound_verdict"] == "within"
    # A lower-is-better metric wins by falling.
    assert doc["verdict"]["op_p50_ms"]["gain_holds"]
    # Equal figures are ties: no gain, no regression.
    assert doc["verdict"]["primary_per_s"]["wins"] == 0
    assert not doc["verdict"]["primary_per_s"]["gain_holds"]
    assert doc["verdict"]["primary_per_s"]["bound_verdict"] == "within"
    json.dumps(doc)  # the document is plain JSON


def test_eight_wins_in_ten_or_a_gap_inside_the_spread_is_no_gain():
    seeds = list(range(1, 11))
    answers = {}
    for seed in seeds:
        answers["parent", seed] = canned_stdout(8000.0 + 1000 * seed)
        # Two pairs lost; the other eight won by a margin inside the spread.
        answers["change", seed] = canned_stdout(8000.0 + 1000 * seed + (-5 if seed <= 2 else 50))
    doc = bench_pairs.record(
        Path("parent"), Path("change"), "sched-trace", seeds, ("a", "b"), FakeRunner(answers)
    )
    claim = doc["verdict"]["secondary_per_s"]
    assert (claim["wins"], claim["losses"]) == (8, 2)
    assert not claim["gain_holds"]
    for seed in seeds:  # now ten wins, each by less than the parent's spread
        answers["change", seed] = canned_stdout(8000.0 + 1000 * seed + 50)
    doc = bench_pairs.record(
        Path("parent"), Path("change"), "sched-trace", seeds, ("a", "b"), FakeRunner(answers)
    )
    claim = doc["verdict"]["secondary_per_s"]
    assert claim["wins"] == 10 and claim["parent_quartile_spread"] == pytest.approx(4500.0)
    assert not claim["gain_holds"]


def test_a_regression_past_the_bound_and_a_failed_run_are_flagged():
    seeds = [1, 2, 3]
    answers = {}
    for seed in seeds:
        answers["parent", seed] = canned_stdout(8000.0)
        answers["change", seed] = canned_stdout(5000.0, correct=seed != 2)
    doc = bench_pairs.record(
        Path("parent"), Path("change"), "sched-trace", seeds, ("a", "b"), FakeRunner(answers)
    )
    # −37.5 % against a 25 % bound
    assert doc["verdict"]["secondary_per_s"]["bound_verdict"] == "outside"
    assert doc["failed_runs"] == 1


def test_a_parent_spread_wider_than_the_bound_leaves_the_bound_unresolved():
    seeds = [1, 2, 3, 4]
    answers = {}
    for seed in seeds:
        # The parent swings from 4,000 to 16,000: its quartile spread is far
        # above 25 % of its median, so a 10 % loss is not told from noise.
        answers["parent", seed] = canned_stdout(4000.0 * seed)
        answers["change", seed] = canned_stdout(3600.0 * seed)
    doc = bench_pairs.record(
        Path("parent"), Path("change"), "sched-trace", seeds, ("a", "b"), FakeRunner(answers)
    )
    assert doc["verdict"]["secondary_per_s"]["bound_verdict"] == "unresolved"
    # A change whose every run beats every parent run is within the bound.
    for seed in seeds:
        answers["change", seed] = canned_stdout(17000.0 + seed)
    doc = bench_pairs.record(
        Path("parent"), Path("change"), "sched-trace", seeds, ("a", "b"), FakeRunner(answers)
    )
    assert doc["verdict"]["secondary_per_s"]["bound_verdict"] == "within"
