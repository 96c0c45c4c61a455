"""The fast experiments still give the answers committed in RECORD.json.

``tools/record.py`` computes and compares the record; the CI ``record``
job runs it over all 19 experiments and the six replays. Here the fast
set (T1-T4, R1, A1, A2) is recomputed in process: every exported file
must hash the same, and every headline number must agree within
``REL_TOL``.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import FAST_EXPERIMENTS
from repro.experiments import REGISTRY

#: Relative tolerance on headline numbers; exported files compare exactly.
REL_TOL = 1e-9

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "record.py"
_spec = importlib.util.spec_from_file_location("record_tool", _TOOL)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(record.RECORD_PATH.read_text())


@pytest.fixture(scope="module")
def fast() -> dict:
    return record.compute(fast=True)


def test_fast_experiments_match_the_record(recorded, fast):
    assert sorted(fast["experiments"]) == sorted(FAST_EXPERIMENTS)
    assert record.compare(record.fast_part(recorded), fast, rel_tol=REL_TOL) == []


def test_record_covers_every_experiment_and_replay(recorded):
    experiments = recorded["experiments"]
    assert sorted(experiments) == sorted(REGISTRY)
    assert sum(len(entry["files"]) for entry in experiments.values()) == 24
    assert all(entry["headline"] for entry in experiments.values())
    assert sorted(recorded["replays"]) == [
        "chaos-soak",
        "monitor-fig2",
        "sched",
        "sched-feed",
        "sweep-grid",
        "sweep-warm",
    ]
    # A sweep replayed from its store exports the bytes its first run did.
    replays = recorded["replays"]
    assert replays["sweep-warm"]["files"] == replays["sweep-grid"]["files"]


def test_a_moved_number_or_byte_is_named(recorded, fast):
    changed = copy.deepcopy(fast)
    t4 = changed["experiments"]["T4"]
    name = sorted(t4["headline"])[0]
    t4["headline"][name] *= 1.0 + 10 * REL_TOL
    t4["files"]["T4.txt"] = "0" * 64
    problems = record.compare(record.fast_part(recorded), changed, rel_tol=REL_TOL)
    assert len(problems) == 2
    assert problems[0].startswith("experiments/T4/files/T4.txt: sha256 ")
    assert problems[1].startswith(f"experiments/T4/headline/{name}: ")


def test_a_last_digit_within_tolerance_passes(recorded, fast):
    nudged = copy.deepcopy(fast)
    for entry in nudged["experiments"].values():
        entry["headline"] = {k: v * (1.0 + REL_TOL / 10) for k, v in entry["headline"].items()}
    assert record.compare(record.fast_part(recorded), nudged, rel_tol=REL_TOL) == []


def test_an_entry_on_one_side_only_is_named(recorded, fast):
    changed = copy.deepcopy(fast)
    del changed["experiments"]["T1"]["files"]["T1.txt"]
    changed["experiments"]["T2"]["headline"]["new_number"] = 1.0
    assert record.compare(record.fast_part(recorded), changed, rel_tol=REL_TOL) == [
        "experiments/T1/files/T1.txt: in the record, not computed",
        "experiments/T2/headline/new_number: computed, not in the record",
    ]
