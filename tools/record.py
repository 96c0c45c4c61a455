"""Recompute every answer the reproduction gives and compare it with RECORD.json.

Usage (from the repository root)::

    python tools/record.py            # all 19 experiments and the six replays
    python tools/record.py --fast     # the fast experiments only (T1-T4, R1, A1, A2)
    python tools/record.py --write    # rewrite RECORD.json from this tree

The record holds, per experiment, its ``headline`` numbers at full
precision and the sha256 of every file ``repro run ID --export DIR``
writes; and sha256 fingerprints of six replays:

* ``monitor-fig2``: ``repro monitor --scenario fig2 --days 120
  --checkpoint F --quiet`` (its stdout and the bytes of both checkpoint
  slot files, ``F`` then ``F.1``), then the same command with
  ``--resume`` (its stdout);
* ``chaos-soak``: the composed fault-injection soak's stdout;
* ``sched``: ``repro sched --days 7 --nodes 256`` stdout;
* ``sched-feed``: the same command with ``--inject-faults
  --inject-feed-outages`` (its stdout);
* ``sweep-grid``: the files the sweep grid's ``--export`` writes;
* ``sweep-warm``: the same sweep run again from the cache the first run
  filled, into a second export directory (its stdout and the files).

Hashes compare exactly; headline numbers compare at ``HEADLINE_REL_TOL``.
The comparison exits 1 and names each entry that differs. Experiments run
in this interpreter; replays run as ``python -m repro`` subprocesses on
this tree's ``src``. Changing the record is a deliberate act: rewrite it
with ``--write`` and name each changed value in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RECORD_PATH = ROOT / "RECORD.json"

#: Relative tolerance on headline numbers, so a Python or numpy release
#: that moves a last digit does not fail the record; exported files and
#: replay output still compare byte for byte.
HEADLINE_REL_TOL = 1e-9

# The CI replays, as `repro` command lines.
SWEEP_PLAN = "sweep plan --ci 25,190 --decarb 190:0.07 --utilisations 0.5,0.9 --lifetimes 4,6"
SWEEP_RUN = "sweep run --chunk-size 16 --spec sweep-spec.json --cache sweep-cache"
CHAOS_SOAK = (
    "monitor --scenario combined --days 15 --inject-faults all --fault-seed 7 "
    "--checkpoint-every-hours 72 --quiet"
)
FIG2 = "monitor --scenario fig2 --days 120 --quiet"
SCHED = "sched --days 7 --nodes 256"
SCHED_FEED = f"{SCHED} --inject-faults --inject-feed-outages"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_hashes(directory: Path) -> dict[str, str]:
    return {p.name: _sha256(p.read_bytes()) for p in sorted(directory.iterdir())}


def _repro(command: str, *paths: str | Path, cwd: Path | None = None) -> bytes:
    """Stdout of ``python -m repro COMMAND PATHS...`` on this tree.

    ``command`` is split on spaces; ``paths`` are appended as given and
    resolve against ``cwd``. Raises ``RuntimeError`` on a non-zero exit.
    """
    args = [*command.split(), *map(str, paths)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        env=env,
        cwd=cwd,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"repro {' '.join(args)} exited {proc.returncode}: {proc.stderr.decode()[-2000:]}"
        )
    return proc.stdout


def _import_repro() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def experiment_ids(fast: bool) -> list[str]:
    """The fast set, or every registered experiment in sorted order."""
    _import_repro()
    if fast:
        from repro.cli import FAST_EXPERIMENTS

        return list(FAST_EXPERIMENTS)
    from repro.experiments import REGISTRY

    return sorted(REGISTRY)


def experiment_entry(exp_id: str, workdir: Path) -> dict:
    """One experiment's headline numbers and the sha256 of its exported files."""
    _import_repro()
    from repro.experiments import run_experiment
    from repro.results import write_result

    result = run_experiment(exp_id)
    out = workdir / exp_id
    write_result(result, out)
    return {
        "headline": {name: float(value) for name, value in result.headline.items()},
        "files": _file_hashes(out),
    }


def replay_entries(workdir: Path) -> dict:
    """Fingerprints of the six replays, each run as a subprocess."""
    ckpt = workdir / "fig2.ckpt"
    fig2_stdout = _repro(f"{FIG2} --checkpoint", ckpt)
    fig2_checkpoint = ckpt.read_bytes() + ckpt.with_name(ckpt.name + ".1").read_bytes()
    fig2_resume = _repro(f"{FIG2} --resume --checkpoint", ckpt)
    chaos = _repro(f"{CHAOS_SOAK} --checkpoint", workdir / "chaos.ckpt")
    sched = _repro(SCHED)
    sched_feed = _repro(SCHED_FEED)
    # Paths relative to the workdir, so stdout is the same in every workdir.
    _repro(f"{SWEEP_PLAN} --spec-out sweep-spec.json", cwd=workdir)
    _repro(f"{SWEEP_RUN} --export sweep", cwd=workdir)
    warm_stdout = _repro(f"{SWEEP_RUN} --export sweep-warm", cwd=workdir)
    return {
        "monitor-fig2": {
            "stdout": _sha256(fig2_stdout),
            "checkpoint": _sha256(fig2_checkpoint),
            "resume_stdout": _sha256(fig2_resume),
        },
        "chaos-soak": {"stdout": _sha256(chaos)},
        "sched": {"stdout": _sha256(sched)},
        "sched-feed": {"stdout": _sha256(sched_feed)},
        "sweep-grid": {"files": _file_hashes(workdir / "sweep")},
        "sweep-warm": {
            "stdout": _sha256(warm_stdout),
            "files": _file_hashes(workdir / "sweep-warm"),
        },
    }


def compute(fast: bool = False) -> dict:
    """The record of this tree: the fast experiments only, or everything."""
    with tempfile.TemporaryDirectory(prefix="repro-record-") as tmp:
        workdir = Path(tmp)
        record: dict = {
            "experiments": {e: experiment_entry(e, workdir) for e in experiment_ids(fast)}
        }
        if not fast:
            record["replays"] = replay_entries(workdir)
    return record


def _close(recorded: float, computed: float, rel_tol: float) -> bool:
    if math.isnan(recorded) or math.isnan(computed):
        return math.isnan(recorded) and math.isnan(computed)
    return math.isclose(recorded, computed, rel_tol=rel_tol, abs_tol=0.0)


def fast_part(record: dict) -> dict:
    """The part of ``record`` that ``compute(fast=True)`` recomputes."""
    fast = set(experiment_ids(fast=True))
    return {"experiments": {k: v for k, v in record["experiments"].items() if k in fast}}


def compare(
    recorded: dict, computed: dict, rel_tol: float = HEADLINE_REL_TOL, where: str = ""
) -> list[str]:
    """One line per difference between two records, or two parts of one.

    A key on one side only is a difference, and so is a sha256 that
    differs or a number further than ``rel_tol`` (relative) from its
    recorded value.
    """
    problems: list[str] = []
    for key in sorted(recorded.keys() | computed.keys()):
        path = f"{where}/{key}" if where else key
        if key not in computed:
            problems.append(f"{path}: in the record, not computed")
        elif key not in recorded:
            problems.append(f"{path}: computed, not in the record")
        elif isinstance(recorded[key], dict):
            problems.extend(compare(recorded[key], computed[key], rel_tol, path))
        elif isinstance(recorded[key], str):  # a sha256
            if recorded[key] != computed[key]:
                problems.append(f"{path}: sha256 {recorded[key]} -> {computed[key]}")
        elif not _close(recorded[key], computed[key], rel_tol):
            problems.append(f"{path}: {recorded[key]!r} -> {computed[key]!r}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--fast", action="store_true", help="only the fast experiments, no replays"
    )
    mode.add_argument(
        "--write", action="store_true", help=f"rewrite {RECORD_PATH.name} from this tree"
    )
    args = parser.parse_args(argv)
    computed = compute(fast=args.fast)
    if args.write:
        RECORD_PATH.write_text(json.dumps(computed, indent=2, sort_keys=True) + "\n")
        print(f"wrote {RECORD_PATH}")
        return 0
    recorded = json.loads(RECORD_PATH.read_text())
    problems = compare(fast_part(recorded) if args.fast else recorded, computed)
    for line in problems:
        print(f"differs: {line}")
    n = sum(len(entries) for entries in computed.values())
    print(f"{n} entries checked, {len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
