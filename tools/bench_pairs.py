"""Run the benchmark on two checkouts in alternating pairs and record the result.

Usage (from the repository root)::

    python tools/bench_pairs.py --parent DIR --change DIR --workload sched-trace \\
        --seeds 1-10,1009 --claim secondary_per_s

Each seed is one pair: ``perfbench/run.py --workload W --seed N --seconds S
--trace 0`` runs once in each checkout, the parent first in odd-numbered
pairs and the change first in even-numbered ones, so an even number of
pairs gives each side the first slot equally often. ``S`` is
``BENCHMARK.json``'s ``run_seconds``, so every BENCH file compares with
every other. Every run's last stdout line (the JSON result) and its
``machine_speed`` figure are kept.

``BENCH_<workload>.json`` at this repository's root then holds both
commits, the seeds, every run, each side's median and quartiles per
end-to-end metric, and per metric the pair rule's verdict:

* ``gain_holds``: the change wins at least 9 in 10 of the pairs (ties count
  for neither side; at least 10 pairs), and its median beats the parent's
  by more than the parent's quartile spread;
* ``bound_verdict``: ``"within"`` when the change's median is no worse than
  the parent's by more than the metric's bound in ``BENCHMARK.json``,
  ``"outside"`` when it is, and ``"unresolved"`` when the parent's own
  quartile spread is wider than the bound and not every change run beats
  every parent run: such runs cannot tell a regression from noise.

A run whose checks fail is kept and counted in ``failed_runs``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The share of pairs the change must win for a gain to hold.
WIN_SHARE = 0.9
#: The fewest pairs a gain may rest on.
MIN_PAIRS = 10


def parse_seeds(text: str) -> list[int]:
    """``"1-10,1009"`` as ``[1, 2, ..., 10, 1009]``; ranges are inclusive."""
    seeds: list[int] = []
    for item in text.split(","):
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def parse_run(stdout: str) -> dict:
    """One run's JSON result (its last stdout line) with its ``machine_speed``."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    speed = None
    for line in lines:
        name, _, rest = line.strip().partition(" = ")
        if name == "machine_speed":
            speed = float(rest.split()[0])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "machine_speed": speed,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> str:
    """The stdout of one untraced benchmark run in ``checkout``."""
    command = ["perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(
        [sys.executable, *command, "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
        check=False,
    )
    if not proc.stdout.strip():
        raise RuntimeError(
            f"perfbench in {checkout} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return proc.stdout


def commit_of(checkout: Path) -> str | None:
    """``git rev-parse HEAD`` of ``checkout``, suffixed ``+dirty`` when it has
    uncommitted changes; None outside a git work tree."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+dirty" if dirty else "")


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles (inclusive method: they stay inside the data)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The pair rule and the regression bound for one metric over paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    gain = sign * (c["median"] - p["median"])
    spread = p["q3"] - p["q1"]
    if better == "higher":
        separated = min(change) > max(parent)
    else:
        separated = max(change) < min(parent)
    if spread > bound * abs(p["median"]) and not separated:
        bound_verdict = "unresolved"
    elif gain >= -bound * abs(p["median"]):
        bound_verdict = "within"
    else:
        bound_verdict = "outside"
    return {
        "better": better,
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "median_ratio": c["median"] / p["median"] if p["median"] else math.nan,
        "parent_quartile_spread": spread,
        "gain_holds": len(parent) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(parent)
        and gain > spread,
        "bound": bound,
        "bound_verdict": bound_verdict,
    }


def benchmark() -> dict:
    """``BENCHMARK.json``: the run length and the declared end-to-end metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def record(
    parent: Path,
    change: Path,
    workload: str,
    seeds: list[int],
    commits: tuple[str | None, str | None],
    runner: Callable[[Path, str, int, float], str] = run_perfbench,
) -> dict:
    """Run the pairs and build the ``BENCH_<workload>.json`` document."""
    declared = benchmark()
    seconds = declared["run_seconds"]
    runs = []
    for pair, seed in enumerate(seeds, start=1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for position, side in enumerate(order, start=1):
            checkout = parent if side == "parent" else change
            run = parse_run(runner(checkout, workload, seed, seconds))
            runs.append({"pair": pair, "seed": seed, "side": side, "position": position, **run})
    by_side = {
        side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"])
        for side in ("parent", "change")
    }
    summary: dict = {"parent": {}, "change": {}}
    verdicts = {}
    for metric in declared["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name] for r in by_side[side]] for side in by_side}
        for side in by_side:
            summary[side][name] = quartiles(values[side])
        verdicts[name] = verdict(
            values["parent"], values["change"], metric["better"], metric["bound"]
        )
    return {
        "workload": workload,
        "seconds": seconds,
        "seeds": seeds,
        "commits": {"parent": commits[0], "change": commits[1]},
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "failed_runs": sum(not r["correct"] for r in runs),
        "runs": runs,
        "summary": summary,
        "verdict": verdicts,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10,1009")
    parser.add_argument("--parent-commit", help="the parent's commit, if DIR is not a git checkout")
    parser.add_argument("--change-commit", help="the change's commit, if DIR is not a git checkout")
    parser.add_argument("--claim", help="the metric whose gain is claimed; exit 1 unless it holds")
    args = parser.parse_args(argv)
    commits = (
        args.parent_commit or commit_of(args.parent),
        args.change_commit or commit_of(args.change),
    )
    document = record(args.parent, args.change, args.workload, args.seeds, commits)
    if args.claim is not None:
        document["claim"] = args.claim
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out}")
    for name, v in document["verdict"].items():
        p, c = document["summary"]["parent"][name], document["summary"]["change"][name]
        print(
            f"  {name:<16} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
            f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
            f"wins {v['wins']}/{v['pairs']}  gain {'holds' if v['gain_holds'] else 'no'}  "
            f"bound {v['bound_verdict']}"
        )
    if document["failed_runs"]:
        print(f"  {document['failed_runs']} run(s) failed their checks")
        return 1
    if args.claim is not None and not document["verdict"][args.claim]["gain_holds"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
