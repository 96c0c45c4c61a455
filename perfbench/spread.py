"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 10] [--out FILE]

Runs ``perfbench/run.py`` untraced once per seed and prints, for each
end-to-end metric, the median and the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, beside a third of the metric's bound. ``--out`` keeps every value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def quartile_spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median) of ``values``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [str(ROOT)]
    from perfbench.common import END_TO_END, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {name: [] for name, *_ in END_TO_END}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout.strip() else {}
        if done.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {done.returncode})\n{done.stderr}", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)

    print(f"\n{args.workload}: {len(args.seeds)} seeds, {args.seconds:g} s each")
    print(f"  {'metric':<16} {'median':>12} {'spread':>8} {'bound/3':>8}")
    for name, _unit, _better, bound in END_TO_END:
        median, spread = quartile_spread(values[name])
        flag = "" if spread < bound / 3 else "  <- wide"
        print(f"  {name:<16} {median:>12.6g} {spread:>8.3f} {bound / 3:>8.3f}{flag}")
    if args.out is not None:
        args.out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                        "seconds": args.seconds, "values": values}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
