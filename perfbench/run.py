"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Inputs are generated from ``--seed`` before
timing starts; outputs are checked. With ``--trace 0`` the end-to-end
metrics are reported, with ``--trace 1`` the per-layer metrics of a traced
phase (plus the tracing overhead), and the full layer table is written to
``--trace-out`` (default ``.perfbench/trace-<workload>-seed<N>.json``) for
``perfbench/trace_diff.py``. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when an output check failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None, workloads: tuple[str, ...]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def reported_metrics(workload: str, outcome, trace: bool) -> dict[str, dict]:
    """The declared metrics of one run, each with its value and unit.

    A traced run must report every per-layer metric of its own workload;
    the layers of other workloads, which it never enters, read 0.
    """
    from perfbench import common

    if trace:
        own = {name for name, *_ in common.PER_LAYER[workload] + common.TRACE_OVERHEAD}
        declared = common.per_layer_declared()
    else:
        own = {name for name, *_ in common.END_TO_END}
        declared = common.END_TO_END
    metrics = {}
    for name, unit, *_ in declared:
        value = outcome.metrics.get(name) if name in own else 0
        if value is None or not math.isfinite(value):
            raise RuntimeError(f"{workload} did not measure {name}: {value!r}")
        metrics[name] = {"value": value, "unit": unit}
    unknown = set(outcome.metrics) - set(metrics)
    if unknown:
        raise RuntimeError(f"undeclared metrics: {sorted(unknown)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common

    args = parse_args(argv, common.WORKLOADS)
    common.pin_to_one_cpu()
    module = importlib.import_module("perfbench." + args.workload.replace("-", "_"))
    trace = bool(args.trace)
    outcome = module.run(args.seed, args.seconds, trace)
    metrics = reported_metrics(args.workload, outcome, trace)

    correct = outcome.failed == 0 and all(outcome.checks.values())
    print(f"workload {args.workload}, seed {args.seed}, {'traced' if trace else 'untraced'}")
    for name, value, unit, note in outcome.figures:
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for name, ok in outcome.checks.items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    print(f"  operations: {outcome.attempted} attempted, {outcome.failed} failed")
    if trace:
        units, unit_name, elapsed_s, speed = outcome.traced_work
        path = args.trace_out or common.WORKDIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "units": units,
                    "unit": unit_name,
                    "elapsed_s": elapsed_s,
                    "speed": speed,
                    "layers": outcome.layers,
                    "metrics": {name: m["value"] for name, m in metrics.items()},
                },
                indent=1,
                sort_keys=True,
            )
        )
        print(f"  layer table: {path}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
