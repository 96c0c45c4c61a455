"""Where did the time go? Compare the layer tables of two traced runs.

    python3 perfbench/trace_diff.py BEFORE.json AFTER.json

Each file is a layer table written by ``perfbench/run.py --trace 1`` for
the same workload (by default ``.perfbench/trace-<workload>-seed<N>.json``).
Times are normalised by the work the traced phase did (requests, rows,
samples or jobs), so runs of different length compare, and scaled by the
machine speed the run recorded, so a slow spell on a shared host does not
read as a slower layer. For every layer the
table shows its self time per 1,000 work units before and after, the
change, and that change as a share of the change in end-to-end wall time
per 1,000 units. A saving claimed for one layer should show up as that
layer's share.

On service-mix the layers run in the server while the closed-loop clients
wait, so the shares are of client wall time and need not sum to 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

PER = 1000.0


def load(path: Path) -> dict:
    table = json.loads(path.read_text())
    if not table.get("units"):
        raise SystemExit(f"{path}: no traced work recorded")
    return table


def per_unit(table: dict, seconds: float) -> float:
    """Milliseconds per ``PER`` work units, at the nominal machine speed."""
    return 1e3 * PER * seconds * table.get("speed", 1.0) / table["units"]


def diff_rows(before: dict, after: dict) -> tuple[float, float, list[tuple[str, float, float, float, float]]]:
    """End-to-end before/after (ms per PER units) and one row per layer:
    (layer, before, after, delta, share of the end-to-end delta)."""
    e2e_before = per_unit(before, before["elapsed_s"])
    e2e_after = per_unit(after, after["elapsed_s"])
    e2e_delta = e2e_after - e2e_before
    rows = []
    for name in sorted(set(before["layers"]) | set(after["layers"])):
        b = per_unit(before, before["layers"].get(name, {}).get("self_s", 0.0))
        a = per_unit(after, after["layers"].get(name, {}).get("self_s", 0.0))
        share = (a - b) / e2e_delta if e2e_delta else float("nan")
        rows.append((name, b, a, a - b, share))
    rows.sort(key=lambda row: -abs(row[3]))
    return e2e_before, e2e_after, rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    before, after = load(args.before), load(args.after)
    if before["workload"] != after["workload"]:
        print(f"error: {before['workload']} vs {after['workload']}", file=sys.stderr)
        return 2
    e2e_before, e2e_after, rows = diff_rows(before, after)
    unit = f"ms per {PER:,.0f} {before['unit']}"
    print(f"{before['workload']}: seed {before['seed']} -> {after['seed']}, self time in {unit}")
    print(f"  {'end to end':<36} {e2e_before:>10.4f} {e2e_after:>10.4f} {e2e_after - e2e_before:>+10.4f}")
    print(f"  {'layer':<36} {'before':>10} {'after':>10} {'delta':>10} {'share':>7}")
    for name, b, a, delta, share in rows:
        print(f"  {name:<36} {b:>10.4f} {a:>10.4f} {delta:>+10.4f} {share:>7.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
