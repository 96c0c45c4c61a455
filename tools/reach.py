"""List the functions in ``src/repro`` that none of the system's own commands calls.

Usage (from the repository root)::

    python tools/reach.py                        # every file
    python tools/reach.py --under facility grid  # only these packages
    python tools/reach.py --min-lines 20         # only long functions

Runs each command in ``COMMANDS`` in this interpreter under
``sys.setprofile`` (and ``threading.setprofile`` for worker threads),
collecting every code object that starts to execute. A function defined
in ``src/repro`` is *reached* if its code ran at least once. The report
lists, per file, each unreached function whose enclosing functions were
reached (an unreached function's nested helpers are counted in its
lines), with its length from ``def`` to its last line, then a total.
Command output goes to a null stream; the whole list takes several
minutes.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: The system's own commands, as ``repro`` command lines. ``{tmp}`` is a
#: scratch directory shared by the list, so a resume finds its checkpoint.
COMMANDS = [
    "run all --export {tmp}/export",
    "run --validate",
    *(
        f"monitor --scenario {scenario} --quiet"
        for scenario in ("fig2", "fig3", "combined", "regimes")
    ),
    "monitor --scenario fig2 --days 30",
    "monitor --scenario fig2 --days 120 --checkpoint {tmp}/fig2.ckpt --quiet",
    "monitor --scenario fig2 --days 120 --checkpoint {tmp}/fig2.ckpt --resume --quiet",
    *(
        f"monitor --scenario fig2 --days 10 --inject-faults {fault} --fault-seed 7 --quiet"
        for fault in ("dropout", "stall", "duplicate", "reorder", "skew", "spike", "truncate")
    ),
    "monitor --scenario combined --days 15 --inject-faults all --fault-seed 7"
    " --checkpoint {tmp}/chaos.ckpt --checkpoint-every-hours 72 --quiet",
    "sweep plan --ci 25,190 --decarb 190:0.07 --utilisations 0.5,0.9 --lifetimes 4,6"
    " --spec-out {tmp}/spec.json",
    "sweep run --spec {tmp}/spec.json --cache {tmp}/cache --chunk-size 16 --export {tmp}/s1",
    "sweep resume --spec {tmp}/spec.json --cache {tmp}/cache --chunk-size 16 --export {tmp}/s2",
    "sweep invalidate --spec {tmp}/spec.json --cache {tmp}/cache",
    "sched --days 7 --nodes 256 --check",
    "sched --days 7 --nodes 256 --inject-faults --mtbf-hours 200 --mttr-hours 6 --check",
    "sched --days 7 --nodes 256 --inject-faults --mtbf-hours 200 --mttr-hours 6"
    " --ckpt-minutes 30 --check",
    "sched --days 7 --nodes 256 --inject-faults --inject-feed-outages"
    " --mtbf-hours 200 --mttr-hours 6 --check",
    "serve --selftest --clients 400 --tenants 8",
    "lint {src}",
    "lint {src} --format json",
    "lint {src} --format sarif",
    "lint {src} --select REP103,REP104,REP403,REP404,REP6",
    "lint {src} --ignore REP103,REP104,REP403,REP404,REP6",
    "lint --explain REP601",
    "lint --list-checks",
]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def trace_commands() -> set[tuple[str, int]]:
    """``(file, first line)`` of every ``src/repro`` code object the commands ran."""
    sys.path.insert(0, str(SRC))
    from repro.cli import main

    seen: set = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        sys.setprofile(hook)
        threading.setprofile(hook)
        try:
            for command in COMMANDS:
                argv = command.format(tmp=tmp, src=PACKAGE.parent).split()
                with contextlib.redirect_stdout(io.StringIO()):
                    with contextlib.redirect_stderr(io.StringIO()):
                        code = main(argv)
                if code != 0:
                    raise SystemExit(f"repro {' '.join(argv)} exited {code}")
            for example in EXAMPLES:
                with contextlib.redirect_stdout(io.StringIO()):
                    runpy.run_path(str(example), run_name="__main__")
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    prefix = str(PACKAGE)
    return {(c.co_filename, c.co_firstlineno) for c in seen if c.co_filename.startswith(prefix)}


def _functions(tree: ast.AST):
    """``(qualname, node, enclosing function nodes)`` for every def in ``tree``."""
    stack: list[tuple[ast.AST, str, tuple]] = [(tree, "", ())]
    while stack:
        node, prefix, outer = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                yield name, child, outer
                stack.append((child, f"{name}.", (*outer, child)))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, f"{prefix}{child.name}.", outer))
            else:
                stack.append((child, prefix, outer))


def unreached(reached: set[tuple[str, int]]) -> tuple[int, dict[Path, list[tuple[str, int]]]]:
    """Total def count and, per file, the outermost unreached ``(qualname, lines)``."""

    def ran(path: str, node: ast.AST) -> bool:
        lines = {node.lineno, *(d.lineno for d in node.decorator_list)}
        return any((path, line) in reached for line in lines)

    total = 0
    report: dict[Path, list[tuple[str, int]]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, node, outer in _functions(tree):
            total += 1
            if ran(str(path), node) or not all(ran(str(path), o) for o in outer):
                continue
            report.setdefault(path, []).append((name, node.end_lineno - node.lineno + 1))
    return total, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--under", nargs="*", default=[], help="report only these packages of repro"
    )
    parser.add_argument(
        "--min-lines", type=int, default=1, help="report only functions this long or longer"
    )
    args = parser.parse_args(argv)
    total, report = unreached(trace_commands())
    count = lines = 0
    for path, functions in report.items():
        rel = path.relative_to(PACKAGE)
        if args.under and rel.parts[0] not in args.under:
            continue
        shown = [(name, n) for name, n in functions if n >= args.min_lines]
        if not shown:
            continue
        print(path.relative_to(ROOT))
        for name, n in sorted(shown, key=lambda item: -item[1]):
            print(f"  {n:5d}  {name}")
        count += len(shown)
        lines += sum(n for _, n in shown)
    print(f"{total:,} functions; {count:,} unreached (outermost) shown, {lines:,} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
