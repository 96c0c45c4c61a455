"""Check that every function in ``src/repro`` serves a command or is kept for a reason.

Usage (from the repository root)::

    python tools/reach.py

Runs each command in ``COMMANDS`` and each example in this interpreter
under ``sys.setprofile`` (and ``threading.setprofile`` for worker threads),
collecting every code object that starts to execute. A function defined
in ``src/repro`` is *reached* if its code ran at least once. A function
that no command reaches must be named in ``KEPT`` with the reason it stays;
one that is named there must not run, so an entry leaves the table once a
command reaches it.

The report lists two things, per file, with each function's length from
``def`` to its last line: the outermost unreached functions missing from
``KEPT`` (an unreached function's nested helpers count in its lines), and
the ``KEPT`` entries that ran. Then it lists the ``KEPT`` keys that name no
function, such as a deleted function's entry left behind. It exits 1 if
any of the three lists is non-empty.
Command output goes to a null stream; the whole run takes several minutes.
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
    "sweep resume --spec {tmp}/spec.json --cache {tmp}/cache --chunk-size 16"
    " --export {tmp}/s2 --progress",
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

_ORACLE = "reference oracle: tests hold a fast path to it"
_CALIBRATION = "calibration provenance: how the node power constants were fitted"
_ON_FAULT = "runs only on a fault, a finding or a failed check"
_PROTOCOL = "protocol base: runs through the interface it declares"
_NESTING = "lets one execution environment wrap another"
_RECONCILE = "tests reconcile injected samples against dead-lettered ones through it"
_SERVED = 'ROADMAP "The served path is the tested path": no traced command serves HTTP'
_METER = 'ROADMAP "One meter-file format": no command reads a meter file yet'

#: ``path::qualname`` (path relative to ``src/repro``) of every function no
#: command reaches, with the reason it stays.
KEPT = {
    "__init__.py::__dir__": "module protocol: runs on dir(repro)",
    "api.py::FacilitySession.params": "docs/usage.md's migration note tells callers to use it",
    "api.py::FacilitySession.core": "docs/usage.md's migration note tells callers to use it",
    "core/interventions.py::Intervention.apply": _PROTOCOL,
    "core/interventions.py::ScheduledEnvironment.resolve_setting": _NESTING,
    "core/regimes.py::RegimeBand.classify": 'ROADMAP "One facility power and one regime band"',
    "core/validation.py::ValidationReport.failures": _ON_FAULT,
    "engine/plan.py::SweepSpec.scenario": "perfbench/sweep_grid.py calls it",
    "engine/runner.py::run_sweep_scalar": _ORACLE,
    "experiments/common.py::ExperimentResult.to_dict": "Result protocol",
    "facility/failures.py::FailureModel.steady_state_unavailability": (
        "benchmarks/bench_scheduler.py compares the simulated drain against it"
    ),
    "lint/checkers/asyncsafety.py::_is_annotated": _ON_FAULT,
    "lint/engine.py::_parse_error_finding": _ON_FAULT,
    "lint/findings.py::Finding.to_dict": _ON_FAULT,
    "lint/findings.py::Finding.render": _ON_FAULT,
    "lint/registry.py::Checker.check": _PROTOCOL,
    "lint/registry.py::Checker.check_project": _PROTOCOL,
    "lint/sarif.py::_result": _ON_FAULT,
    "live/alerts.py::AlertSink.emit": _PROTOCOL,
    "live/checkpoint.py::load_checkpoint": (
        "public payload reader of repro.live; a resume needs read_checkpoint's slot and refusals"
    ),
    "live/cusum.py::OnlineCusum._process_scalar": _ORACLE,
    "live/faults.py::FaultInjector.apply": _PROTOCOL,
    "live/faults.py::FaultInjector.summary": _RECONCILE,
    "live/faults.py::SpikeInjector.summary": _RECONCILE,
    "live/pipeline.py::PipelineMetrics.total_samples_in": "benchmarks/bench_resilience.py reads it",
    "live/processors.py::Processor.state_dict": _PROTOCOL,
    "live/processors.py::Processor.process": _PROTOCOL,
    "live/processors.py::Processor.load_state_dict": _PROTOCOL,
    "live/regime.py::RegimeTracker._process_scalar": _ORACLE,
    "live/supervisor.py::SupervisedPipeline._crash": _ON_FAULT,
    "node/calibration.py::fit_node_constants": _CALIBRATION,
    "node/calibration.py::_energy_ratio_freq": _CALIBRATION,
    "node/calibration.py::_energy_ratio_bios": _CALIBRATION,
    "node/calibration.py::_anchor_power_w": _CALIBRATION,
    "node/calibration.py::CalibrationResult.max_abs_residual": _CALIBRATION,
    "node/pstates.py::PStateTable.__hash__": (
        "keeps node models hashable now that their P-state tables compare by value"
    ),
    "results.py::Result.result_id": _PROTOCOL,
    "results.py::Result.to_dict": _PROTOCOL,
    "results.py::Result.to_table": _PROTOCOL,
    "results.py::Result.to_csv_rows": _PROTOCOL,
    "scheduler/accounting.py::FaultAccounting.mean_unavailability": (
        "benchmarks/bench_scheduler.py reads it"
    ),
    "scheduler/backfill.py::ExecutionEnvironment.resolve": _PROTOCOL,
    "scheduler/backfill.py::ExecutionEnvironment.resolve_setting": _PROTOCOL,
    "scheduler/cli.py::_fraction": "argparse check of --malleable-fraction, which no command sets",
    "scheduler/demand_response.py::DemandResponseEnvironment.resolve_setting": _NESTING,
    "scheduler/malleable.py::CarbonAwareEnvironment.resolve_setting": _NESTING,
    "service/cli.py::_serve": _SERVED,
    "service/envelope.py::ServiceRequest.from_wire": _SERVED,
    "service/envelope.py::ServiceRequest.to_wire": _SERVED,
    "service/http.py::_refuse_non_finite": _SERVED,
    "service/http.py::_body_length": _SERVED,
    "service/http.py::_read_line": _SERVED,
    "service/http.py::http_status": _SERVED,
    "service/http.py::ServiceHTTPServer.__init__": _SERVED,
    "service/http.py::ServiceHTTPServer.start": _SERVED,
    "service/http.py::ServiceHTTPServer.stop": _SERVED,
    "service/http.py::ServiceHTTPServer.serve_forever": _SERVED,
    "service/http.py::ServiceHTTPServer._serve_connection": _SERVED,
    "service/http.py::ServiceHTTPServer._read_request": _SERVED,
    "service/http.py::ServiceHTTPServer._bad_request": _SERVED,
    "service/http.py::ServiceHTTPServer._route": _SERVED,
    "service/http.py::ServiceHTTPServer._write_response": _SERVED,
    "service/router.py::ServiceRouter._sched_compare": _SERVED,
    "service/router.py::_sched_param": _SERVED,
    "telemetry/io.py::save_csv": _METER,
    "telemetry/io.py::iter_csv": _METER,
    "telemetry/io.py::_csv_chunk": _METER,
    "telemetry/io.py::load_csv": _METER,
    "telemetry/io.py::save_npz": _METER,
    "telemetry/io.py::load_npz": _METER,
    "telemetry/series.py::TimeSeries.time_weighted_mean": _ORACLE,
    "telemetry/series.py::TimeSeries.percentile": _ORACLE,
    "telemetry/series.py::TimeSeries.span_s": _ORACLE,
    "telemetry/series.py::TimeSeries.n_valid": _ORACLE,
    "telemetry/series.py::TimeSeries.std": _ORACLE,
    "telemetry/series.py::TimeSeries.min": _ORACLE,
    "telemetry/series.py::TimeSeries.max": _ORACLE,
    "telemetry/streaming.py::MergingQuantileSketch.add": _ORACLE,
    "telemetry/streaming.py::OnlineStats.push": _ORACLE,
    "telemetry/streaming.py::OnlineStats.time_weighted_mean": _METER,
    "telemetry/streaming.py::OnlineStats.t_start_s": _METER,
    "telemetry/streaming.py::stream_stats": _METER,
    "telemetry/streaming.py::MergingQuantileSketch.n_valid": _METER,
    "telemetry/streaming.py::MergingQuantileSketch._fold": _METER,
    "telemetry/streaming.py::MergingQuantileSketch._merged": _METER,
    "workload/generator.py::JobStreamGenerator.generate": "benchmarks/bench_scheduler.py calls it",
}


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


def defined_functions():
    """``(key, node, enclosing function nodes, path)`` for every def under ``src/repro``.

    ``key`` is the ``KEPT`` spelling: ``path::qualname`` with the path
    relative to ``src/repro``.
    """
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        rel = path.relative_to(PACKAGE).as_posix()
        for name, node, outer in _functions(tree):
            yield f"{rel}::{name}", node, outer, path


def audit(reached: set[tuple[str, int]]) -> tuple[int, list, list, list, list]:
    """Def count, outermost unreached defs, those outside ``KEPT``, ``KEPT``
    entries that ran, each entry as ``(key, lines)``, and the ``KEPT`` keys
    that name no function.

    An outermost unreached def is one that never ran while every function
    enclosing it did.
    """

    def ran(path: Path, node: ast.AST) -> bool:
        lines = {node.lineno, *(d.lineno for d in node.decorator_list)}
        return any((str(path), line) in reached for line in lines)

    total = 0
    unreached: list[tuple[str, int]] = []
    kept_but_ran: list[tuple[str, int]] = []
    defined: set[str] = set()
    for key, node, outer, path in defined_functions():
        total += 1
        defined.add(key)
        lines = node.end_lineno - node.lineno + 1
        if ran(path, node):
            if key in KEPT:
                kept_but_ran.append((key, lines))
        elif all(ran(path, o) for o in outer):
            unreached.append((key, lines))
    missing = [(key, lines) for key, lines in unreached if key not in KEPT]
    stale = sorted(set(KEPT) - defined)
    return total, unreached, missing, kept_but_ran, stale


def _print_by_file(heading: str, entries: list[tuple[str, int]]) -> None:
    print(heading)
    by_file: dict[str, list[tuple[str, int]]] = {}
    for key, lines in entries:
        path, name = key.split("::")
        by_file.setdefault(path, []).append((name, lines))
    for path, functions in by_file.items():
        print(f"  src/repro/{path}")
        for name, lines in sorted(functions, key=lambda item: -item[1]):
            print(f"    {lines:5d}  {name}")


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    total, unreached, missing, kept_but_ran, stale = audit(trace_commands())
    if missing:
        _print_by_file("Unreached and not in KEPT (delete it, or keep it with a reason):", missing)
    if kept_but_ran:
        _print_by_file("In KEPT but reached (take it out of KEPT):", kept_but_ran)
    if stale:
        print("In KEPT but no such function (take it out of KEPT):")
        for key in stale:
            print(f"  {key}")
    print(
        f"{total:,} functions; {len(unreached):,} unreached (outermost), "
        f"{sum(n for _, n in unreached):,} lines; {len(missing)} of them outside KEPT; "
        f"{len(kept_but_ran)} KEPT entries ran; {len(stale)} name no function"
    )
    return 1 if missing or kept_but_ran or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
