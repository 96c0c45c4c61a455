"""Async-safety checker (REP601, REP602, REP603).

The facility service (PR 9) runs a single asyncio loop; one blocking call in
a coroutine stalls every tenant at once.  Built on the project call graph:

* **REP601** — a blocking call is reachable from an ``async def`` without an
  intervening ``await``: a blocking *primitive* (``time.sleep``, sync
  file/socket IO, ``subprocess``) called directly, or a heavy synchronous
  engine entry point (``FacilityCore.evaluate_point``/``sweep``,
  ``run_sweep``/``evaluate_scenario``) reached through any chain of sync
  calls — dispatch tables included.  The deliberate in-loop evaluation at
  the single-flight leader is annotated ``# lint: allow-blocking`` with its
  justification, which is the only sanctioned escape hatch.
* **REP602** — a coroutine is created and never awaited: a bare expression
  statement calling an ``async def`` (or ``asyncio.sleep``/``gather``/
  ``wait``/``wait_for``) discards the coroutine, silently running nothing.
* **REP603** — a lost update: a local is read from ``self`` state, the
  coroutine awaits (anything can interleave), then the stale local is
  written back to the same attribute.  Reads and writes inside one
  ``async with`` block (a held lock) are exempt, as are single-statement
  read-modify-writes, which are atomic on the loop.

REP601/REP603 skip ``tests/`` — test coroutines drive sync entry points on
purpose — while REP602 runs everywhere (an unawaited coroutine in a test
means the test asserts nothing).
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..context import FileContext, ProjectContext
from ..findings import Finding
from ..graph import FunctionInfo, ProjectGraph, _dotted_of
from ..registry import Checker, register

__all__ = ["AsyncSafetyChecker"]

#: Fully-qualified callables that block the event loop.  Import-aliased
#: spellings resolve through the module's import map before matching.
BLOCKING_PRIMITIVES = frozenset(
    {
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "os.system",
        "os.popen",
        "os.wait",
        "os.waitpid",
        "socket.create_connection",
        "socket.getaddrinfo",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.put",
        "requests.delete",
        "requests.head",
        "requests.request",
        "open",
        "input",
    }
)

#: Method names that are sync file IO no matter the receiver (``Path``).
BLOCKING_IO_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

#: Heavy synchronous engine entry points: a full scenario evaluation takes
#: long enough to starve every other request on the loop.
HEAVY_SYNC_ENTRY_POINTS = frozenset(
    {
        "repro.engine.runner.run_sweep",
        "repro.engine.runner.evaluate_scenario",
        "repro.service.core.FacilityCore.evaluate_point",
        "repro.service.core.FacilityCore.sweep",
    }
)

#: Bare asyncio coroutine factories whose result must be awaited.
_ASYNCIO_COROUTINES = frozenset(
    {"asyncio.sleep", "asyncio.gather", "asyncio.wait", "asyncio.wait_for"}
)


def _qualified_call_name(graph: ProjectGraph, module: str, call: ast.Call) -> str | None:
    """``time.sleep`` for the call as written, import aliases resolved."""
    dotted = _dotted_of(call.func)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    target = graph.imports.get(module, {}).get(root, root)
    return f"{target}.{rest}" if rest else target


@register
class AsyncSafetyChecker(Checker):
    """No blocking work, lost coroutines, or lost updates on the event loop."""

    name = "async-safety"
    scope = "project"
    codes = {
        "REP601": "blocking call reachable from async def without an await",
        "REP602": "coroutine is created but never awaited",
        "REP603": "self state read before an await is written back after it",
    }

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        graph = project.graph()
        self._primitive_cache: dict[str, list[tuple[str, int]]] = {}
        self._reach_cache: dict[str, dict[str, list[str]]] = {}
        for qual in sorted(graph.functions):
            func = graph.functions[qual]
            ctx = project.by_rel(func.rel)
            if ctx is None:
                continue
            in_tests = func.rel.startswith("tests/")
            if func.is_async and not in_tests:
                yield from self._check_blocking(ctx, graph, func)
                yield from self._check_lost_update(ctx, graph, func)
            yield from self._check_unawaited(ctx, graph, func)

    # -- REP601 -------------------------------------------------------------

    def _check_blocking(
        self, ctx: FileContext, graph: ProjectGraph, func: FunctionInfo
    ) -> Iterable[Finding]:
        local_types = graph._local_types(func)
        for node in graph.own_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            primitive = self._primitive_name(graph, func.module, node)
            if primitive is not None:
                yield self.finding(
                    ctx,
                    node,
                    "REP601",
                    f"blocking call {primitive}() inside async def "
                    f"{func.name}; it stalls the event loop — move it off "
                    "the loop (run_in_executor) or make it async",
                )
                continue
            callee = graph.resolve_call(node, func, local_types)
            if callee is None:
                continue
            info = graph.functions.get(callee)
            if info is None or info.is_async:
                continue
            cause = self._blocking_cause(graph, callee)
            if cause is None:
                continue
            chain, reason = cause
            via = " -> ".join(_short(q) for q in chain)
            yield self.finding(
                ctx,
                node,
                "REP601",
                f"call to {_short(callee)} from async def {func.name} "
                f"reaches {reason} without an await (chain: {via}); "
                "blocking work on the loop starves every other request",
            )

    def _primitive_name(
        self, graph: ProjectGraph, module: str, call: ast.Call
    ) -> str | None:
        qualified = _qualified_call_name(graph, module, call)
        if qualified in BLOCKING_PRIMITIVES:
            return qualified
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in BLOCKING_IO_METHODS
        ):
            return call.func.attr
        return None

    def _blocking_cause(
        self, graph: ProjectGraph, start: str
    ) -> tuple[list[str], str] | None:
        """(chain through ``start``, reason) when sync code blocks below it."""
        if start in HEAVY_SYNC_ENTRY_POINTS:
            return [start], f"heavy engine entry point {_short(start)}"
        reach = self._reach_cache.get(start)
        if reach is None:
            reach = graph.sync_reach(start)
            self._reach_cache[start] = reach
        for target in sorted(reach):
            if target in HEAVY_SYNC_ENTRY_POINTS:
                return (
                    [start, *reach[target]],
                    f"heavy engine entry point {_short(target)}",
                )
        for target in [start, *sorted(reach)]:
            for primitive, _lineno in self._primitives_in(graph, target):
                chain = [start] if target == start else [start, *reach[target]]
                return chain, f"blocking primitive {primitive}()"
        return None

    def _primitives_in(
        self, graph: ProjectGraph, qualname: str
    ) -> list[tuple[str, int]]:
        cached = self._primitive_cache.get(qualname)
        if cached is not None:
            return cached
        func = graph.functions.get(qualname)
        out: list[tuple[str, int]] = []
        if func is not None:
            for node in graph.own_nodes(func):
                if isinstance(node, ast.Call):
                    primitive = self._primitive_name(graph, func.module, node)
                    if primitive is not None and not _is_annotated(
                        graph, func, node
                    ):
                        out.append((primitive, node.lineno))
        self._primitive_cache[qualname] = out
        return out

    # -- REP602 -------------------------------------------------------------

    def _check_unawaited(
        self, ctx: FileContext, graph: ProjectGraph, func: FunctionInfo
    ) -> Iterable[Finding]:
        local_types = graph._local_types(func)
        for node in graph.own_nodes(func):
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
                continue
            call = node.value
            qualified = _qualified_call_name(graph, func.module, call)
            if qualified in _ASYNCIO_COROUTINES:
                yield self.finding(
                    ctx,
                    node,
                    "REP602",
                    f"{qualified}() creates a coroutine that is never "
                    "awaited; nothing runs — add await",
                )
                continue
            callee = graph.resolve_call(call, func, local_types)
            if callee is None:
                continue
            info = graph.functions.get(callee)
            if info is not None and info.is_async:
                yield self.finding(
                    ctx,
                    node,
                    "REP602",
                    f"coroutine {_short(callee)} is created but never "
                    "awaited; add await (or asyncio.create_task to run it "
                    "concurrently)",
                )

    # -- REP603 -------------------------------------------------------------

    def _check_lost_update(
        self, ctx: FileContext, graph: ProjectGraph, func: FunctionInfo
    ) -> Iterable[Finding]:
        awaits: list[int] = []
        locked_spans: list[tuple[int, int]] = []
        reads: dict[str, tuple[str, int]] = {}  # local -> (attr, lineno)
        nodes = graph.own_nodes(func)
        for node in nodes:
            if isinstance(node, ast.Await):
                awaits.append(node.lineno)
            elif isinstance(node, ast.AsyncWith):
                locked_spans.append((node.lineno, node.end_lineno or node.lineno))
        for node in nodes:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                attr = _first_self_attr(node.value)
                if attr is not None:
                    reads[node.targets[0].id] = (attr, node.lineno)
        for node in sorted(
            (n for n in nodes if isinstance(n, (ast.Assign, ast.AugAssign))),
            key=lambda n: n.lineno,
        ):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            attr = _self_attr_target(target)
            if attr is None:
                continue
            for name in ast.walk(node.value):
                if not isinstance(name, ast.Name):
                    continue
                read = reads.get(name.id)
                if read is None or read[0] != attr:
                    continue
                read_line = read[1]
                if read_line >= node.lineno:
                    continue
                crossed = [a for a in awaits if read_line < a <= node.lineno]
                if not crossed:
                    continue
                if any(
                    lo <= read_line and node.lineno <= hi
                    for lo, hi in locked_spans
                ):
                    continue  # both sides under one held async lock
                yield self.finding(
                    ctx,
                    node,
                    "REP603",
                    f"self.{attr} was read into {name.id!r} at line "
                    f"{read_line}, the coroutine awaited at line "
                    f"{crossed[0]}, and the stale value is written back "
                    "here — interleaved requests lose their update",
                )
                break


def _first_self_attr(expr: ast.expr) -> str | None:
    """The first ``self.X`` attribute read anywhere inside an expression."""
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
    return None


def _self_attr_target(target: ast.expr) -> str | None:
    """``X`` when a statement assigns to ``self.X`` or ``self.X[...]``."""
    if isinstance(target, ast.Subscript):
        target = target.value
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None


def _short(qualname: str) -> str:
    """``FacilityCore.sweep`` for messages; full qualnames read as noise."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qualname


def _is_annotated(
    graph: ProjectGraph, func: FunctionInfo, node: ast.AST
) -> bool:
    """Whether an ``allow-blocking`` annotation covers this node's line.

    Primitive scans run on *sync* functions reached from async ones; a
    suppression there must silence the derived REP601 at the async call
    site too, or the annotation would have to live far from the cause.
    """
    ctx = graph.modules.get(func.module)
    return ctx is not None and ctx.is_suppressed(
        getattr(node, "lineno", 0), "REP601"
    )
