"""Per-function unit signatures for interprocedural dimension flow.

The suffix convention (DESIGN.md §6) names units *inside one expression*;
this module lifts it to function boundaries so REP1xx can follow a kilowatt
value from ``repro.node`` through ``repro.facility`` into
``repro.scheduler.accounting`` and flag the first place it is treated as
kilowatt-hours.  Two sources feed a :class:`UnitSignature` per function,
strongest first:

1. **Name suffixes** — ``def cdu_power_kw(...)`` returns kilowatts,
   parameter ``duration_s`` is seconds, exactly as REP102 already reads
   them locally.
2. **Return-flow inference** — a fixpoint over the call graph: a function
   whose every ``return`` expression carries one agreed unit (directly or
   through already-resolved callees) adopts that unit.

Unknown stays unknown: the table never guesses, so checkers built on it are
silent rather than noisy when resolution fails.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .graph import FunctionInfo, ProjectGraph
from .unitspec import UnitInfo, suffix_of

__all__ = ["ResolvedUnit", "SignatureTable", "UnitSignature"]

_MAX_FIXPOINT_PASSES = 10


@dataclass(frozen=True)
class UnitSignature:
    """Known unit facts about one function's parameters and return."""

    params: dict[str, UnitInfo] = field(default_factory=dict)
    returns: UnitInfo | None = None
    origin: str = "suffix"  # "suffix" | "inferred"

    def param_unit(self, name: str) -> UnitInfo | None:
        return self.params.get(name)


@dataclass(frozen=True)
class ResolvedUnit:
    """One expression's unit plus where the knowledge came from."""

    info: UnitInfo
    display: str  # identifier or callee name, for messages
    via_call: str | None = None  # callee qualname when read off a signature


def _identifier_of(node: ast.expr) -> str | None:
    """The identifier whose suffix describes this expression's unit."""
    while True:
        if isinstance(node, (ast.UnaryOp,)):
            node = node.operand
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Await):
            node = node.value
        else:
            break
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class SignatureTable:
    """Unit signatures for every function in a :class:`ProjectGraph`."""

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self.signatures: dict[str, UnitSignature] = {}
        self._local_types: dict[str, dict[str, str]] = {}
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        for qual, func in self.graph.functions.items():
            self.signatures[qual] = self._base_signature(func)
        self._infer_returns()

    @staticmethod
    def _base_signature(func: FunctionInfo) -> UnitSignature:
        """Units the function's own name and parameter names spell."""
        args = func.node.args
        params: dict[str, UnitInfo] = {}
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            info = suffix_of(arg.arg)
            if info is not None:
                params[arg.arg] = info
        return UnitSignature(params=params, returns=suffix_of(func.name))

    def _infer_returns(self) -> None:
        """Fixpoint: adopt a return unit when every return agrees on one."""
        for _ in range(_MAX_FIXPOINT_PASSES):
            changed = False
            for qual, func in self.graph.functions.items():
                sig = self.signatures[qual]
                if sig.returns is not None:
                    continue
                inferred = self._agreed_return_unit(func)
                if inferred is not None:
                    self.signatures[qual] = UnitSignature(
                        params=sig.params, returns=inferred, origin="inferred"
                    )
                    changed = True
            if not changed:
                return

    def _agreed_return_unit(self, func: FunctionInfo) -> UnitInfo | None:
        units: list[UnitInfo] = []
        for node in self.graph.own_nodes(func):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            if isinstance(node.value, ast.Constant):
                continue  # sentinel returns (None, 0) do not veto inference
            resolved = self.unit_of_expr(node.value, func)
            if resolved is None:
                return None  # one opaque return keeps the function unknown
            units.append(resolved.info)
        if not units:
            return None
        first = units[0]
        if all(u.token == first.token for u in units[1:]):
            return first
        return None

    # -- queries ------------------------------------------------------------

    def signature_of(self, qualname: str) -> UnitSignature | None:
        return self.signatures.get(qualname)

    def locals_of(self, func: FunctionInfo) -> dict[str, str]:
        """Cached local-variable class types for call resolution."""
        cached = self._local_types.get(func.qualname)
        if cached is None:
            cached = self.graph._local_types(func)
            self._local_types[func.qualname] = cached
        return cached

    def resolve_call(self, call: ast.Call, func: FunctionInfo) -> str | None:
        return self.graph.resolve_call(call, func, self.locals_of(func))

    def unit_of_expr(
        self, expr: ast.expr, func: FunctionInfo
    ) -> ResolvedUnit | None:
        """The unit an expression carries, suffix- or signature-sourced.

        Suffixes win over inferred signatures: a call ``cdu_power_kw(...)``
        reads as kilowatts from its visible name (REP102's view); only
        suffix-less calls consult the callee's signature — exactly the
        knowledge a per-file checker cannot have.
        """
        inner = expr
        while isinstance(inner, (ast.UnaryOp, ast.Await)):
            inner = inner.operand if isinstance(inner, ast.UnaryOp) else inner.value
        from_callee: ResolvedUnit | None = None
        if isinstance(inner, ast.Call):
            callee = self.resolve_call(inner, func)
            sig = self.signatures.get(callee) if callee is not None else None
            if sig is not None and sig.returns is not None:
                from_callee = ResolvedUnit(
                    info=sig.returns, display=f"{callee}()", via_call=callee
                )
        name = _identifier_of(expr)
        if name is not None:
            info = suffix_of(name)
            if info is not None:
                return ResolvedUnit(info=info, display=name)
        if from_callee is not None:
            return from_callee
        if isinstance(inner, ast.BinOp) and isinstance(
            inner.op, (ast.Add, ast.Sub)
        ):
            left = self.unit_of_expr(inner.left, func)
            right = self.unit_of_expr(inner.right, func)
            if (
                left is not None
                and right is not None
                and left.info.token == right.info.token
            ):
                return left if left.via_call else right
        if isinstance(inner, ast.IfExp):
            body = self.unit_of_expr(inner.body, func)
            orelse = self.unit_of_expr(inner.orelse, func)
            if (
                body is not None
                and orelse is not None
                and body.info.token == orelse.info.token
            ):
                return body
        return None
