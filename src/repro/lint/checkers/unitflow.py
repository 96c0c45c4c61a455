"""Interprocedural unit-flow checker (REP103, REP104).

REP102 sees one expression; these codes see the call graph.  Using the
per-function :class:`~repro.lint.signatures.UnitSignature` table they follow
a quantity across function (and module) boundaries:

* **REP103** — a call argument's unit conflicts with the callee parameter's
  unit: ``kw_to_w(power_mw)``, ``accumulate(energy_kwh=node_power_kw(...))``.
  The callee may live any number of modules away.
* **REP104** — a value whose unit is only known through a resolved signature
  is bound to an incompatible slot: assigned to a suffixed name, returned
  from a function with a declared return unit, or mixed into ``+``/``-``/
  comparison arithmetic (the cases REP102 cannot see because no suffix is
  visible at the expression).

Both codes stay silent when resolution fails — the signature table never
guesses — and REP104 arithmetic only fires when at least one operand's unit
came *through a call*, so it never duplicates a REP102 finding.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..context import ProjectContext
from ..findings import Finding
from ..registry import Checker, register
from ..signatures import SignatureTable, _identifier_of
from ..unitspec import UnitInfo, suffix_of

__all__ = ["UnitFlowChecker"]

_CHECKED_COMPARES = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def _incompatible(lhs: UnitInfo, rhs: UnitInfo) -> str | None:
    """A human-readable clash description, or ``None`` when compatible."""
    if lhs.token == rhs.token or lhs.compatible_with(rhs):
        return None
    if lhs.dimension != rhs.dimension:
        return f"{lhs.dimension} vs {rhs.dimension}"
    return (
        f"both {lhs.dimension} but at different scales "
        f"('_{lhs.token}' vs '_{rhs.token}'); convert via repro.units first"
    )


@register
class UnitFlowChecker(Checker):
    """Propagate unit dimensions across function and module boundaries."""

    name = "unit-flow"
    scope = "project"
    codes = {
        "REP103": "call argument unit conflicts with the callee parameter",
        "REP104": "signature-derived unit bound to an incompatible slot",
    }

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        table = project.signature_table()
        graph = table.graph
        for qual in sorted(graph.functions):
            func = graph.functions[qual]
            ctx = project.by_rel(func.rel)
            if ctx is None:
                continue
            sig = table.signature_of(qual)
            for node in graph.own_nodes(func):
                if isinstance(node, ast.Call):
                    yield from self._check_call(ctx, table, func, node)
                elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                    yield from self._check_binding(
                        ctx, table, func, node, node.targets[0], node.value
                    )
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    yield from self._check_binding(
                        ctx, table, func, node, node.target, node.value
                    )
                elif isinstance(node, ast.Return) and node.value is not None:
                    yield from self._check_return(ctx, table, func, sig, node)
                elif isinstance(node, ast.BinOp) and isinstance(
                    node.op, (ast.Add, ast.Sub)
                ):
                    yield from self._check_arithmetic(
                        ctx, table, func, node, node.left, node.right
                    )
                elif isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                    for op, left, right in zip(
                        node.ops, operands, operands[1:]
                    ):
                        if isinstance(op, _CHECKED_COMPARES):
                            yield from self._check_arithmetic(
                                ctx, table, func, node, left, right
                            )

    # -- one rule per slot kind ---------------------------------------------

    def _check_call(self, ctx, table: SignatureTable, func, call: ast.Call):
        callee = table.resolve_call(call, func)
        if callee is None:
            return
        callee_info = table.graph.functions.get(callee)
        callee_sig = table.signature_of(callee)
        if callee_info is None or callee_sig is None or not callee_sig.params:
            return
        if any(isinstance(a, ast.Starred) for a in call.args):
            return  # *args forwarding: positional binding unknowable
        param_names = callee_info.param_names()
        bindings = list(zip(param_names, call.args))
        bindings += [
            (kw.arg, kw.value) for kw in call.keywords if kw.arg is not None
        ]
        for param, value in bindings:
            expected = callee_sig.param_unit(param)
            if expected is None:
                continue
            got = table.unit_of_expr(value, func)
            if got is None:
                continue
            clash = _incompatible(got.info, expected)
            if clash is None:
                continue
            yield self.finding(
                ctx,
                value,
                "REP103",
                f"argument {got.display!r} carries '_{got.info.token}' but "
                f"parameter {param!r} of {callee} expects "
                f"'_{expected.token}' ({clash})",
            )

    def _check_binding(self, ctx, table, func, node, target, value):
        name = _identifier_of(target)
        if name is None:
            return
        expected = suffix_of(name)
        if expected is None:
            return
        got = table.unit_of_expr(value, func)
        if got is None or got.via_call is None:
            return  # suffix-vs-suffix binding is visible locally; stay quiet
        clash = _incompatible(got.info, expected)
        if clash is None:
            return
        yield self.finding(
            ctx,
            node,
            "REP104",
            f"{name!r} expects '_{expected.token}' but {got.via_call} "
            f"returns '_{got.info.token}' ({clash})",
        )

    def _check_return(self, ctx, table, func, sig, node: ast.Return):
        if sig is None or sig.returns is None or sig.origin == "inferred":
            return  # inferred units would make this check circular
        got = table.unit_of_expr(node.value, func)
        if got is None:
            return
        clash = _incompatible(got.info, sig.returns)
        if clash is None:
            return
        source = got.via_call or got.display
        yield self.finding(
            ctx,
            node,
            "REP104",
            f"{func.qualname} declares return unit '_{sig.returns.token}' "
            f"but returns {source!r} carrying '_{got.info.token}' ({clash})",
        )

    def _check_arithmetic(self, ctx, table, func, node, left, right):
        lhs = table.unit_of_expr(left, func)
        rhs = table.unit_of_expr(right, func)
        if lhs is None or rhs is None:
            return
        if lhs.via_call is None and rhs.via_call is None:
            return  # REP102's territory: both suffixes are locally visible
        clash = _incompatible(lhs.info, rhs.info)
        if clash is None:
            return
        yield self.finding(
            ctx,
            node,
            "REP104",
            f"arithmetic mixes {lhs.display!r} ('_{lhs.info.token}') with "
            f"{rhs.display!r} ('_{rhs.info.token}') ({clash})",
        )
