"""Determinism checker (REP201, REP202).

The repo advertises bit-identical checkpoint-resume and cache replay; both
collapse if model code reads wall-clock time or draws from an unseeded global
RNG.  Engineering convention (DESIGN.md §6) is that every stochastic
component takes an explicit ``numpy.random.Generator`` — this checker makes
the convention mechanical:

* **REP201** — wall-clock reads (``time.time``, ``time.perf_counter``,
  ``datetime.now``, ``datetime.utcnow``, ``date.today`` …) anywhere outside
  the CLI/benchmark entry-point allowlist.
* **REP202** — unseeded or global randomness: any ``random.*`` module call,
  the legacy ``np.random.*`` functions that hit numpy's hidden global state,
  and ``np.random.default_rng()`` called without a seed.

Entry points that *report* elapsed time (``repro run``'s progress line,
benchmarks, examples) are allowlisted by module name or directory; anything
else must thread time and randomness in explicitly.  A reviewed exception is
annotated in place: ``# lint: allow-unseeded -- state restored on next line``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..context import FileContext, ProjectContext
from ..findings import Finding
from ..graph import module_name_of
from ..registry import Checker, register

__all__ = ["DeterminismChecker"]

#: Modules allowed to read the wall clock: process entry points that time
#: themselves for the operator, not for the model. Keyed by module name, so
#: the list holds wherever the project root lands.
ENTRY_POINT_MODULES = frozenset(
    {"repro.cli", "repro.__main__", "repro.engine.cli", "repro.lint.cli"}
)

#: Directory prefixes with the same dispensation (operator-facing drivers).
ENTRY_POINT_PREFIXES = ("benchmarks/", "examples/")

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Legacy numpy global-state RNG functions (the pre-Generator API).
_NP_LEGACY = frozenset(
    {
        "beta",
        "binomial",
        "bytes",
        "chisquare",
        "choice",
        "dirichlet",
        "exponential",
        "gamma",
        "geometric",
        "get_state",
        "gumbel",
        "laplace",
        "lognormal",
        "multinomial",
        "multivariate_normal",
        "normal",
        "pareto",
        "permutation",
        "poisson",
        "rand",
        "randint",
        "randn",
        "random",
        "random_integers",
        "random_sample",
        "ranf",
        "rayleigh",
        "sample",
        "seed",
        "set_state",
        "shuffle",
        "standard_cauchy",
        "standard_exponential",
        "standard_gamma",
        "standard_normal",
        "standard_t",
        "triangular",
        "uniform",
        "vonmises",
        "wald",
        "weibull",
        "zipf",
    }
)


def _import_map(tree: ast.Module) -> dict[str, str]:
    """Local name -> fully qualified module/object, from import statements."""
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                mapping[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return mapping


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a Name, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _qualify(dotted: str, imports: dict[str, str]) -> str:
    root, _, rest = dotted.partition(".")
    qualified_root = imports.get(root, root)
    return f"{qualified_root}.{rest}" if rest else qualified_root


@register
class DeterminismChecker(Checker):
    """Forbid wall-clock reads and unseeded global RNG in model code."""

    name = "determinism"
    codes = {
        "REP201": "wall-clock read outside an entry-point module",
        "REP202": "unseeded or global random number generation",
    }

    def applies_to(self, rel: str) -> bool:
        if not rel.endswith(".py"):
            return False
        if module_name_of(rel) in ENTRY_POINT_MODULES:
            return False
        return not rel.startswith(ENTRY_POINT_PREFIXES)

    def check(
        self, ctx: FileContext, project: ProjectContext
    ) -> Iterable[Finding]:
        imports = _import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            qualified = _qualify(dotted, imports)
            if qualified in _WALL_CLOCK:
                yield self.finding(
                    ctx,
                    node,
                    "REP201",
                    f"{qualified}() reads the wall clock; model code must "
                    "take time as data (or move this to an entry point)",
                )
            elif qualified.startswith("random.") and not qualified.startswith(
                "random.Random"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "REP202",
                    f"{qualified}() uses the global stdlib RNG; take an "
                    "explicit seeded numpy Generator instead",
                )
            elif (
                qualified.startswith("numpy.random.")
                and qualified.rsplit(".", 1)[-1] in _NP_LEGACY
            ):
                yield self.finding(
                    ctx,
                    node,
                    "REP202",
                    f"{qualified}() hits numpy's hidden global RNG state; "
                    "use numpy.random.default_rng(seed)",
                )
            elif qualified == "numpy.random.default_rng" and not (
                node.args or node.keywords
            ):
                yield self.finding(
                    ctx,
                    node,
                    "REP202",
                    "numpy.random.default_rng() without a seed is "
                    "nondeterministic; pass an explicit seed",
                )
