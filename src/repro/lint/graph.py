"""Whole-program structure: import graph, call graph, class/attr types.

The per-file checkers (REP1xx/2xx/3xx/4xx/5xx) see one AST at a time, so a
kilowatt value returned by ``repro.node`` and summed as kilowatt-hours in
``repro.scheduler.accounting`` is invisible to them.  :class:`ProjectGraph`
is the shared substrate that makes such findings possible: built once per
lint run over every collected :class:`~repro.lint.context.FileContext`, it
resolves

* **modules** — root-relative paths to dotted module names
  (``src/repro/node/cpu.py`` → ``repro.node.cpu``);
* **imports** — per module, local name → fully-qualified target, including
  relative imports (``from ..units import j_to_kwh``);
* **functions and classes** — every ``def``/``class`` under a stable
  qualified name (``repro.service.service.FacilityService.handle``),
  nested definitions included;
* **attribute types** — ``self.router = ServiceRouter(core)`` and
  annotated parameters (``core: FacilityCore``) give instance attributes
  classes, so ``self.router.dispatch(...)`` resolves cross-module;
* **call edges** — per function, the resolved callee qualnames.  *Strong*
  edges are actual calls; *weak* edges are bare method references
  (``self._handlers = {"emissions": self._emissions}``) so dispatch
  tables do not sever reachability.

What the graph deliberately does **not** see (documented limits, see
docs/contributing.md): dynamic dispatch through arbitrary callables,
monkey-patching, inheritance-resolved methods on base classes, ``*args``
forwarding, and types that only a real type checker could infer.  Checkers
built on the graph stay silent rather than guess when resolution fails.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .context import FileContext, ProjectContext

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ProjectGraph",
    "module_name_of",
]


def module_name_of(rel: str) -> str:
    """Dotted module name for a root-relative posix path.

    ``src/`` layouts lose their prefix so names match import statements;
    ``__init__.py`` files name their package.  Files outside any package
    (fixtures, benchmarks) get path-derived names, which keeps fixture
    trees self-consistent without a real installation.
    """
    path = rel[:-3] if rel.endswith(".py") else rel
    parts = [p for p in path.split("/") if p]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _dotted_of(node: ast.expr) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a Name, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _walk_own(func: FunctionInfo, nested_ids: set[int]):
    """Walk a function's body without descending into nested defs."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(func.node))
    while stack:
        node = stack.pop()
        if id(node) in nested_ids:
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _unwrap_annotation(node: ast.expr | None) -> ast.expr | None:
    """Strip ``Optional[X]``, ``X | None`` and string annotations to ``X``."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            if not (isinstance(side, ast.Constant) and side.value is None):
                return _unwrap_annotation(side)
        return None
    if isinstance(node, ast.Subscript):
        base = _dotted_of(node.value)
        if base and base.rsplit(".", 1)[-1] == "Optional":
            return _unwrap_annotation(node.slice)
        return None
    return node


@dataclass
class FunctionInfo:
    """One ``def`` under its project-wide qualified name."""

    qualname: str
    module: str
    rel: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_async: bool
    class_qualname: str | None = None  # owning class, when a method
    parent_qualname: str | None = None  # enclosing function, when nested

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_method(self) -> bool:
        return self.class_qualname is not None

    def param_names(self) -> list[str]:
        """Positional parameter names, ``self``/``cls`` stripped for methods."""
        args = self.node.args
        names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        if self.is_method and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names


@dataclass
class ClassInfo:
    """One ``class`` with its methods and inferred attribute types."""

    qualname: str
    module: str
    rel: str
    node: ast.ClassDef
    methods: dict[str, str] = field(default_factory=dict)  # name -> func qualname
    attr_types: dict[str, str] = field(default_factory=dict)  # attr -> class qualname
    #: Method qualnames referenced (not called) anywhere in the class —
    #: dispatch-table entries, callbacks.  Stored state can be invoked from
    #: any method, so reachability treats these as edges out of every method.
    stored_refs: set[str] = field(default_factory=set)


@dataclass
class CallSite:
    """One resolved call (or weak method reference) inside a function."""

    caller: str  # function qualname
    callee: str  # function qualname
    node: ast.AST  # the Call (strong) or Attribute/Name (weak) node
    weak: bool = False  # True for bare method references (dispatch tables)


class ProjectGraph:
    """Import + call graph over one lint run's collected files."""

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        #: module name -> FileContext
        self.modules: dict[str, FileContext] = {}
        #: module name -> local name -> fully-qualified target
        self.imports: dict[str, dict[str, str]] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: caller qualname -> call sites (strong calls + weak references)
        self.call_sites: dict[str, list[CallSite]] = {}
        #: function qualname -> its body's nodes, nested defs not entered
        self._own_nodes: dict[str, tuple[ast.AST, ...]] = {}
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        for ctx in self.project.files:
            module = module_name_of(ctx.rel)
            self.modules[module] = ctx
            self.imports[module] = self._module_imports(ctx, module)
            self._collect_definitions(ctx, module)
        for cls in self.classes.values():
            self._infer_attr_types(cls)
        nested: dict[str, set[int]] = {}
        for info in self.functions.values():
            if info.parent_qualname is not None:
                nested.setdefault(info.parent_qualname, set()).add(id(info.node))
        for info in self.functions.values():
            self._own_nodes[info.qualname] = tuple(
                _walk_own(info, nested.get(info.qualname, set()))
            )
        for info in list(self.functions.values()):
            self.call_sites[info.qualname] = list(self._resolve_calls(info))
        for sites in self.call_sites.values():
            for site in sites:
                if site.weak:
                    owner = self.effective_class(self.functions[site.caller])
                    if owner is not None:
                        owner.stored_refs.add(site.callee)

    def _module_imports(self, ctx: FileContext, module: str) -> dict[str, str]:
        """Local name -> fully-qualified name, relative imports resolved."""
        package_parts = module.split(".")
        # For a module (not a package __init__), the defining package is one up.
        is_package = ctx.rel.endswith("/__init__.py")
        base_parts = package_parts if is_package else package_parts[:-1]
        mapping: dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    mapping[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        mapping[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    ascend = node.level - 1
                    if ascend > len(base_parts):
                        continue  # relative import escaping the tree
                    prefix_parts = base_parts[: len(base_parts) - ascend]
                    prefix = ".".join(
                        prefix_parts + ([node.module] if node.module else [])
                    )
                elif node.module:
                    prefix = node.module
                else:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    mapping[alias.asname or alias.name] = f"{prefix}.{alias.name}"
        return mapping

    def _collect_definitions(self, ctx: FileContext, module: str) -> None:
        graph = self

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self.scope: list[tuple[str, ast.AST]] = []

            def _qual(self, name: str) -> str:
                parts = [module] + [n for n, _ in self.scope] + [name]
                return ".".join(parts)

            def visit_ClassDef(self, node: ast.ClassDef) -> None:
                qual = self._qual(node.name)
                graph.classes[qual] = ClassInfo(
                    qualname=qual, module=module, rel=ctx.rel, node=node
                )
                self.scope.append((node.name, node))
                self.generic_visit(node)
                self.scope.pop()

            def _visit_func(
                self, node: ast.FunctionDef | ast.AsyncFunctionDef
            ) -> None:
                qual = self._qual(node.name)
                class_qual = None
                parent_qual = None
                if self.scope:
                    owner_name, owner_node = self.scope[-1]
                    owner_qual = ".".join(
                        [module] + [n for n, _ in self.scope]
                    )
                    if isinstance(owner_node, ast.ClassDef):
                        class_qual = owner_qual
                        graph.classes[owner_qual].methods[node.name] = qual
                    else:
                        parent_qual = owner_qual
                graph.functions[qual] = FunctionInfo(
                    qualname=qual,
                    module=module,
                    rel=ctx.rel,
                    node=node,
                    is_async=isinstance(node, ast.AsyncFunctionDef),
                    class_qualname=class_qual,
                    parent_qualname=parent_qual,
                )
                self.scope.append((node.name, node))
                self.generic_visit(node)
                self.scope.pop()

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                self._visit_func(node)

            def visit_AsyncFunctionDef(
                self, node: ast.AsyncFunctionDef
            ) -> None:
                self._visit_func(node)

        Visitor().visit(ctx.tree)

    # -- name resolution ----------------------------------------------------

    def effective_class(self, func: FunctionInfo) -> ClassInfo | None:
        """The class whose ``self`` is in scope, through nested closures.

        A coroutine defined inside a method (``async def evaluate`` nested in
        ``FacilityService.handle``) captures ``self`` from the method, so its
        ``self.x`` references resolve against the enclosing method's class.
        """
        info: FunctionInfo | None = func
        while info is not None:
            if info.class_qualname is not None:
                return self.classes.get(info.class_qualname)
            info = (
                self.functions.get(info.parent_qualname)
                if info.parent_qualname
                else None
            )
        return None

    def resolve_name(self, module: str, dotted: str) -> str | None:
        """Qualified project name for ``dotted`` as written in ``module``.

        Follows the import map for the root segment, then checks the
        function/class registries.  Returns ``None`` for anything the
        project does not define (stdlib, third-party, dynamic).
        """
        imports = self.imports.get(module, {})
        root, _, rest = dotted.partition(".")
        target = imports.get(root)
        if target is None:
            # A bare name defined in this module, or a module-absolute path.
            candidates = [f"{module}.{dotted}", dotted]
        else:
            candidates = [f"{target}.{rest}" if rest else target]
        for candidate in candidates:
            if candidate in self.functions or candidate in self.classes:
                return candidate
            # ``from x import f`` where x itself re-exports: try one level of
            # the target's own import map (covers package __init__ re-exports).
            mod, _, name = candidate.rpartition(".")
            forwarded = self.imports.get(mod, {}).get(name)
            if forwarded is not None and (
                forwarded in self.functions or forwarded in self.classes
            ):
                return forwarded
        return None

    def class_of_expr(
        self,
        expr: ast.expr | None,
        *,
        module: str,
        func: FunctionInfo | None = None,
        local_types: dict[str, str] | None = None,
    ) -> str | None:
        """Class qualname an expression evaluates to, when statically clear."""
        expr = _unwrap_annotation(expr)
        if expr is None:
            return None
        if isinstance(expr, ast.Call):
            dotted = _dotted_of(expr.func)
            if dotted is None:
                return None
            resolved = self.resolve_name(module, dotted)
            return resolved if resolved in self.classes else None
        if isinstance(expr, ast.IfExp):
            return self.class_of_expr(
                expr.body, module=module, func=func, local_types=local_types
            ) or self.class_of_expr(
                expr.orelse, module=module, func=func, local_types=local_types
            )
        if isinstance(expr, ast.Name):
            if local_types and expr.id in local_types:
                return local_types[expr.id]
            if func is not None:
                for arg in [
                    *func.node.args.posonlyargs,
                    *func.node.args.args,
                    *func.node.args.kwonlyargs,
                ]:
                    if arg.arg == expr.id:
                        return self.class_of_expr(
                            arg.annotation, module=module
                        )
            resolved = self.resolve_name(module, expr.id)
            return resolved if resolved in self.classes else None
        dotted = _dotted_of(expr)
        if dotted is not None:
            resolved = self.resolve_name(module, dotted)
            return resolved if resolved in self.classes else None
        return None

    def _infer_attr_types(self, cls: ClassInfo) -> None:
        """Fill ``cls.attr_types`` from annotations and ``self.x = ...``."""
        for stmt in cls.node.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ):
                resolved = self.class_of_expr(
                    stmt.annotation, module=cls.module
                )
                if resolved is not None:
                    cls.attr_types[stmt.target.id] = resolved
        for method_qual in cls.methods.values():
            func = self.functions.get(method_qual)
            if func is None:
                continue
            local_types = self._local_types(func)
            for node in ast.walk(func.node):
                target: ast.expr | None = None
                value: ast.expr | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, _unwrap_annotation(
                        node.annotation
                    )
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr not in cls.attr_types
                ):
                    resolved = self.class_of_expr(
                        value,
                        module=cls.module,
                        func=func,
                        local_types=local_types,
                    )
                    if resolved is not None:
                        cls.attr_types[target.attr] = resolved

    def _local_types(self, func: FunctionInfo) -> dict[str, str]:
        """Local variable name -> class qualname from direct constructions."""
        out: dict[str, str] = {}
        for arg in [
            *func.node.args.posonlyargs,
            *func.node.args.args,
            *func.node.args.kwonlyargs,
        ]:
            resolved = self.class_of_expr(arg.annotation, module=func.module)
            if resolved is not None:
                out[arg.arg] = resolved
        for node in ast.walk(func.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                resolved = self.class_of_expr(
                    node.value, module=func.module, func=func, local_types=out
                )
                if resolved is not None:
                    out[node.targets[0].id] = resolved
        return out

    # -- call resolution ----------------------------------------------------

    def resolve_call(
        self,
        call: ast.Call,
        func: FunctionInfo,
        local_types: dict[str, str] | None = None,
    ) -> str | None:
        """Callee function qualname for one call inside ``func``, if known."""
        target = call.func
        if isinstance(target, ast.Name):
            return self._resolve_bare(target.id, func)
        if isinstance(target, ast.Attribute):
            return self._resolve_attribute(target, func, local_types or {})
        return None

    def _resolve_bare(self, name: str, func: FunctionInfo) -> str | None:
        # Nested sibling/own-scope functions shadow module-level ones.
        scope: str | None = func.qualname
        while scope:
            candidate = f"{scope}.{name}"
            if candidate in self.functions:
                return candidate
            info = self.functions.get(scope)
            scope = info.parent_qualname if info is not None else None
        candidate = f"{func.module}.{name}"
        if candidate in self.functions:
            return candidate
        resolved = self.resolve_name(func.module, name)
        return resolved if resolved in self.functions else None

    def _resolve_attribute(
        self,
        target: ast.Attribute,
        func: FunctionInfo,
        local_types: dict[str, str],
    ) -> str | None:
        method = target.attr
        base = target.value
        # self.method(...)
        if isinstance(base, ast.Name) and base.id == "self":
            cls = self.effective_class(func)
            if cls is not None and method in cls.methods:
                return cls.methods[method]
            if cls is not None:
                return None
        # self.attr.method(...)
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            cls = self.effective_class(func)
            if cls is not None:
                attr_cls = self.classes.get(cls.attr_types.get(base.attr, ""))
                if attr_cls is not None and method in attr_cls.methods:
                    return attr_cls.methods[method]
                return None
        # local.method(...) through inferred local types
        if isinstance(base, ast.Name) and base.id in local_types:
            attr_cls = self.classes.get(local_types[base.id])
            if attr_cls is not None and method in attr_cls.methods:
                return attr_cls.methods[method]
        # module.func(...) / Class.method(...) through the import map
        dotted = _dotted_of(target)
        if dotted is not None:
            resolved = self.resolve_name(func.module, dotted)
            if resolved in self.functions:
                return resolved
            if resolved in self.classes:
                cls = self.classes[resolved]
                return cls.methods.get(method)
        return None

    def _resolve_calls(self, func: FunctionInfo):
        local_types = self._local_types(func)
        called_funcs: set[int] = set()
        for node in self.own_nodes(func):
            if isinstance(node, ast.Call):
                called_funcs.add(id(node.func))
                callee = self.resolve_call(node, func, local_types)
                if callee is not None:
                    yield CallSite(
                        caller=func.qualname, callee=callee, node=node
                    )
        # Weak edges: bare ``self.method`` references (dispatch tables,
        # callbacks).  Without them a handlers-dict severs reachability.
        for node in self.own_nodes(func):
            if (
                isinstance(node, ast.Attribute)
                and id(node) not in called_funcs
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                cls = self.effective_class(func)
                if cls is not None and node.attr in cls.methods:
                    yield CallSite(
                        caller=func.qualname,
                        callee=cls.methods[node.attr],
                        node=node,
                        weak=True,
                    )

    # -- queries ------------------------------------------------------------

    def own_nodes(self, func: FunctionInfo) -> tuple[ast.AST, ...]:
        """Every node of ``func``'s body except those inside nested defs."""
        return self._own_nodes[func.qualname]

    def callees_of(self, qualname: str, *, weak: bool = True) -> list[CallSite]:
        """Resolved call sites out of one function (optionally weak ones too)."""
        sites = self.call_sites.get(qualname, [])
        return [s for s in sites if weak or not s.weak]

    def sync_reach(
        self, start: str, *, max_depth: int = 10
    ) -> dict[str, list[str]]:
        """Sync functions reachable from ``start`` without crossing an await.

        Returns ``{reached qualname: call chain}`` where the chain lists the
        qualnames walked from ``start`` (exclusive) to the target
        (inclusive).  Traversal stops at ``async def`` callees — awaiting a
        coroutine yields the loop, which is exactly what blocking code does
        not do — and at ``max_depth`` hops (documented limit).  When a
        reached function is a method, the class's stored method references
        (dispatch-table entries) count as edges too: stored state can be
        invoked from any method.
        """
        reached: dict[str, list[str]] = {}
        stack: list[tuple[str, list[str]]] = [(start, [])]
        while stack:
            current, chain = stack.pop()
            if len(chain) >= max_depth:
                continue
            targets = [s.callee for s in self.callees_of(current)]
            info = self.functions.get(current)
            if info is not None:
                cls = self.effective_class(info)
                if cls is not None:
                    targets.extend(sorted(cls.stored_refs))
            for target in targets:
                callee = self.functions.get(target)
                if callee is None or callee.is_async:
                    continue
                if target in reached:
                    continue
                new_chain = chain + [target]
                reached[target] = new_chain
                stack.append((target, new_chain))
        return reached

    def class_has_method(self, cls_qualname: str, method: str) -> bool:
        """Whether a class (or any resolvable base) defines ``method``.

        Walks project-resolvable base classes so inherited pairs count;
        unresolvable bases (stdlib, third-party) make the answer ``True`` —
        the method may live there, and checkers must not guess.
        """
        seen: set[str] = set()
        stack = [cls_qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                return True  # unresolvable: assume the method exists
            if method in cls.methods:
                return True
            for base in cls.node.bases:
                dotted = _dotted_of(base)
                if dotted is None:
                    return True  # dynamic base: assume the method exists
                resolved = self.resolve_name(cls.module, dotted)
                if resolved is None:
                    return True  # external base: assume the method exists
                stack.append(resolved)
        return False
