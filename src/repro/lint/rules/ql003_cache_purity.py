"""QL003 — cache-key purity: worker bodies read nothing ambient.

Cache keys are ``experiment + resolved kwargs + package version`` — so a
worker body whose output depends on anything *else* (environment
variables, mutable module globals) silently poisons the content-addressed
cache: two runs with the same key produce different bytes.  This rule
walks the call graph from every function handed to the hardened executor
(``execute_hardened(worker=...)``, ``session.execute(worker=...)``,
``pool.submit(fn, ...)``) and flags, anywhere reachable:

- ``os.environ`` / ``os.getenv`` reads, whatever the key (the fault
  plan, too, reaches worker bodies as an argument);
- ``global`` statements and stores into module-level constants.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Iterable, Iterator

from ..context import LintContext, SourceModule
from ..findings import Finding
from . import Rule

FuncKey = tuple[str, str]  # (module name, function name)

#: Attribute-call names too generic to traverse by name alone (dict.get,
#: list.append, ...) -- following them would connect every function to
#: every other one.
GENERIC_ATTRS = {
    "get",
    "put",
    "keys",
    "items",
    "values",
    "update",
    "append",
    "extend",
    "pop",
    "add",
    "close",
    "join",
    "write",
    "read",
    "copy",
    "sort",
    "index",
    "count",
    "format",
    "split",
    "strip",
    "mean",
    "sum",
    "encode",
    "decode",
    "submit",
    "result",
    "cancel",
    "done",
    "lower",
    "upper",
    "startswith",
    "endswith",
    "exists",
    "mkdir",
    "resolve",
    "to_dict",
    "from_dict",
    "dumps",
    "loads",
    "popleft",
    "setdefault",
}


class CachePurityRule(Rule):
    rule_id = "QL003"
    title = "cache-key purity: no ambient reads in worker bodies"
    rationale = (
        "Content-addressed cache entries are only valid if worker output "
        "is a pure function of the cache key; environment reads and "
        "module-global mutation make identical keys yield different bytes."
    )

    def finalize(self, ctx: LintContext) -> Iterable[Finding]:
        defs: dict[FuncKey, tuple[SourceModule, ast.AST]] = {}
        defs_by_name: dict[str, list[FuncKey]] = {}
        module_globals: dict[str, set[str]] = {}
        roots: list[FuncKey] = []

        for module in ctx.modules:
            if not module.in_package("repro"):
                continue
            module_globals[module.module] = _module_level_names(module.tree)
            for func in _all_defs(module.tree):
                key = (module.module, func.name)
                defs[key] = (module, func)
                defs_by_name.setdefault(func.name, []).append(key)
            roots.extend(
                (module.module, name)
                for name in _worker_root_names(module.tree)
            )

        reachable = _reach(roots, defs, defs_by_name, ctx)
        for key in sorted(reachable):
            if key not in defs:
                continue
            module, func = defs[key]
            owned_globals = module_globals.get(module.module, set())
            yield from self._check_body(module, func, owned_globals)

    def _check_body(
        self,
        module: SourceModule,
        func: ast.AST,
        owned_globals: set[str],
    ) -> Iterator[Finding]:
        name = getattr(func, "name", "<fn>")
        environ_read = (
            f"worker-reachable `{name}` reads os.environ; worker bodies "
            "take every input as an argument (cache keys must stay pure)"
        )
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                yield self.finding(
                    module,
                    node,
                    f"worker-reachable `{name}` declares `global "
                    f"{', '.join(node.names)}`; worker bodies must not "
                    "mutate module state",
                )
            elif (isinstance(node, ast.Call) and _is_environ_read(node)) or (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Load)
                and _is_environ_node(node.value)
            ):
                yield self.finding(module, node, environ_read)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets: list[ast.expr]
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                else:
                    targets = list(node.targets)
                for target in targets:
                    root = _store_root(target)
                    if root is not None and root in owned_globals:
                        yield self.finding(
                            module,
                            node,
                            f"worker-reachable `{name}` mutates module-level "
                            f"`{root}`; worker bodies must not mutate module "
                            "state",
                        )


def _store_root(target: ast.expr) -> str | None:
    """Root name of a subscript/attribute store (``X[k] = v``, ``X.a = v``)."""
    node = target
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    if isinstance(node, ast.Name) and not isinstance(target, ast.Name):
        return node.id
    return None


def _all_defs(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _module_level_names(tree: ast.Module) -> set[str]:
    """Module-level constant-style (ALL_CAPS) bindings."""
    names: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                names.add(target.id)
    return names


def _worker_root_names(tree: ast.Module) -> Iterator[str]:
    """Names of callables handed to the pool / hardened executor."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = None
        if isinstance(func, ast.Name):
            callee = func.id
        elif isinstance(func, ast.Attribute):
            callee = func.attr
        if callee in ("execute_hardened", "execute"):
            for kw in node.keywords:
                if kw.arg == "worker" and isinstance(kw.value, ast.Name):
                    yield kw.value.id
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Name):
                yield node.args[1].id
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in ("submit", "map")
            and node.args
            and isinstance(node.args[0], ast.Name)
        ):
            yield node.args[0].id


def _reach(
    roots: list[FuncKey],
    defs: dict[FuncKey, tuple[SourceModule, ast.AST]],
    defs_by_name: dict[str, list[FuncKey]],
    ctx: LintContext,
) -> set[FuncKey]:
    """Name-based call-graph closure from the worker roots."""
    seen: set[FuncKey] = set()
    queue: deque[FuncKey] = deque()
    for mod_name, fn_name in roots:
        for key in _candidates(mod_name, fn_name, defs, defs_by_name, ctx):
            if key not in seen:
                seen.add(key)
                queue.append(key)
    while queue:
        key = queue.popleft()
        if key not in defs:
            continue
        module, func = defs[key]
        for callee, via_attr in _called_names(func):
            if via_attr and callee in GENERIC_ATTRS:
                continue
            for nxt in _candidates(module.module, callee, defs, defs_by_name, ctx):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return seen


def _candidates(
    mod_name: str,
    fn_name: str,
    defs: dict[FuncKey, tuple[SourceModule, ast.AST]],
    defs_by_name: dict[str, list[FuncKey]],
    ctx: LintContext,
) -> Iterator[FuncKey]:
    local = (mod_name, fn_name)
    if local in defs:
        yield local
        return
    module = ctx.get(mod_name)
    if module is not None:
        origin = module.imports.aliases.get(fn_name)
        if origin is not None and "." in origin:
            target_mod, target_fn = origin.rsplit(".", 1)
            if (target_mod, target_fn) in defs:
                yield (target_mod, target_fn)
                return
    # Method-style attribute call: match any same-named def in the tree.
    yield from defs_by_name.get(fn_name, [])


def _called_names(func: ast.AST) -> Iterator[tuple[str, bool]]:
    """(callee name, was-attribute-call) for every call in ``func``."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            yield node.func.id, False
        elif isinstance(node.func, ast.Attribute):
            yield node.func.attr, True


def _is_environ_node(node: ast.expr) -> bool:
    """True for expressions rooted in ``os.environ`` (or a bool-or of it)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "environ":
            return True
        if isinstance(sub, ast.Name) and sub.id == "environ":
            return True
    return False


def _is_environ_read(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr in ("get", "pop", "setdefault") and _is_environ_node(func.value):
            return True
        if func.attr == "getenv" and isinstance(func.value, ast.Name):
            return func.value.id == "os"
    if isinstance(func, ast.Name) and func.id == "getenv":
        return True
    return False
