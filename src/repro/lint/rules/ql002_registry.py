"""QL002 — registry conformance: uniform `(qi, *, ...)` signatures.

Every callable registered in ``repro.qbss.ALGORITHMS`` is dispatched by
name through ``run_algorithm`` with the uniform keyword set, so each one
must take exactly one positional parameter (the instance, ``qi`` /
``qinstance``), no positional defaults, no ``*args``, and keyword-only
everything else.  A runner that silently accepts positional extras
re-opens the keyword-mismatch bugs the PR-1 registry removed.

The registry names its runners by ``"module:function"`` string so that a
name lookup loads no algorithm module; the rule follows such a reference
to the ``def`` in the linted tree, as it follows an imported name.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from ..context import LintContext, SourceModule
from ..findings import Finding
from . import Rule

#: Package that owns the algorithm registry.
REGISTRY_PACKAGE = "repro.qbss"

#: Names a registered runner's single positional parameter may use.
INSTANCE_PARAM_NAMES = {"qi", "qinstance"}

#: Calls that wrap a callable into a registry spec; the callable (or its
#: ``"module:function"`` reference) is the ``runner`` keyword or the second
#: positional argument.
SPEC_CALLS = {"_spec", "AlgorithmSpec"}

#: Names treated as the registry mapping.
REGISTRY_NAMES = {"ALGORITHMS"}


class RegistryConformanceRule(Rule):
    rule_id = "QL002"
    title = "registry conformance: keyword-only (qi, *, ...) signatures"
    rationale = (
        "Name-based dispatch (engine, measure, causality replay) passes "
        "the uniform keywords; a registered runner with extra positional "
        "parameters or positional defaults breaks that contract silently."
    )

    def finalize(self, ctx: LintContext) -> Iterable[Finding]:
        seen: set[tuple[str, str]] = set()
        for module in ctx.modules:
            if not module.in_package(REGISTRY_PACKAGE):
                continue
            for fn_expr, reg_node in _registered_callables(module.tree):
                yield from self._check_registered(
                    module, fn_expr, reg_node, ctx, seen
                )

    def _check_registered(
        self,
        module: SourceModule,
        fn_expr: ast.expr,
        reg_node: ast.AST,
        ctx: LintContext,
        seen: set[tuple[str, str]],
    ) -> Iterable[Finding]:
        if isinstance(fn_expr, ast.Lambda):
            yield self.finding(
                module,
                fn_expr,
                "lambda registered in ALGORITHMS; register a named function "
                "with the keyword-only (qi, *, ...) signature",
            )
            return
        if isinstance(fn_expr, ast.Constant) and isinstance(fn_expr.value, str):
            resolved = _resolve_reference(fn_expr.value, ctx)
            if isinstance(resolved, str):
                yield self.finding(module, fn_expr, resolved)
                return
        else:
            resolved = _resolve_function(fn_expr, module, ctx)
        if resolved is None:
            return
        def_module, func = resolved
        key = (def_module.module, func.name)
        if key in seen:
            return
        seen.add(key)
        for message in _signature_violations(func):
            yield self.finding(def_module, func, message)


def _registered_callables(
    tree: ast.Module,
) -> Iterator[tuple[ast.expr, ast.AST]]:
    """Yield ``(callable_expr, registration_node)`` pairs for a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if not any(_is_registry_target(t) for t in targets):
                continue
            value = node.value
            if value is not None:
                yield from _callables_in_value(value, node)
        elif isinstance(node, ast.Call):
            # ALGORITHMS.update({...})
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "update"
                and isinstance(func.value, ast.Name)
                and func.value.id in REGISTRY_NAMES
            ):
                for arg in node.args:
                    yield from _callables_in_value(arg, node)


def _is_registry_target(target: ast.expr) -> bool:
    if isinstance(target, ast.Name):
        return target.id in REGISTRY_NAMES
    if isinstance(target, ast.Subscript):
        return isinstance(target.value, ast.Name) and target.value.id in REGISTRY_NAMES
    return False


def _callables_in_value(
    value: ast.expr, reg_node: ast.AST
) -> Iterator[tuple[ast.expr, ast.AST]]:
    """Extract registered callables from a registry-shaped expression."""
    for node in ast.walk(value):
        if isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            if name in SPEC_CALLS:
                fn = _spec_callable(node)
                if fn is not None:
                    yield fn, reg_node
        elif isinstance(node, ast.Dict):
            for v in node.values:
                if isinstance(v, (ast.Name, ast.Lambda, ast.Attribute)):
                    yield v, reg_node
    if isinstance(value, (ast.Name, ast.Lambda, ast.Attribute)):
        yield value, reg_node


def _spec_callable(call: ast.Call) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == "runner":
            return kw.value
    if len(call.args) >= 2:
        return call.args[1]
    return None


def _resolve_function(
    fn_expr: ast.expr, module: SourceModule, ctx: LintContext
) -> tuple[SourceModule, ast.FunctionDef | ast.AsyncFunctionDef] | None:
    """Find the def behind a registered callable expression, if we can."""
    if isinstance(fn_expr, ast.Name):
        local = _find_def(module.tree, fn_expr.id)
        if local is not None:
            return module, local
        origin = module.imports.origin(fn_expr)
    else:
        origin = module.imports.origin(fn_expr)
    if origin is None or "." not in origin:
        return None
    target_module, func_name = origin.rsplit(".", 1)
    source = ctx.get(target_module)
    if source is None:
        return None
    func = _find_def(source.tree, func_name)
    if func is None:
        return None
    return source, func


def _resolve_reference(
    reference: str, ctx: LintContext
) -> tuple[SourceModule, ast.FunctionDef | ast.AsyncFunctionDef] | str | None:
    """The def a ``"module:function"`` reference names; a message when the
    reference is malformed or its linted module has no such function;
    ``None`` when the module is not in the linted tree."""
    target_module, sep, func_name = reference.partition(":")
    if not sep or not target_module or not func_name.isidentifier():
        return (
            f"registered runner reference {reference!r} is not "
            "'module:function'"
        )
    source = ctx.get(target_module)
    if source is None:
        return None
    func = _find_def(source.tree, func_name)
    if func is None:
        return (
            f"registered runner reference {reference!r} names no function "
            f"`{func_name}` in {target_module}"
        )
    return source, func


def _find_def(
    tree: ast.AST, name: str
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name
        ):
            return node
    return None


def _signature_violations(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[str]:
    args = func.args
    if args.posonlyargs:
        yield (
            f"registered algorithm `{func.name}` declares positional-only "
            "parameters; the registry contract is (qi, *, ...)"
        )
    positional = args.args
    if not positional:
        yield (
            f"registered algorithm `{func.name}` takes no positional "
            "instance parameter; expected (qi, *, ...)"
        )
    else:
        first = positional[0].arg
        if first not in INSTANCE_PARAM_NAMES:
            yield (
                f"registered algorithm `{func.name}` names its instance "
                f"parameter `{first}`; expected one of "
                f"{sorted(INSTANCE_PARAM_NAMES)}"
            )
        if len(positional) > 1:
            extras = ", ".join(a.arg for a in positional[1:])
            yield (
                f"registered algorithm `{func.name}` has positional "
                f"parameters after the instance ({extras}); they must be "
                "keyword-only (qi, *, ...)"
            )
    if args.defaults:
        yield (
            f"registered algorithm `{func.name}` has positional defaults; "
            "defaults belong on keyword-only parameters"
        )
    if args.vararg is not None:
        yield (
            f"registered algorithm `{func.name}` accepts `*{args.vararg.arg}`; "
            "positional extras must be rejected, use a bare `*` (qi, *, ...)"
        )
