"""QL007 and QL009 -- concurrency contracts over the shared flow layer.

Two rules ride on :class:`repro.lint.flow.ProjectFlow`:

- **QL007 lock discipline**: an attribute of a class that owns a
  ``Lock``/``RLock``/``Condition`` may only be mutated under ``with
  self.<lock>`` in methods reachable from more than one thread.  A
  helper whose *every* resolved call site sits under the owning lock
  counts as guarded (the ``_sweep`` / ``_locked``-suffix idiom).
- **QL009 blocking-call hygiene**: code reachable from a ``main`` entry
  point must not block unboundedly -- untimed ``Event.wait()``,
  ``Condition.wait()`` outside a predicate re-check loop, and
  ``socket.accept/recv`` without a timeout are flagged.  This is the
  bug class the serve daemon fixed by hand (an untimed wait on the main
  thread starves signal delivery).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from .context import LintContext
from .findings import SEVERITY_ERROR, SEVERITY_WARNING, Finding
from .flow import (
    KIND_CONDITION,
    ClassInfo,
    FunctionInfo,
    ProjectFlow,
    TypeEnv,
    dotted_key,
)
from .rules import Rule

#: Container methods that mutate their receiver in place.
_MUTATING_CALLS = {
    "append",
    "appendleft",
    "extend",
    "insert",
    "add",
    "remove",
    "discard",
    "clear",
    "pop",
    "popleft",
    "popitem",
    "update",
    "setdefault",
    "sort",
    "reverse",
}

#: Construction-time methods run before the object is shared.
_EXEMPT_METHODS = {"__init__", "__post_init__", "__new__", "__del__"}


# -- lock-expression resolution -----------------------------------------------


def resolve_lock_expr(
    expr: ast.expr, info: FunctionInfo, flow: ProjectFlow, env: TypeEnv
) -> list[str]:
    """``Class.attr`` ids of the instance locks a with-item target may be."""
    if not isinstance(expr, ast.Attribute):
        return []
    base = flow.expr_classes(expr.value, info, env)
    if base:
        return sorted(
            {
                f"{cls.name}.{expr.attr}"
                for cls in base
                if flow.lock_attr_kind(cls, expr.attr) is not None
            }
        )
    # Untyped receiver: over-approximate to every class owning a lock
    # attribute with this name.
    return sorted(
        {
            f"{cls.name}.{expr.attr}"
            for cls in flow.classes
            if expr.attr in cls.lock_attrs
        }
    )


def _under_lock_of(
    node: ast.AST,
    info: FunctionInfo,
    cls: ClassInfo,
    flow: ProjectFlow,
    env: TypeEnv,
) -> bool:
    """Whether ``node`` sits lexically inside a ``with`` on a lock of ``cls``."""
    parents = flow.parent_map(info)
    prefix = f"{cls.name}."
    cur = parents.get(id(node))
    while cur is not None:
        if isinstance(cur, (ast.With, ast.AsyncWith)) and any(
            lock_id.startswith(prefix)
            for item in cur.items
            for lock_id in resolve_lock_expr(item.context_expr, info, flow, env)
        ):
            return True
        cur = parents.get(id(cur))
    return False


# -- QL007 --------------------------------------------------------------------


class LockDisciplineRule(Rule):
    rule_id = "QL007"
    title = "lock discipline: guarded state mutates only under the owning lock"
    severity = SEVERITY_ERROR
    rationale = (
        "A class that owns a lock promises its mutable state is guarded; "
        "one mutation outside the lock in a method reachable from two "
        "threads is a data race that can silently corrupt admission or "
        "journal state and break byte-identical replay."
    )

    def finalize(self, ctx: LintContext) -> Iterable[Finding]:
        flow = ctx.flow
        for cls in sorted(
            flow.classes, key=lambda c: (c.module.rel_path, c.name)
        ):
            if not cls.lock_attrs:
                continue
            guarded = (
                cls.inst_attrs
                - set(cls.lock_attrs)
                - cls.event_attrs
                - cls.safe_attrs
            )
            if not guarded:
                continue
            for name in sorted(cls.methods):
                if name in _EXEMPT_METHODS:
                    continue
                method = cls.methods[name]
                env = flow.type_env(method)
                sites = [
                    (node, attr)
                    for node, attr in _self_mutations(method.node)
                    if attr in guarded
                    and not _under_lock_of(node, method, cls, flow, env)
                ]
                if not sites:
                    continue
                if not flow.is_multi_threaded(method.key):
                    continue
                if _all_call_sites_guarded(flow, cls, name):
                    continue
                locks = ", ".join(
                    f"self.{attr}" for attr in sorted(cls.lock_attrs)
                )
                for node, attr in sorted(
                    sites, key=lambda s: getattr(s[0], "lineno", 0)
                ):
                    yield self.finding(
                        cls.module,
                        node,
                        f"`{cls.name}.{attr}` is mutated outside "
                        f"`with {locks}` in `{name}`, which is reachable "
                        "from more than one thread",
                    )


def _self_mutations(root: ast.AST) -> list[tuple[ast.AST, str]]:
    """(node, attr) for every mutation of ``self.<attr>`` under ``root``."""
    out: list[tuple[ast.AST, str]] = []
    for sub in ast.walk(root):
        targets: list[ast.expr] = []
        if isinstance(sub, (ast.Assign, ast.Delete)):
            targets = list(sub.targets)
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
            targets = [sub.target]
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in _MUTATING_CALLS
        ):
            attr = _self_attr_root(sub.func.value)
            if attr is not None:
                out.append((sub, attr))
            continue
        for target in targets:
            attr = _self_attr_root(target)
            if attr is not None:
                out.append((sub, attr))
    return out


def _self_attr_root(expr: ast.expr) -> str | None:
    """``self.X`` root of an attribute/subscript chain, or ``None``."""
    node: ast.expr = expr
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        node = node.value
    return None


def _all_call_sites_guarded(
    flow: ProjectFlow, cls: ClassInfo, method_name: str
) -> bool:
    """True when every resolved call site of the method holds the lock.

    This sanctions the private-helper idiom (``_sweep``,
    ``_append_locked``): the helper itself mutates bare, but is only
    ever entered with the owning lock already held.
    """
    sites = 0
    for key in sorted(flow.functions):
        info = flow.functions[key]
        env: TypeEnv | None = None
        for sub in ast.walk(info.node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if isinstance(func, ast.Attribute):
                if func.attr != method_name:
                    continue
                env = env if env is not None else flow.type_env(info)
                base = flow.expr_classes(func.value, info, env)
                if base and not any(
                    cls in set(flow.mro(candidate)) for candidate in base
                ):
                    continue  # typed call to an unrelated class
            elif isinstance(func, ast.Name):
                if func.id != method_name:
                    continue
                env = env if env is not None else flow.type_env(info)
            else:
                continue
            sites += 1
            if not _under_lock_of(sub, info, cls, flow, env):
                return False
    return sites > 0


# -- QL009 --------------------------------------------------------------------


class BlockingCallRule(Rule):
    rule_id = "QL009"
    title = "blocking-call hygiene on the main thread"
    severity = SEVERITY_WARNING
    rationale = (
        "An untimed wait on the main thread starves signal delivery: the "
        "daemon cannot drain on SIGTERM, and a lost wakeup hangs it "
        "forever.  Main-reachable code polls with timeouts or re-checks "
        "its predicate in a loop."
    )

    def finalize(self, ctx: LintContext) -> Iterable[Finding]:
        flow = ctx.flow
        for key in sorted(flow.group_reach("main")):
            info = flow.functions[key]
            env = flow.type_env(info)
            with_timeout = {
                dotted_key(sub.func.value)
                for sub in ast.walk(info.node)
                if isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "settimeout"
            }
            parents = flow.parent_map(info)
            for sub in ast.walk(info.node):
                if not (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                ):
                    continue
                attr = sub.func.attr
                receiver = sub.func.value
                if attr == "wait" and not sub.args and not sub.keywords:
                    prim = flow.expr_prim(receiver, info, env)
                    if prim == "event":
                        yield self.finding(
                            info.module,
                            sub,
                            "untimed Event.wait() on the main thread; poll "
                            "with wait(timeout) in a loop so signals are "
                            "delivered",
                        )
                    elif prim == KIND_CONDITION and not _in_while(
                        sub, parents
                    ):
                        yield self.finding(
                            info.module,
                            sub,
                            "Condition.wait() outside a predicate re-check "
                            "loop on the main thread (lost-wakeup hazard)",
                        )
                elif attr in ("accept", "recv"):
                    prim = flow.expr_prim(receiver, info, env)
                    if prim == "socket" and dotted_key(receiver) not in (
                        with_timeout
                    ):
                        yield self.finding(
                            info.module,
                            sub,
                            f"blocking socket.{attr}() on the main thread "
                            "without a timeout",
                        )


def _in_while(node: ast.AST, parents: dict[int, ast.AST]) -> bool:
    cur = parents.get(id(node))
    while cur is not None:
        if isinstance(cur, ast.While):
            return True
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        cur = parents.get(id(cur))
    return False
