"""Project-wide call-graph and class-attribute-flow analysis.

QL003's worker-reachability BFS solved one instance of a general
problem: several contracts are properties of *paths through the
project*, not of single files.  This module generalizes that layer so
the concurrency rules (QL007 and QL009) share one index:

- every function and method definition, keyed ``(module, qualname)``;
- every class: its methods, properties, instance attributes, the
  ``threading`` locks it owns, and best-effort attribute *types*
  (``self.queue = AdmissionQueue(...)`` binds ``queue`` ->
  ``AdmissionQueue``) resolved from constructor calls and annotations;
- thread roots: ``threading.Thread(target=...)`` sites, ``do_*``
  methods of ``BaseHTTPRequestHandler`` subclasses (one shared
  ``http-handler`` group -- the threading HTTP server runs each request
  on its own thread), and ``main``-style CLI entry points;
- a reachability BFS whose attribute-call resolution prefers the typed
  binding and falls back to name matching only when no type is known.

The model is an over-approximation (every candidate callee is
followed); the known false negatives -- cross-object mutation,
dynamically constructed classes -- are documented in
``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .context import LintContext, SourceModule

FuncKey = tuple[str, str]

#: Attribute-call names too generic to traverse by name alone (dict.get,
#: list.append, ...) -- following them would connect every function to
#: every other one.  Typed receivers bypass this list entirely.
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

KIND_LOCK = "lock"
KIND_RLOCK = "rlock"
KIND_CONDITION = "condition"

#: Dotted origins that construct a lock-like primitive.  The lockwatch
#: seam (:mod:`repro.obs.lockwatch`) is recognized alongside the raw
#: ``threading`` factories so instrumented production code keeps the
#: same static model.
LOCK_FACTORIES: dict[str, str] = {
    "threading.Lock": KIND_LOCK,
    "threading.RLock": KIND_RLOCK,
    "threading.Condition": KIND_CONDITION,
    "repro.obs.lockwatch.new_lock": KIND_LOCK,
    "repro.obs.lockwatch.new_rlock": KIND_RLOCK,
    "repro.obs.lockwatch.new_condition": KIND_CONDITION,
}

EVENT_FACTORIES = {"threading.Event"}

#: Internally synchronized containers: attributes holding one are exempt
#: from QL007's lock-discipline check.
THREADSAFE_FACTORIES = {"threading.local", "queue.Queue", "queue.SimpleQueue"}

SOCKET_FACTORIES = {
    "socket.socket",
    "socket.create_connection",
    "socket.create_server",
}

_HTTP_HANDLER_BASES = {
    "http.server.BaseHTTPRequestHandler",
    "http.server.SimpleHTTPRequestHandler",
}

_MAIN_ROOT_GROUP = "main"
_HTTP_ROOT_GROUP = "http-handler"


def lock_kind_of_call(call: ast.Call, module: SourceModule) -> str | None:
    """Lock kind constructed by ``call``, or ``None``."""
    origin = module.imports.origin(call.func)
    if origin is not None:
        return LOCK_FACTORIES.get(origin)
    return None


def prim_kind_of_call(call: ast.Call, module: SourceModule) -> str | None:
    """Primitive kind (lock/rlock/condition/event/socket) of ``call``."""
    kind = lock_kind_of_call(call, module)
    if kind is not None:
        return kind
    origin = module.imports.origin(call.func)
    if origin in EVENT_FACTORIES:
        return "event"
    if origin in SOCKET_FACTORIES:
        return "socket"
    return None


def dotted_key(expr: ast.expr) -> str | None:
    """``self._fh`` / ``tmp_path`` as a dotted string, else ``None``."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass(eq=False)
class FunctionInfo:
    """One function or method definition."""

    key: FuncKey
    module: SourceModule
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: ClassInfo | None = None
    is_property: bool = False


@dataclass(eq=False)
class ClassInfo:
    """One class: methods, owned locks, and attribute types."""

    module: SourceModule
    node: ast.ClassDef
    name: str
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    properties: set[str] = field(default_factory=set)
    #: ``self`` attribute -> lock kind for attributes assigned a lock
    #: factory call anywhere in the class body.
    lock_attrs: dict[str, str] = field(default_factory=dict)
    event_attrs: set[str] = field(default_factory=set)
    #: attributes holding internally synchronized objects (thread-locals,
    #: queues) -- exempt from lock-discipline checks.
    safe_attrs: set[str] = field(default_factory=set)
    #: every ``self.X`` ever assigned in a method of this class.
    inst_attrs: set[str] = field(default_factory=set)
    #: ``self`` attribute -> candidate in-tree classes it holds.
    attr_types: dict[str, set[ClassInfo]] = field(default_factory=dict)


@dataclass(eq=False)
class TypeEnv:
    """Best-effort local types for one function body."""

    classes: dict[str, set[ClassInfo]] = field(default_factory=dict)
    #: name -> primitive kind ("event", "condition", "socket", "lock"...)
    prims: dict[str, str] = field(default_factory=dict)


class ProjectFlow:
    """Shared indexes + reachability over one parsed :class:`LintContext`."""

    def __init__(self, ctx: LintContext) -> None:
        self.ctx = ctx
        self.functions: dict[FuncKey, FunctionInfo] = {}
        self.by_bare_name: dict[str, list[FuncKey]] = {}
        self.classes: list[ClassInfo] = []
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        self._reach_cache: dict[str, frozenset[FuncKey]] = {}
        self._env_cache: dict[FuncKey, TypeEnv] = {}
        self._parent_cache: dict[FuncKey, dict[int, ast.AST]] = {}
        self._collect()
        self._resolve_attr_types()
        self.root_groups: dict[str, list[FuncKey]] = self._discover_roots()

    # -- index construction ---------------------------------------------------

    def _collect(self) -> None:
        for module in self.ctx.modules:
            if not module.in_package("repro"):
                continue
            method_ids: set[int] = set()
            for cnode in [
                n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)
            ]:
                cls = ClassInfo(module=module, node=cnode, name=cnode.name)
                self.classes.append(cls)
                self.classes_by_name.setdefault(cls.name, []).append(cls)
                for stmt in cnode.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method_ids.add(id(stmt))
                        is_prop = any(
                            (isinstance(d, ast.Name) and d.id == "property")
                            or (
                                isinstance(d, ast.Attribute)
                                and d.attr in ("property", "cached_property")
                            )
                            for d in stmt.decorator_list
                        )
                        key = (module.module, f"{cls.name}.{stmt.name}")
                        info = FunctionInfo(key, module, stmt, cls, is_prop)
                        cls.methods[stmt.name] = info
                        if is_prop:
                            cls.properties.add(stmt.name)
                        self.functions[key] = info
                        self.by_bare_name.setdefault(stmt.name, []).append(key)
                    elif isinstance(stmt, ast.Assign):
                        self._record_class_binding(cls, stmt.targets, stmt.value)
                self._record_instance_attrs(cls)
            for fnode in [
                n
                for n in ast.walk(module.tree)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                and id(n) not in method_ids
            ]:
                key = (module.module, fnode.name)
                if key in self.functions:
                    continue  # nested def shadowed by an earlier sibling
                self.functions[key] = FunctionInfo(key, module, fnode)
                self.by_bare_name.setdefault(fnode.name, []).append(key)

    def _record_class_binding(
        self, cls: ClassInfo, targets: list[ast.expr], value: ast.expr
    ) -> None:
        if not isinstance(value, ast.Call):
            return
        kind = lock_kind_of_call(value, cls.module)
        origin = cls.module.imports.origin(value.func)
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            cls.inst_attrs.add(target.id)
            if kind is not None:
                cls.lock_attrs[target.id] = kind
            elif origin in EVENT_FACTORIES:
                cls.event_attrs.add(target.id)
            elif origin in THREADSAFE_FACTORIES:
                cls.safe_attrs.add(target.id)

    def _record_instance_attrs(self, cls: ClassInfo) -> None:
        for method in cls.methods.values():
            for node in ast.walk(method.node):
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(node, ast.Assign):
                    targets, value = list(node.targets), node.value
                elif isinstance(node, ast.AnnAssign):
                    targets, value = [node.target], node.value
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    cls.inst_attrs.add(target.attr)
                    if isinstance(value, ast.Call):
                        kind = lock_kind_of_call(value, cls.module)
                        origin = cls.module.imports.origin(value.func)
                        if kind is not None:
                            cls.lock_attrs[target.attr] = kind
                        elif origin in EVENT_FACTORIES:
                            cls.event_attrs.add(target.attr)
                        elif origin in THREADSAFE_FACTORIES:
                            cls.safe_attrs.add(target.attr)

    def _resolve_attr_types(self) -> None:
        for cls in self.classes:
            for stmt in cls.node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    found = self._classes_from_annotation(
                        stmt.annotation, cls.module
                    )
                    if found:
                        cls.attr_types.setdefault(stmt.target.id, set()).update(
                            found
                        )
            for method in cls.methods.values():
                for node in ast.walk(method.node):
                    target, value = _self_attr_assignment(node)
                    if target is None:
                        continue
                    cands: set[ClassInfo] = set()
                    if isinstance(node, ast.AnnAssign):
                        cands |= self._classes_from_annotation(
                            node.annotation, cls.module
                        )
                    if value is not None:
                        cands |= self._classes_from_expr(value, cls.module)
                    if cands:
                        cls.attr_types.setdefault(target, set()).update(cands)

    # -- type resolution ------------------------------------------------------

    def _named_class_candidates(
        self, name: str, origin: str | None, module: SourceModule
    ) -> set[ClassInfo]:
        cands = self.classes_by_name.get(name, [])
        if not cands:
            return set()
        if origin is not None:
            exact = [
                c for c in cands if f"{c.module.module}.{c.name}" == origin
            ]
            if exact:
                return set(exact)
            return set()
        local = [c for c in cands if c.module is module]
        if local:
            return set(local)
        return set(cands)

    def _call_class_candidates(
        self, call: ast.Call, module: SourceModule
    ) -> set[ClassInfo]:
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return set()
        return self._named_class_candidates(
            name, module.imports.origin(func), module
        )

    def _classes_from_expr(
        self, expr: ast.expr, module: SourceModule
    ) -> set[ClassInfo]:
        """Classes constructed anywhere inside ``expr`` (RHS scan)."""
        out: set[ClassInfo] = set()
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                out |= self._call_class_candidates(sub, module)
        return out

    def _classes_from_annotation(
        self, ann: ast.expr, module: SourceModule
    ) -> set[ClassInfo]:
        out: set[ClassInfo] = set()
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return out
        for sub in ast.walk(ann):
            if isinstance(sub, (ast.Name, ast.Attribute)):
                name = sub.id if isinstance(sub, ast.Name) else sub.attr
                out |= self._named_class_candidates(
                    name, module.imports.origin(sub), module
                )
        return out

    def _prim_from_annotation(
        self, ann: ast.expr, module: SourceModule
    ) -> str | None:
        for sub in ast.walk(ann):
            if isinstance(sub, (ast.Name, ast.Attribute)):
                origin = module.imports.origin(sub)
                if origin == "threading.Event":
                    return "event"
                if origin == "threading.Condition":
                    return KIND_CONDITION
                if origin == "threading.Lock":
                    return KIND_LOCK
                if origin == "socket.socket":
                    return "socket"
        return None

    def type_env(self, info: FunctionInfo) -> TypeEnv:
        cached = self._env_cache.get(info.key)
        if cached is not None:
            return cached
        env = TypeEnv()
        args = info.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is None:
                continue
            found = self._classes_from_annotation(arg.annotation, info.module)
            if found:
                env.classes[arg.arg] = found
            prim = self._prim_from_annotation(arg.annotation, info.module)
            if prim is not None:
                env.prims[arg.arg] = prim
        if info.cls is not None:
            env.classes["self"] = {info.cls}
        for sub in ast.walk(info.node):
            if not (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
            ):
                continue
            name = sub.targets[0].id
            found = self._classes_from_expr(sub.value, info.module)
            if found:
                env.classes.setdefault(name, set()).update(found)
            if isinstance(sub.value, ast.Call):
                prim = prim_kind_of_call(sub.value, info.module)
                if prim is not None:
                    env.prims[name] = prim
        self._env_cache[info.key] = env
        return env

    def expr_classes(
        self, expr: ast.expr, info: FunctionInfo, env: TypeEnv
    ) -> set[ClassInfo]:
        """Candidate in-tree classes an expression evaluates to."""
        if isinstance(expr, ast.Name):
            return env.classes.get(expr.id, set())
        if isinstance(expr, ast.Attribute):
            out: set[ClassInfo] = set()
            for cls in self.expr_classes(expr.value, info, env):
                for owner in self.mro(cls):
                    found = owner.attr_types.get(expr.attr)
                    if found:
                        out |= found
                        break
            return out
        if isinstance(expr, ast.Call):
            return self._call_class_candidates(expr, info.module)
        return set()

    def expr_prim(
        self, expr: ast.expr, info: FunctionInfo, env: TypeEnv
    ) -> str | None:
        """Primitive kind (event/condition/socket/...) of an expression."""
        if isinstance(expr, ast.Name):
            return env.prims.get(expr.id)
        if isinstance(expr, ast.Attribute):
            for cls in self.expr_classes(expr.value, info, env):
                for owner in self.mro(cls):
                    if expr.attr in owner.event_attrs:
                        return "event"
                    if expr.attr in owner.lock_attrs:
                        return owner.lock_attrs[expr.attr]
        if isinstance(expr, ast.Call):
            return prim_kind_of_call(expr, info.module)
        return None

    # -- method resolution ----------------------------------------------------

    def base_classes(self, cls: ClassInfo) -> list[ClassInfo]:
        out: list[ClassInfo] = []
        for base in cls.node.bases:
            if isinstance(base, ast.Name):
                name = base.id
            elif isinstance(base, ast.Attribute):
                name = base.attr
            else:
                continue
            out.extend(
                self._named_class_candidates(
                    name, cls.module.imports.origin(base), cls.module
                )
            )
        return out

    def mro(self, cls: ClassInfo) -> Iterator[ClassInfo]:
        queue: deque[ClassInfo] = deque([cls])
        seen: set[int] = set()
        while queue:
            cur = queue.popleft()
            if id(cur) in seen:
                continue
            seen.add(id(cur))
            yield cur
            queue.extend(self.base_classes(cur))

    def resolve_method(
        self, classes: Iterable[ClassInfo], attr: str
    ) -> list[FuncKey]:
        """First ``attr`` method up each candidate class's base chain."""
        out: list[FuncKey] = []
        for cls in classes:
            for owner in self.mro(cls):
                method = owner.methods.get(attr)
                if method is not None:
                    out.append(method.key)
                    break
        return out

    def lock_attr_kind(self, cls: ClassInfo, attr: str) -> str | None:
        for owner in self.mro(cls):
            kind = owner.lock_attrs.get(attr)
            if kind is not None:
                return kind
        return None

    # -- call-graph edges -----------------------------------------------------

    def resolve_call(
        self, call: ast.Call, info: FunctionInfo, env: TypeEnv
    ) -> list[FuncKey]:
        """Candidate callee keys for one call site."""
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name_ref(func.id, info)
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
            ):
                if info.cls is not None:
                    return self.resolve_method(
                        self.base_classes(info.cls), func.attr
                    )
                return []
            base = self.expr_classes(func.value, info, env)
            if base:
                return self.resolve_method(base, func.attr)
            if func.attr in GENERIC_ATTRS:
                return []
            return list(self.by_bare_name.get(func.attr, []))
        return []

    def _resolve_name_ref(self, name: str, info: FunctionInfo) -> list[FuncKey]:
        if name == "super":
            return []
        module = info.module
        local = (module.module, name)
        if local in self.functions:
            return [local]
        origin = module.imports.aliases.get(name)
        if origin is not None and "." in origin:
            target_mod, target_fn = origin.rsplit(".", 1)
            if (target_mod, target_fn) in self.functions:
                return [(target_mod, target_fn)]
            ctor = [
                c
                for c in self.classes_by_name.get(target_fn, [])
                if c.module.module == target_mod
            ]
            if ctor:
                return self.resolve_method(ctor, "__init__")
        local_cls = [
            c for c in self.classes_by_name.get(name, []) if c.module is module
        ]
        if local_cls:
            return self.resolve_method(local_cls, "__init__")
        return list(self.by_bare_name.get(name, []))

    def resolve_callable_ref(
        self, expr: ast.expr, info: FunctionInfo, env: TypeEnv
    ) -> list[FuncKey]:
        """A function *reference* (e.g. a ``Thread`` target), not a call."""
        if isinstance(expr, ast.Name):
            return self._resolve_name_ref(expr.id, info)
        if isinstance(expr, ast.Attribute):
            base = self.expr_classes(expr.value, info, env)
            if base:
                return self.resolve_method(base, expr.attr)
            if expr.attr in GENERIC_ATTRS:
                return []
            return list(self.by_bare_name.get(expr.attr, []))
        return []

    def property_loads(
        self, root: ast.AST, info: FunctionInfo, env: TypeEnv
    ) -> Iterator[FuncKey]:
        """Typed attribute loads under ``root`` that hit a property def."""
        call_funcs = {
            id(c.func) for c in ast.walk(root) if isinstance(c, ast.Call)
        }
        for sub in ast.walk(root):
            if not (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Load)
                and id(sub) not in call_funcs
            ):
                continue
            base = self.expr_classes(sub.value, info, env)
            if not base:
                continue
            for key in self.resolve_method(base, sub.attr):
                if self.functions[key].is_property:
                    yield key

    def callees(self, info: FunctionInfo) -> set[FuncKey]:
        env = self.type_env(info)
        out: set[FuncKey] = set()
        for sub in ast.walk(info.node):
            if isinstance(sub, ast.Call):
                out.update(self.resolve_call(sub, info, env))
        out.update(self.property_loads(info.node, info, env))
        return out

    # -- thread roots and reachability ---------------------------------------

    def _discover_roots(self) -> dict[str, list[FuncKey]]:
        groups: dict[str, list[FuncKey]] = {}
        mains = sorted(
            key
            for key, fn in self.functions.items()
            if fn.cls is None
            and (fn.node.name == "main" or fn.node.name.endswith("_main"))
        )
        if mains:
            groups[_MAIN_ROOT_GROUP] = mains
        handlers = sorted(
            method.key
            for cls in self.classes
            if self._is_http_handler(cls)
            for name, method in cls.methods.items()
            if name.startswith("do_")
        )
        if handlers:
            groups[_HTTP_ROOT_GROUP] = handlers
        for info in list(self.functions.values()):
            env: TypeEnv | None = None
            for sub in ast.walk(info.node):
                if not (
                    isinstance(sub, ast.Call)
                    and info.module.imports.origin(sub.func)
                    == "threading.Thread"
                ):
                    continue
                target = next(
                    (kw.value for kw in sub.keywords if kw.arg == "target"),
                    None,
                )
                if target is None:
                    continue
                env = env if env is not None else self.type_env(info)
                keys = self.resolve_callable_ref(target, info, env)
                if not keys:
                    continue
                if isinstance(target, ast.Attribute):
                    bare = target.attr
                elif isinstance(target, ast.Name):
                    bare = target.id
                else:
                    bare = "<target>"
                group = f"thread:{info.module.module}.{bare}"
                groups.setdefault(group, []).extend(keys)
        return groups

    def _is_http_handler(self, cls: ClassInfo) -> bool:
        for base in cls.node.bases:
            origin = cls.module.imports.origin(base)
            if origin in _HTTP_HANDLER_BASES:
                return True
            name = None
            if isinstance(base, ast.Name):
                name = base.id
            elif isinstance(base, ast.Attribute):
                name = base.attr
            if name == "BaseHTTPRequestHandler":
                return True
        return any(self._is_http_handler(b) for b in self.base_classes(cls))

    def reachable_from(self, roots: Iterable[FuncKey]) -> set[FuncKey]:
        seen: set[FuncKey] = set()
        queue: deque[FuncKey] = deque()
        for key in roots:
            if key in self.functions and key not in seen:
                seen.add(key)
                queue.append(key)
        while queue:
            key = queue.popleft()
            for nxt in self.callees(self.functions[key]):
                if nxt not in seen and nxt in self.functions:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    def group_reach(self, group: str) -> frozenset[FuncKey]:
        cached = self._reach_cache.get(group)
        if cached is None:
            roots = self.root_groups.get(group, [])
            cached = frozenset(self.reachable_from(roots))
            self._reach_cache[group] = cached
        return cached

    def groups_reaching(self, key: FuncKey) -> set[str]:
        return {
            group
            for group in self.root_groups
            if key in self.group_reach(group)
        }

    def is_multi_threaded(self, key: FuncKey) -> bool:
        """Whether ``key`` can run on more than one thread.

        The ``http-handler`` group alone is multi-threaded (the
        threading HTTP server runs each request on its own thread);
        otherwise two distinct root groups must reach the function.
        """
        groups = self.groups_reaching(key)
        return _HTTP_ROOT_GROUP in groups or len(groups) >= 2

    # -- misc -----------------------------------------------------------------

    def parent_map(self, info: FunctionInfo) -> dict[int, ast.AST]:
        cached = self._parent_cache.get(info.key)
        if cached is None:
            cached = {}
            for parent in ast.walk(info.node):
                for child in ast.iter_child_nodes(parent):
                    cached[id(child)] = parent
            self._parent_cache[info.key] = cached
        return cached


def _self_attr_assignment(
    node: ast.AST,
) -> tuple[str | None, ast.expr | None]:
    """(attr, value) when ``node`` assigns ``self.<attr>``; else (None, None)."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target: ast.expr = node.targets[0]
        value: ast.expr | None = node.value
    elif isinstance(node, ast.AnnAssign):
        target, value = node.target, node.value
    else:
        return None, None
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr, value
    return None, None
