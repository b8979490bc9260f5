"""Runtime lock-order sanitizer.

Production code constructs its locks through the :func:`new_lock` /
:func:`new_rlock` / :func:`new_condition` seam.  When a
:class:`LockWatcher` is installed those factories return *watched*
wrappers that record the actual acquisition order per thread; with no
watcher installed they return plain ``threading`` primitives -- zero
overhead, no monkeypatching.

A watcher accumulates the observed edge set ``(outer lock, inner lock)``
with an acquisition count per edge, and :meth:`LockWatcher.check` raises
:class:`LockOrderError` on any lock-order cycle over that set.  Every
test session installs a watcher (``tests/conftest.py``) and checks it at
teardown, so the serve / backends / journal suites double as lock-order
chaos runs.

Lock names follow the ``ClassName.attr`` convention (e.g.
``AdmissionQueue._cond``).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from types import TracebackType
from typing import Any


class LockOrderError(RuntimeError):
    """Observed lock-order cycle."""


class LockWatcher:
    """Records per-thread lock acquisition order."""

    def __init__(self) -> None:
        self._mu = threading.Lock()
        #: (outer name, inner name) -> observation count.
        self._edges: dict[tuple[str, str], int] = {}
        self._tls = threading.local()

    # -- recording (called by the watched wrappers) ---------------------------

    def _stack(self) -> list[str]:
        stack: list[str] | None = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def note_acquired(self, name: str) -> None:
        stack = self._stack()
        new_edges = [(held, name) for held in stack if held != name]
        stack.append(name)
        if new_edges:
            with self._mu:
                for edge in new_edges:
                    self._edges[edge] = self._edges.get(edge, 0) + 1

    def note_released(self, name: str) -> None:
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == name:
                del stack[i]
                return

    # -- inspection -----------------------------------------------------------

    def edges(self) -> set[tuple[str, str]]:
        with self._mu:
            return set(self._edges)

    def edge_counts(self) -> dict[tuple[str, str], int]:
        with self._mu:
            return dict(self._edges)

    def cycles(self) -> list[list[str]]:
        """Lock-order cycles in the observed edge set (sorted SCCs)."""
        return find_cycles(self.edges())

    def check(self) -> None:
        """Raise :class:`LockOrderError` on any observed cycle."""
        problems = [
            "lock-order cycle observed: " + " -> ".join([*cycle, cycle[0]])
            for cycle in self.cycles()
        ]
        if problems:
            raise LockOrderError("; ".join(problems))


def find_cycles(edges: set[tuple[str, str]]) -> list[list[str]]:
    """Non-trivial strongly connected components of a lock-order graph.

    Each cycle is returned as a sorted node list; the result is sorted
    for determinism.
    """
    graph: dict[str, list[str]] = {}
    nodes: set[str] = set()
    for src, dst in edges:
        graph.setdefault(src, []).append(dst)
        nodes.add(src)
        nodes.add(dst)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    sccs: list[list[str]] = []

    for start in sorted(nodes):
        if start in index:
            continue
        # Iterative Tarjan: (node, iterator position) frames.
        work: list[tuple[str, int]] = [(start, 0)]
        while work:
            node, pos = work.pop()
            if pos == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            children = sorted(graph.get(node, []))
            advanced = False
            for i in range(pos, len(children)):
                child = children[i]
                if child not in index:
                    work.append((node, i + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            if low[node] == index[node]:
                component: list[str] = []
                while True:
                    popped = stack.pop()
                    on_stack.discard(popped)
                    component.append(popped)
                    if popped == node:
                        break
                if len(component) > 1 or (node, node) in edges:
                    sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sorted(sccs)


class _WatchedLock:
    """A named ``Lock``/``RLock`` reporting to a :class:`LockWatcher`."""

    def __init__(self, name: str, watcher: LockWatcher, inner: Any) -> None:
        self.name = name
        self._watcher = watcher
        self._inner = inner

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._watcher.note_acquired(self.name)
        return ok

    def release(self) -> None:
        self._watcher.note_released(self.name)
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.release()


class _WatchedCondition:
    """A named ``Condition`` reporting acquire/release to the watcher.

    ``wait`` / ``notify`` delegate to the wrapped condition; the
    internal release-and-reacquire inside ``wait`` is not re-reported
    (the thread still logically holds its place in the lock order).
    """

    def __init__(
        self, name: str, watcher: LockWatcher, inner: threading.Condition
    ) -> None:
        self.name = name
        self._watcher = watcher
        self._inner = inner

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._watcher.note_acquired(self.name)
        return ok

    def release(self) -> None:
        self._watcher.note_released(self.name)
        self._inner.release()

    def __enter__(self) -> bool:
        self._inner.__enter__()
        self._watcher.note_acquired(self.name)
        return True

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self._watcher.note_released(self.name)
        self._inner.__exit__(exc_type, exc, tb)

    def wait(self, timeout: float | None = None) -> bool:
        return self._inner.wait(timeout)

    def wait_for(
        self, predicate: Callable[[], bool], timeout: float | None = None
    ) -> bool:
        return self._inner.wait_for(predicate, timeout)

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()


_active: LockWatcher | None = None
_active_mu = threading.Lock()


def install_watcher(watcher: LockWatcher) -> None:
    """Make ``watcher`` the process-wide watcher for new locks.

    Only locks constructed *after* installation are watched; existing
    primitives are untouched (no monkeypatching).
    """
    global _active
    with _active_mu:
        if _active is not None:
            raise RuntimeError("a LockWatcher is already installed")
        _active = watcher


def uninstall_watcher() -> None:
    global _active
    with _active_mu:
        _active = None


def active_watcher() -> LockWatcher | None:
    return _active


@contextmanager
def watching(watcher: LockWatcher) -> Iterator[LockWatcher]:
    """Install ``watcher`` for the duration of the block."""
    install_watcher(watcher)
    try:
        yield watcher
    finally:
        uninstall_watcher()


def new_lock(name: str) -> threading.Lock | _WatchedLock:
    """A ``threading.Lock``, watched when a watcher is installed."""
    watcher = _active
    if watcher is None:
        return threading.Lock()
    return _WatchedLock(name, watcher, threading.Lock())


def new_rlock(name: str) -> Any:
    """A ``threading.RLock``, watched when a watcher is installed.

    Reentrant re-acquisition records no self-edge: the wrapper only adds
    edges between *distinct* lock names.
    """
    watcher = _active
    if watcher is None:
        return threading.RLock()
    return _WatchedLock(name, watcher, threading.RLock())


def new_condition(name: str) -> threading.Condition | _WatchedCondition:
    """A ``threading.Condition``, watched when a watcher is installed."""
    watcher = _active
    if watcher is None:
        return threading.Condition()
    return _WatchedCondition(name, watcher, threading.Condition())
