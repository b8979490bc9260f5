"""repro.obs.lockwatch: the runtime lock-order sanitizer.

The two-thread cycle test is fully deterministic: the threads run to
completion one after the other (the edge *set* is what matters, not the
interleaving), so the cycle is observed without ever risking an actual
deadlock.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.obs import lockwatch
from repro.obs.lockwatch import (
    LockOrderError,
    LockWatcher,
    find_cycles,
    new_condition,
    new_lock,
    new_rlock,
)


@pytest.fixture(autouse=True)
def _isolated_watcher():
    """Stash the session watcher (installed by ``conftest.py`` for every
    test session) so these tests install their own, then restore it."""
    prior = lockwatch.active_watcher()
    if prior is not None:
        lockwatch.uninstall_watcher()
    yield
    lockwatch.uninstall_watcher()
    if prior is not None:
        lockwatch.install_watcher(prior)


# -- find_cycles -------------------------------------------------------------------


class TestFindCycles:
    def test_acyclic_graph_has_no_cycles(self):
        assert find_cycles({("a", "b"), ("b", "c"), ("a", "c")}) == []

    def test_two_node_cycle(self):
        assert find_cycles({("a", "b"), ("b", "a")}) == [["a", "b"]]

    def test_self_edge_is_a_cycle(self):
        assert find_cycles({("a", "a"), ("a", "b")}) == [["a"]]

    def test_multiple_components_sorted(self):
        edges = {("a", "b"), ("b", "a"), ("x", "y"), ("y", "x"), ("b", "x")}
        assert find_cycles(edges) == [["a", "b"], ["x", "y"]]

    def test_long_chain_is_iterative_not_recursive(self):
        edges = {(f"n{i}", f"n{i + 1}") for i in range(5000)}
        assert find_cycles(edges) == []


# -- the factory seam ---------------------------------------------------------------


def test_production_entry_points_do_not_import_the_linter():
    """The seam lives in ``repro.obs``: qbss-serve, qbss-worker and the
    report/replay CLI load no ``repro.lint`` module."""
    src = Path(__file__).resolve().parent.parent / "src"
    program = (
        "import sys, repro.serve.cli, repro.engine.backends.worker, repro.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == "
        "['repro', 'lint']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", program],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestSeam:
    def test_factories_return_plain_primitives_without_watcher(self):
        lock = new_lock("a")
        assert not isinstance(lock, lockwatch._WatchedLock)
        cond = new_condition("b")
        assert isinstance(cond, threading.Condition)

    def test_factories_return_watched_wrappers_with_watcher(self):
        with lockwatch.watching(LockWatcher()):
            assert isinstance(new_lock("a"), lockwatch._WatchedLock)
            assert isinstance(new_rlock("b"), lockwatch._WatchedLock)
            assert isinstance(new_condition("c"), lockwatch._WatchedCondition)

    def test_double_install_rejected(self):
        with lockwatch.watching(LockWatcher()):
            with pytest.raises(RuntimeError):
                lockwatch.install_watcher(LockWatcher())

    def test_watcher_uninstalled_after_block(self):
        with lockwatch.watching(LockWatcher()) as watcher:
            assert lockwatch.active_watcher() is watcher
        assert lockwatch.active_watcher() is None


# -- edge recording and cycle detection ---------------------------------------------


class TestWatcher:
    def test_nested_acquisition_records_edge(self):
        watcher = LockWatcher()
        with lockwatch.watching(watcher):
            a = new_lock("A")
            b = new_lock("B")
        with a:
            with b:
                pass
        assert watcher.edges() == {("A", "B")}
        assert watcher.edge_counts() == {("A", "B"): 1}
        watcher.check()  # acyclic: no error

    def test_two_thread_cycle_detected_deterministically(self):
        watcher = LockWatcher()
        with lockwatch.watching(watcher):
            a = new_lock("A")
            b = new_lock("B")

        def ab():
            with a:
                with b:
                    pass

        def ba():
            with b:
                with a:
                    pass

        # Serialized: each thread runs to completion before the next
        # starts, so the cycle is observed without any real contention.
        for target in (ab, ba):
            t = threading.Thread(target=target)
            t.start()
            t.join()
        assert watcher.cycles() == [["A", "B"]]
        with pytest.raises(LockOrderError, match="A -> B -> A"):
            watcher.check()

    def test_rlock_reacquisition_is_not_a_self_edge(self):
        watcher = LockWatcher()
        with lockwatch.watching(watcher):
            r = new_rlock("R")
        with r:
            with r:
                pass
        assert watcher.edges() == set()
        watcher.check()

    def test_watched_condition_wait_notify_round_trip(self):
        watcher = LockWatcher()
        with lockwatch.watching(watcher):
            cond = new_condition("C")
        state = {"ready": False}

        def producer():
            with cond:
                state["ready"] = True
                cond.notify_all()

        t = threading.Thread(target=producer)
        with cond:
            t.start()
            assert cond.wait_for(lambda: state["ready"], timeout=5.0)
        t.join()
        watcher.check()
