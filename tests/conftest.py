"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core import Instance, Job, PowerFunction, QBSSInstance, QJob

#: ``--hypothesis-profile=oracles``: ten times every oracle's example
#: budget (``tests/_budget.py``), no deadline, and a fresh search each run,
#: for the CI ``oracles`` job that searches the near-EPS, 2^24-origin and
#: forced-fallback families.  It is not named ``ci``: with ``CI`` set,
#: Hypothesis loads its own ``ci`` profile at import, and registering that
#: name again would replace the active profile of every CI run.
settings.register_profile(
    "oracles", max_examples=1000, deadline=None, derandomize=False
)


@pytest.fixture(autouse=True, scope="session")
def _lockwatch_sanitizer():
    """Lock-order sanitizer for the whole session.

    Every lock constructed through the :mod:`repro.obs.lockwatch` seam
    (the serve daemon, the journal, the TCP backend) is watched, and
    teardown fails the run on any observed lock-order cycle, so every
    suite that drives those components doubles as a lock-order chaos run.
    """
    from repro.obs import lockwatch

    watcher = lockwatch.LockWatcher()
    lockwatch.install_watcher(watcher)
    try:
        yield
    finally:
        lockwatch.uninstall_watcher()
        watcher.check()


@pytest.fixture
def power3() -> PowerFunction:
    return PowerFunction(3.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def simple_jobs():
    """Three classical jobs with overlapping windows."""
    return [
        Job(0.0, 1.0, 2.0, "a"),
        Job(0.0, 2.0, 1.0, "b"),
        Job(1.5, 3.0, 4.0, "c"),
    ]


@pytest.fixture
def simple_instance(simple_jobs) -> Instance:
    return Instance(simple_jobs)


@pytest.fixture
def qjob() -> QJob:
    return QJob(0.0, 4.0, 0.5, 3.0, 1.0, "q")


@pytest.fixture
def common_window_qinstance() -> QBSSInstance:
    """Four QBSS jobs sharing the window (0, 8]."""
    triples = [(1.0, 4.0, 2.0), (3.0, 4.0, 4.0), (0.5, 5.0, 0.2), (2.0, 2.5, 1.0)]
    return QBSSInstance(
        [QJob(0.0, 8.0, c, w, ws, f"j{i}") for i, (c, w, ws) in enumerate(triples)]
    )


# shared non-fixture helpers live in tests/_testutil.py (unique module name
# so running tests/ and benchmarks/ in one pytest session cannot collide)
