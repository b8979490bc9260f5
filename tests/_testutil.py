"""Shared non-fixture helpers for the test suite."""

from __future__ import annotations

from pathlib import Path

import repro
from repro.core import Job

#: The ``src/`` of the repro package under test (a planted copy in the
#: mutation audit), which the tests' subprocesses must run too.
SRC_UNDER_TEST = Path(repro.__file__).resolve().parents[1]


def random_classical_jobs(rng, n, horizon=8.0):
    """Seeded random classical jobs used across many test modules."""
    jobs = []
    for i in range(n):
        r = float(rng.uniform(0, horizon))
        span = float(rng.uniform(0.3, 3.0))
        w = float(rng.uniform(0.1, 4.0))
        jobs.append(Job(r, r + span, w, f"r{i}"))
    return jobs


class SpyLock:
    """A stand-in for an object's lock that knows whether it is held.

    Swap it in for the lock, then assert ``held`` in an override of a
    method that must only run under that lock.
    """

    held = False

    def __enter__(self):
        self.held = True

    def __exit__(self, *exc_info):
        self.held = False
