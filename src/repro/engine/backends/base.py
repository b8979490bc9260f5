"""The :class:`Backend` protocol: where hardened tasks actually run.

A backend owns execution *capacity* (worker processes, sockets, nothing
at all); the hardened driver in :mod:`repro.engine.runner` owns execution
*policy* (deadlines, retries, rebuild-then-degrade).  The split contract:

* :meth:`Backend.submit` dispatches one attempt and returns a
  :class:`concurrent.futures.Future` handle resolving to the worker's
  outcome dict.  Handles being real futures is part of the protocol —
  the driver calls ``handle.done()`` and waits on them with
  :func:`concurrent.futures.wait`.
* :meth:`Backend.result` collects a completed handle.  Transport-level
  loss of the whole backend surfaces as :class:`BackendBroken` (from
  ``submit`` or ``result``); the driver maps it onto the existing
  rebuild-once-then-degrade escalation.
* :meth:`Backend.cancel` tries to stop a scheduled attempt.  ``False``
  means the task is already running and cannot be preempted: its worker
  stays pinned and :meth:`Backend.free_slots` shrinks accordingly until
  the backend is killed or the worker comes back.
* :meth:`Backend.drain` blocks until at least one handle completes
  (``FIRST_COMPLETED`` semantics, bounded by ``timeout``).
* :meth:`Backend.release` ends one batch (the backend stays reusable);
  :meth:`Backend.close` tears capacity down.  ``kill=True`` on either
  means "do not wait for hung workers".

Implementations must stay deterministic: no wall-clock reads, no
unseeded randomness — scheduling jitter never reaches report payloads.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, wait
from typing import Any

#: Valid backend kinds of a ``--backend`` spec string.
BACKEND_KINDS = ("serial", "pool", "remote")


class BackendBroken(RuntimeError):
    """The backend lost its execution capacity mid-batch.

    The driver treats this exactly like a :class:`BrokenProcessPool`
    from the legacy pool: every in-flight task counts a crashed attempt,
    the backend is closed and reopened once, and a second break degrades
    the run to in-process serial execution.
    """


class Backend:
    """Base class of the execution backends (see module docstring)."""

    #: Human name, used in error messages and ``repr``.
    name: str = "backend"

    #: Bounded backends cannot queue work beyond their workers: the
    #: driver caps submissions at :meth:`free_slots` even without a task
    #: deadline (the local pool only does so when a deadline is set,
    #: because executor-queue wait would count against it).
    bounded: bool = False

    def ensure_open(self) -> None:
        """(Re)acquire capacity before a batch or after :meth:`close`.

        Raises :class:`BackendBroken` when no capacity is reachable.
        """

    def submit(
        self,
        fn: Callable[..., dict[str, Any]],
        args: Sequence[Any],
        task: Any | None = None,
    ) -> Future:
        """Dispatch one attempt of ``fn(*args)``; returns its handle.

        ``task`` is the driver's :class:`~repro.engine.runner.HardenedTask`
        — backends may read advisory fields (``task_key``, ``publish``)
        but must not mutate it.
        """
        raise NotImplementedError

    def result(self, handle: Future) -> dict[str, Any]:
        """The outcome dict of a completed handle.

        Raises :class:`BackendBroken` when the completion reports the
        backend itself died rather than the task failing.
        """
        raise NotImplementedError

    def cancel(self, handle: Future) -> bool:
        """Try to stop an attempt; ``False`` == running and now pinned."""
        raise NotImplementedError

    def drain(
        self, handles: Collection[Future], timeout: float | None
    ) -> set[Future]:
        """Handles completed after waiting at most ``timeout`` seconds."""
        done, _pending = wait(
            set(handles), timeout=timeout, return_when=FIRST_COMPLETED
        )
        return done

    def free_slots(self) -> int | None:
        """How many attempts may run concurrently right now.

        ``None`` means unbounded (the driver falls back to its own
        ``max_inflight`` limit alone).  Pinned (hung) workers do not
        count.
        """
        return None

    def release(self, kill: bool = False) -> None:
        """End one batch; the backend must accept a later ``ensure_open``."""

    def close(self, kill: bool = False) -> None:
        """Tear capacity down (idempotent); ``ensure_open`` may reopen."""

    def __enter__(self) -> Backend:
        self.ensure_open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


def parse_backend_spec(spec: str) -> tuple[str, tuple[str, ...]]:
    """Validate a ``--backend`` spec into ``(kind, worker entries)``.

    ``serial`` and ``pool`` take no arguments.  ``remote:`` is followed
    by a comma-separated worker list where each entry is ``HOST:PORT``
    or ``@FILE`` (a ``qbss-worker --port-file`` to read at connect
    time).  Raises :class:`ValueError` on anything else — the CLIs turn
    that into an argparse error.
    """
    kind, sep, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in BACKEND_KINDS:
        raise ValueError(
            f"unknown backend {kind!r} (one of: {', '.join(BACKEND_KINDS)})"
        )
    if kind in ("serial", "pool"):
        if sep:
            raise ValueError(f"backend {kind!r} takes no arguments, got {spec!r}")
        return kind, ()
    entries = tuple(e.strip() for e in rest.split(",") if e.strip())
    if not entries:
        raise ValueError(
            "remote backend needs at least one worker: "
            "remote:HOST:PORT[,HOST:PORT...] (or @FILE port-file entries)"
        )
    for entry in entries:
        if not entry.startswith("@") and ":" not in entry:
            raise ValueError(
                f"remote worker entry {entry!r} must be HOST:PORT or @FILE"
            )
    return kind, entries


def create_backend(spec: str | Backend | None) -> Backend | None:
    """Instantiate the backend a spec string names.

    ``None``, ``"pool"`` and ``"serial"`` all return ``None``: the
    driver's built-in default, which is the hardened local pool for
    ``jobs > 1`` and inline serial execution otherwise — exactly the
    pre-protocol behavior, sized per call.  ``"serial"`` pins that size
    at one worker (:attr:`ExecutionSession.pool_jobs
    <repro.engine.session.ExecutionSession.pool_jobs>` reads 1 under
    it).  A :class:`Backend` instance passes through untouched.
    """
    if spec is None or isinstance(spec, Backend):
        return spec
    kind, entries = parse_backend_spec(spec)
    if kind in ("pool", "serial"):
        return None
    from .remote import RemoteBackend

    return RemoteBackend(entries)
