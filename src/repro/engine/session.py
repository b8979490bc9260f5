"""Execution sessions: one object owning the engine's execution context.

Every entry point that runs hardened work —
:func:`repro.engine.runner.run_experiments`,
:func:`repro.traces.replay.replay_jobs` and
:func:`~repro.traces.replay.replay_trace` — takes its execution context
through one ``session=`` argument: pool size, cache toggle and directory,
package version, deadline, retry policy, fault plan, tracer, metrics and
backend.  Construct one :class:`ExecutionSession`, hand it to any number of
runs, and the pool configuration, cache handle and observability sinks are
shared — the shape a long-lived ``qbss-serve`` process needs, where a
single session must outlive many requests.

The session is also the one place cache decisions are made: the traced
lookup (:meth:`ExecutionSession.cache_lookup`), the cache-write spec a
task carries (:meth:`ExecutionSession.cache_entry`) and the
retry-then-warn write with the fault plan's corrupt/torn hooks
(:meth:`ExecutionSession.cache_put`) serve both entry points.  So is
the fault plan: :attr:`ExecutionSession.active_fault_plan` resolves it
once, and :meth:`ExecutionSession.execute` hands it to every task as an
argument.

While :meth:`ExecutionSession.execute` runs tasks out of process, the
driver's cache writes go to one background thread, so the fsyncs overlap
the dispatch loop; ``execute`` drains it before it returns (and before a
broken pool is rebuilt, since a fork must not copy a live thread).
"""

from __future__ import annotations

import threading
import time
import warnings
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any
from collections.abc import Callable, Iterable, Iterator

from .backends.base import Backend, create_backend, parse_backend_spec
from .cache import ResultCache
from .faults import (
    FailureInfo,
    FaultPlan,
    RetryPolicy,
    corrupt_cache_entry,
    torn_write_entry,
)
from .runner import (
    ExecutionStats,
    HardenedTask,
    execute_hardened,
    resolve_jobs,
)

#: The name of the thread that writes a run's cache entries.
WRITER_THREAD_NAME = "qbss-cache-writer"

#: One deferred cache write: returns the warning text of a write whose
#: attempts were all spent, ``None`` once the entry landed.
CacheWrite = Callable[[], str | None]


class _CacheWriter:
    """One thread running cache writes behind the dispatch loop.

    The thread starts with the writer.  :meth:`close` lets the queue run
    dry, joins the thread and then, in the caller's thread, warns once
    per write that kept failing and re-raises the first error a write
    raised.
    """

    def __init__(self) -> None:
        from ..obs import lockwatch

        self._cond = lockwatch.new_condition("_CacheWriter._cond")
        self._queue: deque[CacheWrite] = deque()
        self._failures: list[str] = []
        self._error: Exception | None = None
        self._closing = False
        self._thread = threading.Thread(target=self._run, name=WRITER_THREAD_NAME)
        self._thread.start()

    def submit(self, write: CacheWrite) -> None:
        with self._cond:
            self._queue.append(write)
            self._cond.notify()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closing:
                    self._cond.wait()
                if not self._queue:
                    return
                write = self._queue.popleft()
            try:
                failure = write()
            except Exception as exc:  # re-raised by close()
                with self._cond:
                    if self._error is None:
                        self._error = exc
                continue
            if failure is not None:
                with self._cond:
                    self._failures.append(failure)

    def close(self) -> None:
        with self._cond:
            self._closing = True
            self._cond.notify()
        self._thread.join()
        for message in self._failures:
            warnings.warn(message, RuntimeWarning, stacklevel=4)
        if self._error is not None:
            raise self._error


@dataclass
class ExecutionSession:
    """The execution context shared by engine and replay runs.

    Fields:

    * ``jobs`` — pool size request (``int``, ``0``/``"auto"`` = per-CPU);
    * ``cache``/``cache_dir``/``package_version`` — the content-addressed
      :class:`~repro.engine.cache.ResultCache` configuration;
    * ``task_timeout``/``retry``/``fault_plan`` — the hardening layer;
    * ``tracer``/``metrics`` — the observability sinks
      (:class:`repro.obs.Tracer` / :class:`repro.obs.MetricsRegistry`);
    * ``backend`` — where tasks execute: a spec string (``"serial"``,
      ``"pool"``, ``"remote:HOST:PORT[,...]"``), a constructed
      :class:`~repro.engine.backends.Backend`, or ``None`` for the
      default local pool (see :mod:`repro.engine.backends`).
      ``"serial"`` is the local default at one worker: :attr:`pool_jobs`
      reads 1 whatever ``jobs`` asks for.

    The cache handle is created lazily on first use and then reused for
    the session's lifetime, so warm lookups across consecutive runs share
    one store (and one quarantine tally — callers measure deltas).

    Long-lived holders (``qbss-serve``) retire a session with
    :meth:`close` — idempotent, after which :meth:`execute` and
    :attr:`store` raise :class:`RuntimeError` — or use the session as a
    context manager.
    """

    jobs: int | str = 1
    cache: bool = True
    cache_dir: str | Path | None = None
    package_version: str | None = None
    task_timeout: float | None = None
    retry: RetryPolicy | None = None
    fault_plan: FaultPlan | None = None
    tracer: Any | None = None
    metrics: Any | None = None
    backend: str | Backend | None = None

    def __post_init__(self) -> None:
        resolve_jobs(self.jobs)  # fail fast on malformed requests
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be > 0, got {self.task_timeout}"
            )
        if isinstance(self.backend, str):
            parse_backend_spec(self.backend)  # fail fast on malformed specs
        self._store: ResultCache | None = None
        self._backend: Backend | None = None
        self._backend_resolved: bool = False
        self._closed: bool = False
        #: Whether :meth:`cache_put` defers writes to a :class:`_CacheWriter`
        #: (only while :meth:`execute` runs tasks out of process).
        self._write_behind: bool = False
        self._writer: _CacheWriter | None = None

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Retire the session.  Idempotent; drops the cache handle.

        A closed session refuses further work (:meth:`execute` and
        :attr:`store` raise :class:`RuntimeError`) so lifecycle bugs in
        long-lived holders surface as clear errors, not stale-handle
        corruption.
        """
        self._closed = True
        self._store = None
        if self._backend is not None:
            self._backend.close()
            self._backend = None
        self._backend_resolved = False

    def __enter__(self) -> ExecutionSession:
        self._check_open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "ExecutionSession is closed; submitting work to a closed "
                "session is a bug — create a new session instead"
            )

    @property
    def pool_jobs(self) -> int:
        """The resolved concrete worker count (>= 1; 1 under ``"serial"``)."""
        if (
            isinstance(self.backend, str)
            and parse_backend_spec(self.backend)[0] == "serial"
        ):
            return 1
        return resolve_jobs(self.jobs)

    @property
    def retry_policy(self) -> RetryPolicy:
        """The retry policy, defaulted (never ``None``)."""
        return self.retry if self.retry is not None else RetryPolicy()

    @property
    def active_fault_plan(self) -> FaultPlan | None:
        """The fault plan this session's work runs under: :attr:`fault_plan`
        when set, else the one exported in ``QBSS_FAULT_PLAN`` (``None``
        when neither is).  :meth:`execute` hands it to every task."""
        if self.fault_plan is not None:
            return self.fault_plan
        return FaultPlan.from_env()

    @property
    def store(self) -> ResultCache | None:
        """The session's result cache (lazy; ``None`` when caching is off)."""
        self._check_open()
        if not self.cache:
            return None
        if self._store is None:
            self._store = ResultCache(self.cache_dir, metrics=self.metrics)
        return self._store

    def cache_lookup(
        self, key: str, *, task: str, parent: Any | None = None
    ) -> tuple[dict[str, Any] | None, int]:
        """Read ``key`` from :attr:`store` inside a ``cache-lookup`` span.

        Returns ``(entry, quarantined)``: the cached envelope (``None`` on a
        miss) and how many corrupt entries this lookup moved aside, each
        also traced as a ``cache_quarantine`` event under the lookup span.
        Only valid while caching is on.
        """
        store = self.store
        tracer = self.tracer
        before = store.quarantined
        span = (
            tracer.begin("cache-lookup", parent, task=task)
            if tracer is not None
            else None
        )
        entry = store.get(key)
        quarantined = store.quarantined - before
        if tracer is not None:
            for _ in range(quarantined):
                tracer.event("cache_quarantine", span, task=task)
            tracer.end(span, result="hit" if entry is not None else "miss")
        return entry, quarantined

    def cache_entry(
        self, key: str, experiment: str, params: dict[str, Any]
    ) -> dict[str, Any]:
        """The cache-write spec of one task (its :attr:`HardenedTask.publish`).

        :meth:`cache_put` writes from it after a success, and a remote
        ``qbss-worker`` publishes from it into the shared store before
        replying, so both writes produce the same envelope.
        """
        return {
            "key": key,
            "experiment": experiment,
            "params": params,
            "package_version": self.package_version,
        }

    def cache_put(
        self,
        task: HardenedTask,
        payload: dict[str, Any],
        wall: float,
        *,
        published: bool = False,
    ) -> None:
        """Write ``task``'s result into :attr:`store` under its
        :meth:`cache_entry` spec; a failed write never fails the run.

        ``published`` says a remote ``qbss-worker`` already wrote the same
        envelope from the same spec (its outcome's ``published`` mark):
        when that entry is in :attr:`store` (a shared cache directory), it
        is not written again.  Otherwise an :class:`OSError` is retried
        under :attr:`retry_policy`; once the attempts are spent the write
        is skipped with a :class:`RuntimeWarning` and the run continues
        uncached.  The entry, whichever process wrote it, then gets
        :attr:`active_fault_plan`'s ``corrupt-cache`` / ``torn-write``
        hooks at ``task``'s coordinates.  Only valid while caching is on.

        Inside an :meth:`execute` that runs tasks out of process, the
        write and its hooks run on the session's writer thread and any
        warning comes when ``execute`` drains it; everywhere else they run
        inline.
        """
        store = self.store
        spec = task.publish
        assert spec is not None, "cache_put needs the task's cache_entry spec"
        plan = self.active_fault_plan
        path = store.path_for(spec["key"])
        if published and path.is_file():
            _apply_fault_hooks(plan, task.task_key, task.attempt, path)
            return
        write = partial(
            self._write_entry, plan, task.task_key, task.attempt, spec, payload, wall
        )
        if not self._write_behind:
            failure = write()
            if failure is not None:
                warnings.warn(failure, RuntimeWarning, stacklevel=2)
            return
        if self._writer is None:
            if self.metrics is not None:
                # The base registry is single-writer: create the series
                # the writer thread bumps here, on the driver thread.
                self.metrics.counter("qbss_cache_writes_total")
            self._writer = _CacheWriter()
        self._writer.submit(write)

    def _write_entry(
        self,
        plan: FaultPlan | None,
        task_key: str,
        attempt: int,
        spec: dict[str, Any],
        payload: dict[str, Any],
        wall: float,
    ) -> str | None:
        """:meth:`ResultCache.put` under :attr:`retry_policy`, then the
        fault hooks; the warning text once the attempts are spent."""
        store = self.store
        retry = self.retry_policy
        tries = 1
        while True:
            try:
                path = store.put(
                    spec["key"],
                    spec["experiment"],
                    spec["params"],
                    payload,
                    wall,
                    spec["package_version"],
                )
                break
            except OSError as exc:
                if tries >= retry.max_attempts:
                    return (
                        f"cache write for {task_key!r} failed after "
                        f"{tries} attempt(s) ({exc}); continuing uncached"
                    )
                delay = retry.delay(f"{task_key}:cache-put", tries)
                if delay > 0:
                    time.sleep(delay)
                tries += 1
        _apply_fault_hooks(plan, task_key, attempt, path)
        return None

    def _drain_writes(self) -> None:
        """Stop the writer thread once every queued write has run; its
        warnings and errors surface here, in the caller's thread."""
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()

    @contextmanager
    def batch(self, stats: ExecutionStats, **attrs: Any) -> Iterator[Any]:
        """Bracket one run: its ``batch`` span and quarantine tally.

        Opens a ``batch`` span with ``attrs`` and yields it (``None``
        without a tracer).  On a normal exit it sets ``stats.quarantined``
        to the corrupt cache entries the run moved aside, then closes the
        span with ``stats.batch_attrs()``.
        """
        store = self.store
        before = store.quarantined if store is not None else 0
        tracer = self.tracer
        span = tracer.begin("batch", **attrs) if tracer is not None else None
        yield span
        if store is not None:
            stats.quarantined = store.quarantined - before
        if tracer is not None:
            tracer.end(span, **stats.batch_attrs())

    @property
    def execution_backend(self) -> Backend | None:
        """The resolved :class:`Backend` (lazy; ``None`` = built-in pool).

        A spec string is instantiated once and reused across runs — for
        the remote backend that keeps worker connections warm between
        batches (idle links survive :meth:`Backend.release`), mirroring
        how the cache handle is shared.
        """
        self._check_open()
        if not self._backend_resolved:
            self._backend = create_backend(self.backend)
            self._backend_resolved = True
        return self._backend

    def execute(
        self,
        tasks: Iterable[HardenedTask],
        *,
        worker: Callable[..., dict[str, Any]],
        payload: Callable[[HardenedTask], tuple],
        on_success: Callable[[HardenedTask, dict[str, Any], bool], None],
        on_failure: Callable[[HardenedTask, FailureInfo], None],
        jobs: int | None = None,
        max_inflight: int | None = None,
        trace_parent: Any | None = None,
        stats: ExecutionStats | None = None,
    ) -> ExecutionStats:
        """Run ``tasks`` under this session's hardening and observability.

        Thin wrapper over :func:`~repro.engine.runner.execute_hardened`
        with the session supplying pool size, retry policy, deadline and
        tracer.  Every task's arguments end with :attr:`active_fault_plan`,
        resolved once here: ``worker`` is called as
        ``worker(*payload(task), plan, task.attempt)``.  ``jobs``
        overrides the pool size for this call only (the engine shrinks it
        to the task count); ``stats`` is the record the driver fills.

        When the tasks run out of process (a pool of ``jobs > 1``, or a
        backend), :meth:`cache_put` hands its writes to a writer thread
        started at the first one.  It is drained before a broken pool is
        rebuilt and before this call returns or raises, so every write
        the run started has landed or warned by then.
        """
        self._check_open()
        plan = self.active_fault_plan
        jobs = self.pool_jobs if jobs is None else jobs
        backend = self.execution_backend
        self._write_behind = self.cache and (backend is not None or jobs > 1)
        try:
            return execute_hardened(
                tasks,
                worker=worker,
                payload=lambda task: (*payload(task), plan),
                on_success=on_success,
                on_failure=on_failure,
                jobs=jobs,
                retry=self.retry_policy,
                task_timeout=self.task_timeout,
                max_inflight=max_inflight,
                tracer=self.tracer,
                trace_parent=trace_parent,
                backend=backend,
                stats=stats,
                before_reopen=self._drain_writes,
            )
        finally:
            self._write_behind = False
            self._drain_writes()


def _apply_fault_hooks(
    plan: FaultPlan | None, task_key: str, attempt: int, path: Path
) -> None:
    """The fault plan's ``corrupt-cache`` / ``torn-write`` hooks on a
    freshly written cache entry."""
    if plan is not None:
        if plan.wants_corrupt_cache(task_key, attempt):
            corrupt_cache_entry(path)
        if plan.wants_torn_write(task_key, attempt):
            torn_write_entry(path)

