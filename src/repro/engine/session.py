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
lookup (:meth:`ExecutionSession.cache_lookup`) and the retry-then-warn
write with the fault plan's corrupt/torn hooks
(:meth:`ExecutionSession.cache_put`) serve both entry points.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any
from collections.abc import Callable, Iterable

from .backends.base import Backend, create_backend, parse_backend_spec
from .cache import ResultCache
from .faults import (
    FaultPlan,
    RetryPolicy,
    active_fault_plan,
    corrupt_cache_entry,
    torn_write_entry,
)
from .runner import (
    ExecutionStats,
    HardenedTask,
    execute_hardened,
    resolve_jobs,
)


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
        """The resolved concrete worker count (>= 1)."""
        return resolve_jobs(self.jobs)

    @property
    def retry_policy(self) -> RetryPolicy:
        """The retry policy, defaulted (never ``None``)."""
        return self.retry if self.retry is not None else RetryPolicy()

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

    def cache_put(
        self,
        task: HardenedTask,
        key: str,
        experiment: str,
        params: dict[str, Any],
        payload: dict[str, Any],
        wall: float,
    ) -> None:
        """Write one result into :attr:`store`; a failed write never fails
        the run.

        An :class:`OSError` is retried under :attr:`retry_policy`; once the
        attempts are spent the write is skipped with a
        :class:`RuntimeWarning` and the run continues uncached.  A written
        entry then gets the active fault plan's ``corrupt-cache`` /
        ``torn-write`` hooks at ``task``'s coordinates.  Only valid while
        caching is on.
        """
        store = self.store
        retry = self.retry_policy
        attempt = 1
        while True:
            try:
                path = store.put(
                    key, experiment, params, payload, wall, self.package_version
                )
                break
            except OSError as exc:
                if attempt >= retry.max_attempts:
                    warnings.warn(
                        f"cache write for {task.task_key!r} failed after "
                        f"{attempt} attempt(s) ({exc}); continuing uncached",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    return
                delay = retry.delay(f"{task.task_key}:cache-put", attempt)
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
        plan = self.fault_plan if self.fault_plan is not None else active_fault_plan()
        if plan is not None:
            if plan.wants_corrupt_cache(task.task_key, task.attempt):
                corrupt_cache_entry(path)
            if plan.wants_torn_write(task.task_key, task.attempt):
                torn_write_entry(path)

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
        on_failure: Callable[[HardenedTask, str, str | None], None],
        jobs: int | None = None,
        max_inflight: int | None = None,
        trace_parent: Any | None = None,
    ) -> ExecutionStats:
        """Run ``tasks`` under this session's hardening and observability.

        Thin wrapper over :func:`~repro.engine.runner.execute_hardened`
        with the session supplying pool size, retry policy, deadline and
        tracer.  ``jobs`` overrides the pool size for this call only (the
        engine shrinks it to the task count).
        """
        self._check_open()
        return execute_hardened(
            tasks,
            worker=worker,
            payload=payload,
            on_success=on_success,
            on_failure=on_failure,
            jobs=self.pool_jobs if jobs is None else jobs,
            retry=self.retry_policy,
            task_timeout=self.task_timeout,
            max_inflight=max_inflight,
            tracer=self.tracer,
            trace_parent=trace_parent,
            backend=self.execution_backend,
        )

