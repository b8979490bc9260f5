"""The parallel cached experiment engine.

:func:`run_experiments` fans registered experiments out over a
``concurrent.futures`` process pool (``jobs > 1``) or runs them inline
(``jobs = 1``), consulting the content-addressed :class:`ResultCache`
first.  Results come back in input order regardless of completion order,
and every run carries :class:`RunMetrics` (wall time, cache hit/miss, row
count) so reports can show where the time went.

Execution is **fault tolerant** (see :mod:`repro.engine.faults` and
``docs/robustness.md``): every task gets an optional deadline
(``task_timeout``) enforced through future timeouts, transient failures
(worker death, cache I/O errors) are retried under a seeded-deterministic
:class:`~repro.engine.faults.RetryPolicy`, a broken process pool is
rebuilt once and then degraded to in-process serial execution, and corrupt
cache entries are quarantined and recomputed.  A run therefore always
completes with whatever results are attainable; what could not be computed
is recorded as a structured :class:`~repro.engine.faults.FailureInfo`.

Reports are *always* normalised through their JSON payload
(``to_dict``/``from_dict``), so a cold run, a warm cache hit and a
``jobs=4`` run all render byte-identically.
"""

from __future__ import annotations

import heapq
import os
import time
import traceback
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING, Any

from ..analysis.experiments import REGISTRY, ExperimentReport, resolve_kwargs
from .backends.base import Backend, BackendBroken
from .cache import cache_key
from .faults import (
    FailureInfo,
    RetryPolicy,
    TransientError,
    WorkerCrashError,
    active_fault_plan,
    installed_fault_plan,
)

if TYPE_CHECKING:
    from .session import ExecutionSession


def resolve_jobs(jobs: int | str | None) -> int:
    """Normalize a worker-count request to a concrete positive integer.

    ``"auto"`` (case-insensitive) and ``0`` both mean "one worker per
    CPU" (``os.cpu_count()``); ``None`` means serial.  Negative counts
    and unparsable strings raise :class:`ValueError` — the CLIs convert
    that into an argparse error.
    """
    if jobs is None:
        return 1
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text == "auto":
            return os.cpu_count() or 1
        try:
            jobs = int(text)
        except ValueError:
            raise ValueError(
                f"--jobs expects a non-negative integer or 'auto', got {text!r}"
            ) from None
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"--jobs must be >= 0, got {jobs}")
    return jobs


# -- the hardened pool driver -------------------------------------------------------


class HardenedTask:
    """Mutable per-task execution state shared with :func:`execute_hardened`.

    Subsystems subclass or wrap this with their own payload fields; the
    driver only touches ``task_key`` (retry/injection coordinates),
    ``attempt`` (1-based), ``walls`` (per-attempt wall times) and the two
    tracing slots (open ``task`` / ``attempt`` span handles, ``None``
    whenever tracing is off or the span is closed).  ``publish`` is an
    advisory cache-publication spec for backends whose workers write the
    result store themselves (the remote work queue); inline and pool
    execution ignore it.
    """

    __slots__ = ("task_key", "attempt", "walls", "span", "attempt_span", "publish")

    def __init__(self, task_key: str) -> None:
        self.task_key = task_key
        self.attempt = 1
        self.walls: list[float] = []
        self.span = None
        self.attempt_span = None
        self.publish: dict[str, Any] | None = None


@dataclass
class ExecutionStats:
    """What the hardened driver did beyond plain execution."""

    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    degraded: bool = False
    degraded_tasks: list[str] = field(default_factory=list)


class _PoolBroken(Exception):
    """Internal: the current pool died; rebuild or degrade."""


class _PoolHung(Exception):
    """Internal: every worker is pinned by a timed-out task; replace the pool."""


def _crash_outcome(wall: float) -> dict[str, Any]:
    return {
        "ok": False,
        "transient": True,
        "kind": "crash",
        "error": "worker process died unexpectedly (BrokenProcessPool)",
        "wall": wall,
    }


def _shutdown_pool(pool: ProcessPoolExecutor, kill: bool = False) -> None:
    """Shut a pool down; ``kill`` terminates workers (hung or crashed pools)
    instead of waiting for them — a timed-out task must not block exit."""
    if not kill:
        pool.shutdown(wait=True)
        return
    pool.shutdown(wait=False, cancel_futures=True)
    procs = list((getattr(pool, "_processes", None) or {}).values())
    for proc in procs:
        try:
            proc.terminate()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
    for proc in procs:
        try:
            proc.join(timeout=1.0)
        except (OSError, ValueError, AssertionError):  # pragma: no cover
            pass


def execute_hardened(
    tasks: Iterable[HardenedTask],
    *,
    worker: Callable[..., dict[str, Any]],
    payload: Callable[[HardenedTask], tuple],
    on_success: Callable[[HardenedTask, dict[str, Any], bool], None],
    on_failure: Callable[[HardenedTask, str, str | None], None],
    jobs: int = 1,
    retry: RetryPolicy | None = None,
    task_timeout: float | None = None,
    max_inflight: int | None = None,
    tracer: Any | None = None,
    trace_parent: Any | None = None,
    backend: Backend | None = None,
) -> ExecutionStats:
    """Run ``tasks`` through ``worker`` with timeouts, retries and recovery.

    ``worker`` is a picklable module-level callable invoked as
    ``worker(*payload(task), task.attempt)`` and returning an *outcome*
    dict: ``{"ok": True, "payload": ..., "wall": s}`` or ``{"ok": False,
    "error": tb, "transient": bool, "kind": str, "wall": s}`` — worker
    bodies capture their own exceptions so the future itself only raises
    on worker *death*.

    Guarantees, in order of escalation:

    * a transient outcome is retried (after the policy's deterministic
      backoff) until ``retry.max_attempts`` is exhausted; backoff never
      blocks dispatch — a retrying task is parked with an eligibility
      time that is folded into the driver's wait, so other completions
      and deadlines are still serviced while it backs off;
    * with ``task_timeout`` set and ``jobs > 1``, submissions are bounded
      to free workers so queue wait never counts against the deadline; a
      task running past its deadline is cancelled, reported as
      ``kind="timeout"`` (never retried — a hang is presumed
      deterministic) and the batch continues.  A running task cannot be
      preempted, so its worker stays pinned to the hang; capacity shrinks
      accordingly, and when every worker is pinned the pool is replaced
      (counted in ``pool_rebuilds``) so the remaining work gets real
      workers again.  Pools that saw a timeout are killed rather than
      joined on shutdown so hung workers cannot block exit;
    * a :class:`BrokenProcessPool` — whether raised at submission or by a
      completed future — marks **every** in-flight task as a crashed
      attempt and rebuilds the pool **once**; if the rebuilt pool breaks
      too, execution degrades to in-process serial with a
      :class:`RuntimeWarning`, so the run always completes with whatever
      results are attainable.  Every task the fallback runs (carried-over
      and not-yet-pulled alike) is flagged ``degraded`` to ``on_success``.

    ``tasks`` may be a lazy iterator (the replay path streams shards);
    ``max_inflight`` bounds how many are pulled before results drain.
    Serial execution (``jobs <= 1``) cannot preempt a running task, so
    ``task_timeout`` is not enforced there.

    ``backend`` selects *where* attempts run (see
    :mod:`repro.engine.backends`): ``None`` keeps the built-in default —
    a hardened local :class:`~repro.engine.backends.local.PoolBackend`
    of ``jobs`` workers for ``jobs > 1``, inline serial execution
    otherwise.  An ``inline`` backend forces the serial path regardless
    of ``jobs``.  Any other backend runs the same driver loop:
    :class:`~repro.engine.backends.base.BackendBroken` plays the role
    :class:`BrokenProcessPool` plays for the pool (rebuild once, then
    degrade), deadline cancellation pins workers through
    :meth:`~repro.engine.backends.base.Backend.cancel`, and submissions
    are bounded by :meth:`~repro.engine.backends.base.Backend.free_slots`
    when a deadline is set or the backend is ``bounded``.

    ``tracer`` (a :class:`repro.obs.Tracer`, optional) records the span
    taxonomy of ``docs/observability.md``: a ``task`` span per task
    (parented to ``trace_parent``), an ``attempt`` span per execution
    attempt, and point events ``retry`` / ``timeout`` / ``pool_rebuild``
    / ``degraded`` at the moments the matching :class:`ExecutionStats`
    counters move — trace counts and footer counts agree by construction.
    Every emission is guarded by ``tracer is not None``, so a disabled
    tracer costs nothing on the hot path.
    """
    retry = retry or RetryPolicy()
    stats = ExecutionStats()
    stream = iter(tasks)

    def begin_task(task: HardenedTask) -> None:
        if tracer is not None and task.span is None:
            task.span = tracer.begin("task", trace_parent, task=task.task_key)

    def begin_attempt(task: HardenedTask) -> None:
        if tracer is not None:
            task.attempt_span = tracer.begin(
                "attempt", task.span, task=task.task_key, attempt=task.attempt
            )

    def close_spans(task: HardenedTask, status: str) -> None:
        """End the open attempt (if any) and the task span with ``status``."""
        if tracer is None:
            return
        if task.attempt_span is not None:
            tracer.end(task.attempt_span, status=status)
            task.attempt_span = None
        if task.span is not None:
            tracer.end(task.span, status=status, attempts=task.attempt)
            task.span = None

    def settle(task: HardenedTask, outcome: dict[str, Any], degraded: bool) -> float | None:
        """Record an outcome; a float return means retry after that delay."""
        task.walls.append(float(outcome.get("wall", 0.0)))
        if outcome["ok"]:
            close_spans(task, "degraded" if degraded else "ok")
            on_success(task, outcome, degraded)
            if degraded:
                stats.degraded_tasks.append(task.task_key)
            return None
        kind = str(outcome.get("kind", "error"))
        if outcome.get("transient") and task.attempt < retry.max_attempts:
            stats.retries += 1
            delay = retry.delay(task.task_key, task.attempt)
            if tracer is not None:
                if task.attempt_span is not None:
                    tracer.end(task.attempt_span, status=kind)
                    task.attempt_span = None
                tracer.event(
                    "retry",
                    task.span,
                    task=task.task_key,
                    attempt=task.attempt,
                    kind=kind,
                    delay=delay,
                )
            task.attempt += 1
            return delay
        close_spans(task, kind)
        on_failure(task, kind, outcome.get("error"))
        return None

    def run_serial(seq: Iterable[HardenedTask], degraded: bool = False) -> None:
        for task in seq:
            begin_task(task)
            while True:
                begin_attempt(task)
                outcome = worker(*payload(task), task.attempt)
                delay = settle(task, outcome, degraded)
                if delay is None:
                    break
                if delay > 0:
                    time.sleep(delay)

    if backend is not None and backend.inline:
        run_serial(stream)
        return stats
    if backend is None:
        if jobs <= 1:
            run_serial(stream)
            return stats
        from .backends.local import PoolBackend

        backend = PoolBackend(jobs)

    carry: deque = deque()  # tasks ready for (re)submission across rebuilds
    retry_heap: list[tuple] = []  # (eligible_at, seq, task) backoff parking lot
    seq = 0
    limit = max_inflight if max_inflight is not None else float("inf")
    crash_rebuilds = 0
    exhausted = False

    def park(task: HardenedTask, delay: float) -> None:
        """Queue a retry; positive delays wait in the heap, not the loop."""
        nonlocal seq
        if delay > 0:
            heapq.heappush(retry_heap, (time.monotonic() + delay, seq, task))
            seq += 1
        else:
            carry.append(task)

    while True:
        try:
            backend.ensure_open()
        except BackendBroken:
            # No capacity reachable at all (e.g. the whole remote fleet is
            # down): same escalation as a backend that broke mid-batch.
            stats.pool_rebuilds += 1
            crash_rebuilds += 1
            if tracer is not None:
                tracer.event("pool_rebuild", trace_parent, reason="broken")
            if crash_rebuilds > 1:
                stats.degraded = True
                break
            continue
        inflight: dict[Any, tuple] = {}
        saw_timeout = False

        def crash_inflight() -> None:
            # The whole backend is dead: every in-flight task is a crashed
            # attempt (attribution is impossible).
            for _fut, (task, _deadline, t0) in list(inflight.items()):
                outcome = _crash_outcome(time.monotonic() - t0)
                delay = settle(task, outcome, False)
                if delay is not None:
                    park(task, delay)
            inflight.clear()

        def submit(task: HardenedTask) -> None:
            begin_task(task)
            t0 = time.monotonic()
            try:
                fut = backend.submit(
                    worker, (*payload(task), task.attempt), task=task
                )
            except BackendBroken:
                carry.appendleft(task)  # no attempt consumed (no attempt span)
                crash_inflight()
                raise _PoolBroken() from None
            begin_attempt(task)
            deadline = None if task_timeout is None else t0 + task_timeout
            inflight[fut] = (task, deadline, t0)

        try:
            while True:
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    carry.append(heapq.heappop(retry_heap)[2])
                capacity = limit
                if task_timeout is not None or backend.bounded:
                    # A submitted task must hold a free worker immediately —
                    # under a deadline because queue wait would count
                    # against it, on a bounded backend because there is no
                    # queue to wait in.
                    slots = backend.free_slots()
                    if slots is not None:
                        capacity = min(capacity, slots)
                while len(inflight) < capacity and carry:
                    submit(carry.popleft())
                while len(inflight) < capacity and not exhausted and not carry:
                    try:
                        submit(next(stream))
                    except StopIteration:
                        exhausted = True
                if not inflight:
                    if carry or not exhausted:
                        # Submittable work but zero capacity: every worker
                        # is pinned by a hung task.  Replace the backend.
                        raise _PoolHung()
                    if not retry_heap:
                        break
                    # all remaining work is backing off; fall through and
                    # sleep until the first task is eligible again
                wait_timeout = None
                candidates = [
                    d for (_, d, _) in inflight.values() if d is not None
                ]
                if retry_heap:
                    candidates.append(retry_heap[0][0])
                if candidates:
                    wait_timeout = max(0.0, min(candidates) - time.monotonic())
                done = backend.drain(set(inflight), wait_timeout)
                broken = False
                for fut in done:
                    task, _deadline, t0 = inflight.pop(fut)
                    try:
                        outcome = backend.result(fut)
                    except BackendBroken:
                        broken = True
                        outcome = _crash_outcome(time.monotonic() - t0)
                    delay = settle(task, outcome, False)
                    if delay is not None:
                        park(task, delay)
                if broken:
                    crash_inflight()
                    raise _PoolBroken()
                if task_timeout is not None:
                    now = time.monotonic()
                    expired = [
                        fut
                        for fut, (_task, deadline, _t0) in inflight.items()
                        if deadline is not None and now >= deadline and not fut.done()
                    ]
                    for fut in expired:
                        task, _deadline, t0 = inflight.pop(fut)
                        # cancel() cannot stop a running task: its worker
                        # stays pinned (the backend tracks it and shrinks
                        # free_slots) until the backend is replaced.
                        backend.cancel(fut)
                        saw_timeout = True
                        stats.timeouts += 1
                        task.walls.append(now - t0)
                        if tracer is not None:
                            tracer.event(
                                "timeout",
                                task.span,
                                task=task.task_key,
                                attempt=task.attempt,
                                deadline=task_timeout,
                            )
                        close_spans(task, "timeout")
                        on_failure(
                            task,
                            "timeout",
                            f"task exceeded its {task_timeout}s deadline "
                            f"(attempt {task.attempt})",
                        )
            backend.release(kill=saw_timeout)
            return stats
        except _PoolHung:
            # Not a crash: kill the pinned workers and start fresh.
            # Bounded — each hung task times out exactly once, so at most
            # ceil(timeouts / workers) replacements can ever happen.
            backend.close(kill=True)
            stats.pool_rebuilds += 1
            if tracer is not None:
                tracer.event("pool_rebuild", trace_parent, reason="hung")
        except _PoolBroken:
            backend.close(kill=True)
            stats.pool_rebuilds += 1
            crash_rebuilds += 1
            if tracer is not None:
                tracer.event("pool_rebuild", trace_parent, reason="broken")
            if crash_rebuilds > 1:
                stats.degraded = True
                break
        # loop: reopen the backend and keep going

    backend.close(kill=True)

    if tracer is not None:
        tracer.event("degraded", trace_parent)
    warnings.warn(
        "process pool broke twice; degrading to in-process serial execution "
        "for the remaining tasks",
        RuntimeWarning,
        stacklevel=2,
    )
    while retry_heap:
        carry.append(heapq.heappop(retry_heap)[2])
    run_serial(carry, degraded=True)
    run_serial(stream, degraded=True)
    return stats


# -- engine results -----------------------------------------------------------------


@dataclass(frozen=True)
class RunMetrics:
    """Per-experiment execution metrics."""

    experiment: str
    wall_time: float
    cache_hit: bool
    rows: int
    error: str | None = None
    status: str = "ok"  # ok | degraded | error | crash | timeout
    attempts: int = 1
    quarantined: int = 0
    failure: FailureInfo | None = None


@dataclass
class ExperimentRun:
    """One engine-evaluated experiment: report (or error) + metrics."""

    name: str
    params: dict[str, Any]
    report: ExperimentReport | None
    metrics: RunMetrics

    @property
    def ok(self) -> bool:
        return self.report is not None


@dataclass
class EngineResult:
    """All runs of one engine invocation, in input order."""

    runs: list[ExperimentRun]
    jobs: int
    cache_dir: str | None
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    degraded: bool = False
    quarantined: int = 0

    @property
    def reports(self) -> list[ExperimentReport]:
        return [r.report for r in self.runs if r.report is not None]

    @property
    def errors(self) -> list[ExperimentRun]:
        return [r for r in self.runs if not r.ok]

    @property
    def failures(self) -> list[FailureInfo]:
        """Structured failure records, in input order."""
        return [
            r.metrics.failure for r in self.runs if r.metrics.failure is not None
        ]

    @property
    def hits(self) -> int:
        return sum(1 for r in self.runs if r.metrics.cache_hit)

    @property
    def misses(self) -> int:
        return sum(1 for r in self.runs if not r.metrics.cache_hit)

    @property
    def total_wall_time(self) -> float:
        return sum(r.metrics.wall_time for r in self.runs)

    def summary(self) -> dict[str, Any]:
        """The run's health as one JSON-ready dict (CLI + report footers)."""
        return {
            "experiments": len(self.runs),
            "ok": sum(1 for r in self.runs if r.ok),
            "failed": len(self.errors),
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "degraded": self.degraded,
            "quarantined": self.quarantined,
            "failures": [f.to_dict() for f in self.failures],
        }

    def footer(self) -> str:
        """The engine-metrics footer appended to CLI reports."""
        lines = [
            "---- engine " + "-" * 46,
            f"{'experiment':<24} {'wall(s)':>9}  {'status':<8} {'rows':>5}",
        ]
        for run in self.runs:
            m = run.metrics
            if m.failure is not None:
                status = m.failure.kind.upper()
            elif m.cache_hit:
                status = "hit"
            elif m.status == "degraded":
                status = "miss*"
            else:
                status = "miss"
            lines.append(
                f"{m.experiment:<24} {m.wall_time:>9.3f}  {status:<8} {m.rows:>5}"
            )
        cache_note = self.cache_dir if self.cache_dir else "disabled"
        lines.append(
            f"total {self.total_wall_time:.3f}s | {self.hits} hit / "
            f"{self.misses} miss | jobs={self.jobs} | cache: {cache_note}"
        )
        if (
            self.retries
            or self.timeouts
            or self.pool_rebuilds
            or self.degraded
            or self.quarantined
        ):
            lines.append(
                f"recovery: {self.retries} retries | {self.timeouts} timeouts "
                f"| {self.pool_rebuilds} pool rebuilds | "
                f"{self.quarantined} quarantined"
                + (" | DEGRADED to serial" if self.degraded else "")
            )
        for fail in self.failures:
            lines.append(f"failed: {fail.summary_line()}")
        return "\n".join(lines)


def _execute(
    name: str,
    call_kwargs: dict[str, Any],
    task: str | None = None,
    attempt: int = 1,
) -> dict[str, Any]:
    """Worker body: run one experiment, return its JSON payload + timing.

    Must stay a module-level function (pickled by name into pool workers).
    Ordinary exceptions are captured into the outcome so one failing
    experiment cannot take down the whole batch; ``BaseException``
    subclasses that are *not* ``Exception`` (``KeyboardInterrupt``,
    ``SystemExit``) are re-raised so Ctrl-C actually stops a run.  Reads
    the :data:`~repro.engine.faults.FAULT_PLAN_ENV` hook first.
    """
    start = time.perf_counter()
    task = task if task is not None else name
    try:
        plan = active_fault_plan()
        if plan is not None:
            plan.inject(task, attempt)
        report = REGISTRY[name](**call_kwargs)
        return {
            "ok": True,
            "payload": report.to_dict(),
            "wall": time.perf_counter() - start,
        }
    except BaseException as exc:
        if not isinstance(exc, Exception):
            raise  # KeyboardInterrupt / SystemExit must propagate
        return {
            "ok": False,
            "error": traceback.format_exc(limit=8),
            "transient": isinstance(exc, TransientError),
            "kind": "crash" if isinstance(exc, WorkerCrashError) else "error",
            "wall": time.perf_counter() - start,
        }


class _ExperimentTask(HardenedTask):
    __slots__ = ("index", "name", "call_kwargs", "resolved", "key", "quarantined")

    def __init__(
        self,
        index: int,
        name: str,
        call_kwargs: dict[str, Any],
        resolved: dict[str, Any],
        key: str,
    ) -> None:
        super().__init__(name)
        self.index = index
        self.name = name
        self.call_kwargs = call_kwargs
        self.resolved = resolved
        self.key = key
        self.quarantined = 0


def run_experiments(
    names: Sequence[str],
    overrides: dict[str, dict] | None = None,
    *,
    session: "ExecutionSession | None" = None,
) -> EngineResult:
    """Evaluate ``names`` (registry keys), parallel, cached and fault tolerant.

    ``overrides`` maps an experiment name to keyword-argument overrides
    (already validated — see :func:`repro.analysis.experiments.resolve_kwargs`).
    ``session`` (an :class:`~repro.engine.session.ExecutionSession`)
    carries the whole execution context and can be shared across calls
    (one cache handle, one tracer, warm backend links).  ``None`` runs
    under a default ``ExecutionSession()`` built and closed inside the
    call.

    The session's fields decide how the run executes.  ``jobs > 1``
    dispatches cache misses to a process pool; hits are served
    in-process; ``jobs=0`` or ``"auto"`` means one worker per CPU (see
    :func:`resolve_jobs`).  ``cache=False`` bypasses the cache entirely (no
    reads, no writes).  ``package_version`` overrides the version component
    of the cache key (tests use this to exercise invalidation).

    Robustness (see ``docs/robustness.md``): ``task_timeout`` puts a
    deadline on each task (pool mode only); ``retry`` is the
    :class:`RetryPolicy` for transient failures (default: 3 attempts) and
    for cache writes, which are skipped with a :class:`RuntimeWarning`
    rather than failing the run; ``fault_plan`` installs a deterministic
    :class:`~repro.engine.faults.FaultPlan` for the duration of the run
    (tests; equivalently export ``QBSS_FAULT_PLAN``).  ``backend`` selects
    where tasks execute (see ``docs/backends.md``).

    Observability (``docs/observability.md``): ``tracer`` (a
    :class:`repro.obs.Tracer`) records a ``batch`` span containing
    ``cache-lookup`` / ``task`` / ``attempt`` spans and the recovery point
    events; ``metrics`` (a :class:`repro.obs.MetricsRegistry`) receives
    live ``qbss_cache_*`` series plus the run-level counters.  Both are
    optional, cost nothing when omitted, and never touch report payloads —
    outputs are byte-identical with observability on or off.
    """
    if session is None:
        from .session import ExecutionSession

        with ExecutionSession() as owned:
            return run_experiments(names, overrides, session=owned)
    jobs = session.pool_jobs
    package_version = session.package_version
    task_timeout = session.task_timeout
    tracer = session.tracer
    metrics = session.metrics
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")

    store = session.store
    quarantined_before = store.quarantined if store is not None else 0
    tasks: list[_ExperimentTask] = []
    runs: list[ExperimentRun | None] = [None] * len(names)
    batch_span = (
        tracer.begin("batch", experiments=len(names), jobs=jobs)
        if tracer is not None
        else None
    )

    with installed_fault_plan(session.fault_plan):
        for i, name in enumerate(names):
            call_kwargs, resolved, _unused = resolve_kwargs(
                name, (overrides or {}).get(name)
            )
            key = cache_key(name, resolved, package_version)
            if store is not None:
                start = time.perf_counter()
                entry, quarantined = session.cache_lookup(
                    key, task=name, parent=batch_span
                )
                if entry is not None:
                    report = ExperimentReport.from_dict(entry["report"])
                    runs[i] = ExperimentRun(
                        name=name,
                        params=resolved,
                        report=report,
                        metrics=RunMetrics(
                            experiment=name,
                            wall_time=time.perf_counter() - start,
                            cache_hit=True,
                            rows=len(report.rows),
                        ),
                    )
                    continue
            else:
                quarantined = 0
            task = _ExperimentTask(i, name, call_kwargs, resolved, key)
            task.quarantined = quarantined
            if store is not None:
                # Remote workers publish straight into the shared result
                # store by digest; local execution ignores the spec (the
                # driver's own on_success write below covers it).
                task.publish = {
                    "key": key,
                    "experiment": name,
                    "params": resolved,
                    "package_version": package_version,
                    "wrap_status": False,
                }
            tasks.append(task)

        def on_success(
            task: _ExperimentTask, outcome: dict[str, Any], degraded: bool
        ) -> None:
            payload = outcome["payload"]
            report = ExperimentReport.from_dict(payload)
            if store is not None:
                session.cache_put(
                    task, task.key, task.name, task.resolved, payload,
                    outcome["wall"],
                )
            metrics = RunMetrics(
                experiment=task.name,
                wall_time=sum(task.walls),
                cache_hit=False,
                rows=len(report.rows),
                status="degraded" if degraded else "ok",
                attempts=task.attempt,
                quarantined=task.quarantined,
            )
            runs[task.index] = ExperimentRun(task.name, task.resolved, report, metrics)

        def on_failure(
            task: _ExperimentTask, kind: str, error: str | None
        ) -> None:
            failure = FailureInfo(
                task=task.task_key,
                kind=kind,
                attempts=task.attempt,
                wall_times=list(task.walls),
                traceback=error,
            )
            metrics = RunMetrics(
                experiment=task.name,
                wall_time=sum(task.walls),
                cache_hit=False,
                rows=0,
                error=error,
                status=kind,
                attempts=task.attempt,
                quarantined=task.quarantined,
                failure=failure,
            )
            runs[task.index] = ExperimentRun(task.name, task.resolved, None, metrics)

        # A single fast task is cheaper inline — unless a deadline needs a
        # pool to be enforceable.
        effective_jobs = jobs
        if len(tasks) <= 1 and task_timeout is None:
            effective_jobs = 1
        stats = session.execute(
            tasks,
            worker=_execute,
            payload=lambda t: (t.name, t.call_kwargs, t.task_key),
            on_success=on_success,
            on_failure=on_failure,
            jobs=min(effective_jobs, max(1, len(tasks))),
            trace_parent=batch_span,
        )

    result = EngineResult(
        runs=[r for r in runs if r is not None],
        jobs=jobs,
        cache_dir=str(store.root) if store is not None else None,
        retries=stats.retries,
        timeouts=stats.timeouts,
        pool_rebuilds=stats.pool_rebuilds,
        degraded=stats.degraded,
        quarantined=(
            store.quarantined - quarantined_before if store is not None else 0
        ),
    )
    if tracer is not None:
        tracer.end(
            batch_span,
            status="degraded" if result.degraded else "ok",
            failures=len(result.failures),
        )
    if metrics is not None:
        from ..obs.publish import publish_engine_result

        publish_engine_result(metrics, result)
    return result

