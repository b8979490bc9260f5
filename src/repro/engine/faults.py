"""Fault-injection, retry and failure primitives of the hardened engine.

Everything the execution layer needs to *degrade gracefully* lives here:

* :class:`RetryPolicy` — seeded-deterministic exponential backoff applied
  to **transient** failures (worker death, cache I/O trouble, anything
  raising a :class:`TransientError`), never to deterministic algorithm
  exceptions.
* :class:`FailureInfo` — the structured record of one task that could not
  be completed: kind, attempts used, wall time per attempt, traceback.
  Surfaced in :meth:`repro.engine.EngineResult.summary`, the CLI footers
  and replay shard verdicts.
* :func:`run_guarded` — the worker guard every worker body runs its
  attempt under (fault hook, timing, exception capture), plus the
  :func:`failure_outcome` / :func:`crash_outcome` dicts a failed attempt
  reports.
* :class:`FaultPlan` / :class:`FaultSpec` — a *deterministic*
  fault-injection harness.  A plan pins faults to exact ``(task,
  attempt)`` coordinates.  The
  :class:`~repro.engine.session.ExecutionSession` running the tasks
  resolves it once (its ``fault_plan``, else the ``QBSS_FAULT_PLAN``
  environment variable: raw JSON, or ``@/path`` to a JSON file) and the
  plan travels with each task as an ordinary argument, which every
  worker body hands to :func:`run_guarded`.  No process writes the variable.  Tests use it to
  force each recovery path — worker crashes (``BrokenProcessPool``),
  hangs (deadline timeouts), corrupted cache entries (quarantine) and
  plain exceptions — at reproducible spots.

Nothing here imports the experiment registry or the trace layer; it is
shared verbatim by :mod:`repro.engine.runner`, :mod:`repro.traces.replay`
and the ``qbss-worker`` loop.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import signal
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Iterable
from typing import Any

#: Environment variable holding the active fault plan (JSON, or ``@path``).
FAULT_PLAN_ENV = "QBSS_FAULT_PLAN"

FAULT_PLAN_VERSION = 1

#: Exit status an injected ``crash`` uses to kill its worker process.
CRASH_EXIT_CODE = 87

FAULT_KINDS = ("crash", "hang", "corrupt-cache", "raise", "kill", "torn-write")


class TransientError(RuntimeError):
    """Base class for failures the :class:`RetryPolicy` may retry.

    Deterministic algorithm exceptions must *not* derive from this —
    retrying them would re-run a computation guaranteed to fail again.
    """


class WorkerCrashError(TransientError):
    """A worker process died (or an injected crash was simulated in-process)."""


class InjectedFault(RuntimeError):
    """A deterministic fault injected by a :class:`FaultPlan` (not retried)."""


class InjectedTransientFault(TransientError):
    """A transient fault injected by a :class:`FaultPlan` (retried)."""


# -- retry policy -------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded-deterministic exponential backoff for transient failures.

    ``max_attempts`` counts *total* attempts (1 = never retry).  The delay
    before attempt ``n + 1`` is ``min(backoff_cap, backoff_base * 2**(n-1))``
    scaled by a jitter factor in ``[0.5, 1.5)`` drawn from an RNG seeded by
    ``(jitter_seed, task, n)`` — the same task retries with the same delays
    on every run, so fault-injection tests stay reproducible while
    unrelated tasks still de-synchronise.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base and backoff_cap must be >= 0")

    def delay(self, task: str, attempt: int) -> float:
        """Seconds to wait after failed attempt ``attempt`` (1-based) of ``task``."""
        base = min(self.backoff_cap, self.backoff_base * (2.0 ** (attempt - 1)))
        if base <= 0.0:
            return 0.0
        rng = random.Random(f"{self.jitter_seed}:{task}:{attempt}")
        return base * (0.5 + rng.random())


# -- structured failure records -----------------------------------------------------


@dataclass
class FailureInfo:
    """One task that the hardened layer could not complete.

    ``kind`` is ``"error"`` (deterministic exception), ``"crash"`` (worker
    death, attempts exhausted), ``"timeout"`` (deadline exceeded) or
    ``"cache"`` (unrecoverable cache I/O).  ``wall_times`` holds the wall
    time of each attempt, in order.
    """

    task: str
    kind: str
    attempts: int
    wall_times: list[float] = field(default_factory=list)
    traceback: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "task": self.task,
            "kind": self.kind,
            "attempts": self.attempts,
            "wall_times": list(self.wall_times),
            "traceback": self.traceback,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> FailureInfo:
        return cls(
            task=str(data["task"]),
            kind=str(data["kind"]),
            attempts=int(data["attempts"]),
            wall_times=[float(w) for w in data.get("wall_times", [])],
            traceback=data.get("traceback"),
        )

    def summary_line(self) -> str:
        """One human line for CLI footers: task, kind, attempts, total wall."""
        total = sum(self.wall_times)
        head = ""
        if self.traceback:
            tail = self.traceback.strip().splitlines()
            head = f" — {tail[-1]}" if tail else ""
        return (
            f"{self.task}: {self.kind} after {self.attempts} attempt(s), "
            f"{total:.3f}s{head}"
        )


# -- deterministic fault injection --------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault at coordinates ``(task, attempt)``.

    ``attempt`` is 1-based; ``0`` means *every* attempt (a deterministic,
    non-recoverable fault).  ``kind``:

    ``crash``
        ``os._exit`` inside a pool worker (→ ``BrokenProcessPool`` in the
        parent); simulated as a :class:`WorkerCrashError` when running
        in-process, where a real exit would kill the whole run.
    ``hang``
        sleep ``seconds`` before proceeding normally — with a task
        deadline set, the parent times the task out.
    ``raise``
        raise :class:`InjectedTransientFault` when ``transient`` else
        :class:`InjectedFault`.
    ``corrupt-cache``
        no-op in the worker; the parent truncates the cache entry it just
        wrote for these coordinates, so the *next* run exercises the
        quarantine path.
    ``kill``
        real ``SIGKILL`` to the current process — uncatchable, like
        ``kill -9``.  In a pool worker the parent sees
        ``BrokenProcessPool`` (as with ``crash``, but without the orderly
        ``os._exit``); injected in-process it kills the whole run or
        daemon, which is exactly what the crash-recovery harness uses to
        take a live ``qbss-serve`` down mid-batch.
    ``torn-write``
        no-op in the worker; the parent applies
        :func:`torn_write_entry` to the cache/journal file it just wrote
        for these coordinates — a raw mid-stream truncation simulating a
        write interrupted by power loss, so the next reader exercises
        the quarantine / torn-tail recovery path.
    """

    task: str
    kind: str
    attempt: int = 1
    transient: bool = False
    seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (one of: {', '.join(FAULT_KINDS)})"
            )
        if self.attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {self.attempt}")

    def matches(self, task: str, attempt: int) -> bool:
        return self.task == task and self.attempt in (0, attempt)

    def to_dict(self) -> dict[str, Any]:
        return {
            "task": self.task,
            "kind": self.kind,
            "attempt": self.attempt,
            "transient": self.transient,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> FaultSpec:
        return cls(
            task=str(data["task"]),
            kind=str(data["kind"]),
            attempt=int(data.get("attempt", 1)),
            transient=bool(data.get("transient", False)),
            seconds=float(data.get("seconds", 30.0)),
        )


def _in_pool_worker() -> bool:
    """True inside a spawned/forked pool worker (where os._exit is safe)."""
    return multiprocessing.parent_process() is not None


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of :class:`FaultSpec` injections.

    Travels with each task as an argument; :func:`run_guarded` calls
    :meth:`inject` before running the task's body.  The first spec
    matching ``(task, attempt)`` wins.
    """

    specs: tuple[FaultSpec, ...] = ()

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        object.__setattr__(self, "specs", tuple(specs))

    def lookup(self, task: str, attempt: int) -> FaultSpec | None:
        for spec in self.specs:
            if spec.matches(task, attempt):
                return spec
        return None

    def inject(self, task: str, attempt: int) -> None:
        """Perform whatever fault (if any) this plan pins to ``(task, attempt)``.

        Called from worker bodies; see :class:`FaultSpec` for semantics.
        """
        spec = self.lookup(task, attempt)
        if spec is None:
            return
        if spec.kind == "hang":
            time.sleep(spec.seconds)
            return
        if spec.kind == "crash":
            if _in_pool_worker():
                os._exit(CRASH_EXIT_CODE)
            raise WorkerCrashError(
                f"injected crash for task {task!r} attempt {attempt} "
                "(simulated in-process)"
            )
        if spec.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if spec.kind == "raise":
            exc = InjectedTransientFault if spec.transient else InjectedFault
            raise exc(
                f"injected {'transient ' if spec.transient else ''}fault for "
                f"task {task!r} attempt {attempt}"
            )
        # corrupt-cache / torn-write are applied by the parent after the write.

    def wants_corrupt_cache(self, task: str, attempt: int) -> bool:
        spec = self.lookup(task, attempt)
        return spec is not None and spec.kind == "corrupt-cache"

    def wants_torn_write(self, task: str, attempt: int) -> bool:
        spec = self.lookup(task, attempt)
        return spec is not None and spec.kind == "torn-write"

    # -- serialization / the env hook ----------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": FAULT_PLAN_VERSION,
                "faults": [s.to_dict() for s in self.specs],
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> FaultPlan:
        data = json.loads(text)
        if not isinstance(data, dict) or "faults" not in data:
            raise ValueError("fault plan must be a JSON object with a 'faults' list")
        if data.get("version") != FAULT_PLAN_VERSION:
            raise ValueError(
                f"unsupported fault-plan version {data.get('version')!r}"
            )
        return cls(FaultSpec.from_dict(d) for d in data["faults"])

    @classmethod
    def from_env(cls, environ: dict[str, str] | None = None) -> FaultPlan | None:
        """The plan exported in ``QBSS_FAULT_PLAN`` (raw JSON or ``@path``)."""
        raw = (environ or os.environ).get(FAULT_PLAN_ENV)
        if not raw:
            return None
        text = Path(raw[1:]).read_text() if raw.startswith("@") else raw
        return cls.from_json(text)


# -- the worker guard ---------------------------------------------------------------


def failure_outcome(
    error: str, wall: float, *, transient: bool = False, kind: str = "error"
) -> dict[str, Any]:
    """The outcome dict of one failed attempt."""
    return {
        "ok": False,
        "error": error,
        "transient": transient,
        "kind": kind,
        "wall": wall,
    }


def crash_outcome(error: str, wall: float) -> dict[str, Any]:
    """The transient ``crash`` outcome of an attempt whose worker died —
    a broken local pool and a vanished ``qbss-worker`` alike."""
    return failure_outcome(error, wall, transient=True, kind="crash")


def run_guarded(
    task: str, attempt: int, plan: FaultPlan | None, body: Callable[[], Any]
) -> dict[str, Any]:
    """Run one attempt of ``task`` and return its outcome dict.

    Every worker body is one call into this guard.  It performs ``plan``'s
    injection for ``(task, attempt)`` first (the plan the task carries;
    ``None`` injects nothing), then ``body()``, whose return value becomes
    the ``payload`` of an ``ok`` outcome.  An ordinary exception becomes a
    failure outcome (transient for a :class:`TransientError`, kind
    ``crash`` for a :class:`WorkerCrashError`) so one failing task cannot
    take down the batch; ``KeyboardInterrupt``/``SystemExit`` propagate so
    Ctrl-C actually stops a run.
    """
    start = time.perf_counter()
    try:
        if plan is not None:
            plan.inject(task, attempt)
        payload = body()
        return {"ok": True, "payload": payload, "wall": time.perf_counter() - start}
    except BaseException as exc:
        if not isinstance(exc, Exception):
            raise  # KeyboardInterrupt / SystemExit must propagate
        return failure_outcome(
            traceback.format_exc(limit=8),
            time.perf_counter() - start,
            transient=isinstance(exc, TransientError),
            kind="crash" if isinstance(exc, WorkerCrashError) else "error",
        )


def corrupt_cache_entry(path: str | Path) -> None:
    """Truncate a just-written cache file to garbage (the ``corrupt-cache``
    fault).  Keeps a non-empty, non-JSON prefix so the quarantine path — not
    the missing-file path — is what the next reader exercises."""
    path = Path(path)
    try:
        raw = path.read_bytes()
        path.write_bytes(raw[: max(1, len(raw) // 3)].rstrip(b"}\n") or b"{")
    except OSError:  # pragma: no cover - fault injection best-effort
        pass


def torn_write_entry(path: str | Path) -> None:
    """Cut a just-written file mid-stream (the ``torn-write`` fault).

    Unlike :func:`corrupt_cache_entry` this is a *raw* byte truncation —
    no rstrip, no guaranteed-garbage prefix — modelling exactly what a
    crash between ``write`` and ``fsync`` can leave behind: a prefix of
    the intended bytes, possibly cut mid-token or mid-codepoint.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(max(1, size // 2))
    except OSError:  # pragma: no cover - fault injection best-effort
        pass
