"""The batch body and the forked workers that run it in parallel.

:func:`evaluate_batch` is what evaluating one admitted submission means:
its records, their synthesis and the sharded replay.  The in-process
scheduler runs it on the daemon's warm session.

With ``--jobs N > 1`` on the local pool, :meth:`QbssServer.start
<repro.serve.server.QbssServer.start>` forks N :class:`EvaluationWorker`
processes once, after the CLI's
:func:`~repro.traces.replay.load_evaluation` and before the daemon starts
any thread, so every worker inherits the imported evaluation path and no
fork copies a live thread.  Each scheduler thread owns one worker and
sends it whole batches over a pipe.  The worker runs :func:`worker_batch`:
the batch body on a serial session that shares the daemon's cache
directory and has a metrics registry of its own.  It replies with the
report, the failure text and that registry's snapshot, which the daemon
merges into its own registry.

A worker that dies raises :class:`WorkerLost` in the daemon.  The daemon
does not fork a replacement, because by then it has threads; it runs
:func:`worker_batch` in-process instead, for that batch and every later
one.
"""

from __future__ import annotations

import gc
import multiprocessing
import signal
from collections.abc import Sequence
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import TYPE_CHECKING, Any

from ..engine.faults import FaultPlan
from ..engine.session import ExecutionSession
from ..obs.metrics import MetricsRegistry
from ..traces.replay import ReplayReport, replay_jobs
from ..traces.synthesize import synthesize_jobs
from .protocol import JobRequest

if TYPE_CHECKING:
    from .server import ServeConfig

#: ``(report, failure)``: the replay report, or the text of the
#: ``internal`` error that replaced it.
BatchOutcome = tuple[ReplayReport | None, str | None]


class WorkerLost(RuntimeError):
    """An evaluation worker died, or its pipe broke, before it replied."""


def evaluate_batch(
    config: ServeConfig,
    requests: Sequence[JobRequest],
    client: str,
    session: ExecutionSession,
) -> BatchOutcome:
    """Evaluate one submission on ``session``; never raises.

    Shard-level failures are already structured inside the report; only
    a failure of the replay machinery itself comes back as failure text.
    """
    try:
        records = [req.to_record(i) for i, req in enumerate(requests)]
        stream = synthesize_jobs(
            iter(records),
            model=config.noise_model,
            seed=config.seed,
            deadline_slack=config.deadline_slack,
        )
        report, _ = replay_jobs(
            stream,
            algorithms=config.algorithms,
            alpha=config.alpha,
            shard_window=config.shard_window,
            session=session,
            meta={
                "source": f"serve:{client}",
                "trace_format": "serve",
                "noise_model": config.noise_model,
                "seed": config.seed,
                "deadline_slack": config.deadline_slack,
            },
        )
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return report, None


def worker_batch(
    config: ServeConfig,
    plan: FaultPlan | None,
    requests: Sequence[JobRequest],
    client: str,
) -> tuple[ReplayReport | None, str | None, dict[str, Any]]:
    """:func:`evaluate_batch` as a worker runs it, plus its metrics snapshot.

    The session is serial, shares the daemon's cache directory and
    records into a registry of its own, whose :meth:`MetricsRegistry.to_dict`
    snapshot comes back third.
    """
    registry = MetricsRegistry()
    with ExecutionSession(
        jobs=1,
        backend="serial",
        cache=config.cache,
        cache_dir=config.cache_dir,
        task_timeout=config.task_timeout,
        retry=config.retry,
        fault_plan=plan,
        metrics=registry,
    ) as session:
        report, failure = evaluate_batch(config, requests, client, session)
    return report, failure, registry.to_dict()


class EvaluationWorker:
    """One forked process evaluating the batches sent over its pipe."""

    def __init__(self, process: BaseProcess, conn: Connection) -> None:
        self.process = process
        self.conn = conn

    def evaluate(
        self, requests: Sequence[JobRequest], client: str
    ) -> tuple[ReplayReport | None, str | None, dict[str, Any]]:
        """Run :func:`worker_batch` in the worker; raises :class:`WorkerLost`."""
        try:
            self.conn.send((requests, client))
            return self.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerLost(
                f"evaluation worker {self.process.pid} lost: {exc!r}"
            ) from exc

    def close(self) -> None:
        """End the worker (EOF on its pipe ends its loop) and reap it.

        Idempotent; a worker still alive 5 s later is killed.
        """
        if self.conn.closed:
            return
        self.conn.close()
        self.process.join(5.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.process.close()


def fork_workers(
    n: int, config: ServeConfig, plan: FaultPlan | None
) -> list[EvaluationWorker]:
    """Fork ``n`` evaluation workers; call before the process has threads.

    Each worker inherits the objects alive at the fork frozen
    (:func:`gc.freeze`), so its collections never write to the pages it
    shares with the daemon.  The daemon unfreezes its own.
    """
    context = multiprocessing.get_context("fork")
    workers: list[EvaluationWorker] = []
    if not n:
        return workers
    gc.freeze()
    try:
        for i in range(n):
            ours, theirs = context.Pipe()
            process = context.Process(
                target=_serve_batches,
                args=(theirs, [w.conn for w in workers] + [ours], config, plan),
                name=f"qbss-serve-worker-{i}",
                daemon=True,
            )
            process.start()
            theirs.close()
            workers.append(EvaluationWorker(process, ours))
    finally:
        gc.unfreeze()
    return workers


def _serve_batches(
    conn: Connection,
    inherited: list[Connection],
    config: ServeConfig,
    plan: FaultPlan | None,
) -> None:
    """A worker's loop: evaluate each batch received until the pipe closes."""
    # The daemon drains its workers itself: a terminal's Ctrl-C reaches the
    # whole process group, and the daemon's handlers are no use here.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Only the daemon may hold the daemon's pipe ends, or a worker would
    # never see EOF once the daemon is gone.
    for other in inherited:
        other.close()
    while True:
        try:
            requests, client = conn.recv()
            conn.send(worker_batch(config, plan, requests, client))
        except (EOFError, OSError):
            return
