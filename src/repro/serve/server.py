"""The ``qbss-serve`` daemon: admission, warm evaluation, HTTP surface.

One :class:`QbssServer` owns

* a single warm :class:`~repro.engine.session.ExecutionSession` and
  the metrics registry, which live for the daemon's whole lifetime, and
  the evaluation workers :meth:`QbssServer.start` forks;
* the bounded :class:`~repro.serve.queue.AdmissionQueue` and per-client
  :class:`~repro.serve.rate.RateLimiter` deciding, synchronously and
  cheaply, whether a submission is admitted;
* the scheduler threads that pop admitted batches and evaluate each
  through :func:`~repro.serve.workers.evaluate_batch`.  With ``jobs > 1``
  on the local pool there is one thread per forked
  :class:`~repro.serve.workers.EvaluationWorker`, so ``jobs`` batches
  evaluate at once; otherwise one thread evaluates on the warm session
  (sessions are not thread-safe);
* a :class:`ThreadingHTTPServer` exposing ``POST /v1/jobs``,
  ``GET /healthz`` and ``GET /metrics``.

Determinism contract: a submission stream is validated into
:class:`~repro.traces.records.TraceRecord` with indexes assigned in
submission order, synthesized with the configured noise model/seed, and
sharded on the same absolute window grid as ``qbss-replay`` — so a warm
server answering a workload produces byte-identical per-shard payloads
to a cold ``qbss-replay`` of the same records.

Graceful drain (SIGTERM/SIGINT via the CLI): :meth:`QbssServer.
begin_drain` stops admission (new submissions get structured
``draining`` errors), :meth:`QbssServer.drain` lets the schedulers
finish every already-admitted batch — so waiting clients get their
responses flushed — and shut their workers down, then closes the
session; :meth:`QbssServer.stop` tears the HTTP listener down last.

Hard-crash durability (``--journal DIR``): every admission is appended
to a fsync'd write-ahead :class:`~repro.serve.journal.AdmissionJournal`
before it can be acknowledged, completion marks follow per shard, and
:meth:`QbssServer.recover` replays incomplete entries on restart —
byte-identically, because evaluation is deterministic and the
content-addressed cache makes re-execution idempotent.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from collections.abc import Sequence

from .. import __version__ as PACKAGE_VERSION
from ..engine.backends.base import parse_backend_spec
from ..engine.faults import FaultPlan, RetryPolicy
from ..engine.runner import resolve_jobs
from ..engine.session import ExecutionSession
from ..obs import lockwatch
from ..obs.metrics import MetricsRegistry
from ..obs.publish import WALL_BUCKETS
from ..traces.replay import DEFAULT_ALGORITHMS, ReplayReport
from . import protocol
from .journal import AdmissionJournal, RecoveryReport, shard_payload_digest
from .protocol import JobRequest, ProtocolError, ServeError
from .queue import AdmissionQueue, QueueClosedError, QueueFullError
from .rate import RateLimiter
from .workers import (
    BatchOutcome,
    EvaluationWorker,
    WorkerLost,
    evaluate_batch,
    fork_workers,
    worker_batch,
)


class LockedMetricsRegistry(MetricsRegistry):
    """A :class:`MetricsRegistry` safe for one writer thread per series
    plus concurrent renderers.

    The base registry is deliberately unthreaded; the daemon adds the
    minimum: ``lock`` is held around series *registration* and around
    full-text rendering, so a scrape can never iterate the series dict
    while a new series is being inserted.  Value updates on existing
    series stay lock-free (single-writer discipline: the one in-process
    scheduler owns the replay/cache series; admission updates and the
    merges of worker snapshots happen under ``lock``).
    """

    def __init__(self) -> None:
        super().__init__()
        self.lock = lockwatch.new_rlock("LockedMetricsRegistry.lock")

    def _get(self, cls: type, name: str, help: str, labels: dict, **kwargs: object) -> object:
        with self.lock:
            return super()._get(cls, name, help, labels, **kwargs)

    def to_prometheus(self) -> str:
        with self.lock:
            return super().to_prometheus()

    def to_dict(self) -> dict:
        with self.lock:
            return super().to_dict()


@dataclass
class ServeConfig:
    """Everything the daemon needs, in one declarative object.

    Evaluation parameters (``algorithms``/``alpha``/``shard_window``/
    ``noise_model``/``seed``/``deadline_slack``) are fixed per daemon —
    they are part of the shard cache key and of the byte-identity
    contract with ``qbss-replay``, so they are configuration, not
    request fields.
    """

    host: str = "127.0.0.1"
    port: int = 0
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS
    alpha: float = 3.0
    shard_window: float = 3600.0
    noise_model: str = "multiplicative"
    seed: int = 0
    deadline_slack: float = 2.0
    queue_limit: int = 4096
    rate: float | None = None
    burst: float | None = None
    request_timeout: float = 300.0
    #: Batches evaluated at once on the local pool: ``> 1`` forks that
    #: many evaluation workers in :meth:`QbssServer.start`; 1 evaluates
    #: in-process.  Under a remote backend it sizes the session instead.
    jobs: int | str = 1
    cache: bool = True
    cache_dir: str | Path | None = None
    task_timeout: float | None = None
    retry: RetryPolicy | None = None
    fault_plan: FaultPlan | None = None
    #: Execution backend spec for shard evaluation: ``"serial"``,
    #: ``"pool"``, ``"remote:HOST:PORT[,...]"`` or ``None`` for the
    #: default local pool (see ``docs/backends.md``).
    backend: str | None = None
    #: Directory of the write-ahead admission journal (``--journal``).
    #: ``None`` disables durability; see ``docs/serving.md``.
    journal_dir: str | Path | None = None
    #: Optional :class:`repro.obs.Tracer` receiving journal events and
    #: the per-batch replay spans of in-process evaluation (spans of a
    #: forked worker's batches stay in that worker).
    tracer: object | None = None


class Batch:
    """One admitted submission awaiting (or holding) its evaluation."""

    __slots__ = (
        "requests", "client", "done", "report", "error", "admitted_at",
        "batch_id", "recovered",
    )

    def __init__(self, requests: list[JobRequest], client: str, admitted_at: float):
        self.requests = requests
        self.client = client
        self.done = threading.Event()
        self.report: ReplayReport | None = None
        self.error: ServeError | None = None
        self.admitted_at = admitted_at
        #: Journal sequence number (``None`` when journaling is off).
        self.batch_id: int | None = None
        #: True for batches rebuilt from the journal at startup.
        self.recovered = False


class QbssServer:
    """The long-lived scheduling service around one warm session."""

    def __init__(self, config: ServeConfig, registry: LockedMetricsRegistry | None = None):
        self.config = config
        self.registry = registry if registry is not None else LockedMetricsRegistry()
        kind = parse_backend_spec(config.backend)[0] if config.backend else "pool"
        workers = resolve_jobs(config.jobs) if kind == "pool" else 1
        #: Evaluation workers :meth:`start` forks (0: evaluate in-process).
        self._fork_count = workers if workers > 1 else 0
        self.session = ExecutionSession(
            # Local evaluation is serial in every process.
            jobs=config.jobs if kind == "remote" else 1,
            cache=config.cache,
            cache_dir=config.cache_dir,
            task_timeout=config.task_timeout,
            retry=config.retry,
            fault_plan=config.fault_plan,
            tracer=config.tracer,
            metrics=self.registry,
            backend=config.backend,
        )
        self.queue = AdmissionQueue(config.queue_limit)
        self.limiter = RateLimiter(config.rate, config.burst)
        self._draining = threading.Event()
        self._schedulers: list[threading.Thread] = []
        self._workers: list[EvaluationWorker] = []
        #: Set once a worker is lost: from then on every batch is
        #: evaluated in-process, one at a time under ``_local``.
        self._lost = threading.Event()
        self._local = lockwatch.new_lock("QbssServer._local")
        self._httpd: ThreadingHTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        self.journal: AdmissionJournal | None = None
        #: Batches rebuilt by :meth:`recover`, taken before any new
        #: admission once the scheduler (or stdin mode) starts.
        self._recovered_batches: deque[Batch] = deque()
        if config.journal_dir is not None:
            self.journal = AdmissionJournal(
                config.journal_dir,
                metrics=self.registry,
                tracer=config.tracer,
                fault_plan=self.session.active_fault_plan,
            )
        # Pre-register every qbss_serve_* series so /metrics shows the
        # full shape (zeros included) from the first scrape onward.
        reg = self.registry
        self._depth_gauge = reg.gauge(
            "qbss_serve_queue_depth", "Jobs admitted and awaiting evaluation."
        )
        self._draining_gauge = reg.gauge(
            "qbss_serve_draining", "1 once drain has begun."
        )
        self._admitted = reg.counter(
            "qbss_serve_jobs_admitted_total", "Jobs admitted into the queue."
        )
        self._completed = reg.counter(
            "qbss_serve_jobs_completed_total", "Jobs whose batch finished evaluation."
        )
        self._rejected = {
            reason: reg.counter(
                "qbss_serve_jobs_rejected_total",
                "Jobs rejected at admission, by structured reason.",
                reason=reason,
            )
            for reason in ("queue_full", "rate_limited", "draining", "invalid_request")
        }
        self._batches = {
            status: reg.counter(
                "qbss_serve_batches_total",
                "Submissions fully processed, by outcome.",
                status=status,
            )
            for status in ("ok", "error")
        }
        self._shard_latency = reg.histogram(
            "qbss_serve_shard_latency_seconds",
            "Evaluation wall time attributed per shard.",
            buckets=WALL_BUCKETS,
        )
        self._recovered_batches_total = reg.counter(
            "qbss_serve_recovered_batches_total",
            "Incomplete journal batches replayed at startup.",
        )
        self._recovered_jobs = reg.counter(
            "qbss_serve_recovered_jobs_total",
            "Jobs re-enqueued from incomplete journal entries at startup.",
        )

    # -- lifecycle -------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The actually-bound TCP port (meaningful after :meth:`start`)."""
        if self._httpd is None:
            raise RuntimeError("server is not started")
        return int(self._httpd.server_address[1])

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def pool_jobs(self) -> int:
        """Batches evaluated at once: the forked workers, else the session's
        pool (meaningful after :meth:`start`)."""
        return len(self._workers) or self.session.pool_jobs

    def recover(self) -> RecoveryReport | None:
        """Replay the journal's incomplete admissions; call before :meth:`start`.

        Scans the journal tolerantly (torn tail records — crash debris —
        are dropped and counted), compacts it down to the admissions that
        never completed, and rebuilds each as a :class:`Batch` evaluated
        *before* any new submission once the scheduler starts.  Requests
        travel the same validation path as live traffic and indexes are
        re-assigned per batch in admission order, so a recovered batch
        produces byte-identical shard payloads to its uninterrupted run
        (shards evaluated before the crash come straight from the
        content-addressed cache).  Returns ``None`` with journaling off.
        """
        if self.journal is None:
            return None
        if self._schedulers:
            raise RuntimeError("recover() must run before start()")
        scan = self.journal.scan()
        incomplete = scan.incomplete()
        report = RecoveryReport(torn_records=scan.torn)
        kept = []
        for record in incomplete:
            try:
                requests = [
                    JobRequest.from_dict(
                        dict(doc),
                        source=f"journal:b{record.batch}",
                        line=i + 1,
                    )
                    for i, doc in enumerate(record.jobs)
                ]
            except ProtocolError:
                # An admission that no longer validates is preserved in
                # the journal for the operator, never silently dropped.
                report.skipped += 1
                kept.append(record)
                continue
            batch = Batch(requests, record.client, admitted_at=time.monotonic())
            batch.batch_id = record.batch
            batch.recovered = True
            self._recovered_batches.append(batch)
            kept.append(record)
            report.batches += 1
            report.jobs += len(requests)
        self.journal.compact(kept)
        with self.registry.lock:
            self._recovered_batches_total.inc(report.batches)
            self._recovered_jobs.inc(report.jobs)
        tracer = self.config.tracer
        if tracer is not None:
            tracer.event(
                "journal_recover",
                None,
                batches=report.batches,
                jobs=report.jobs,
                torn=report.torn_records,
            )
        return report

    def start(self, *, http: bool = True) -> None:
        """Fork the evaluation workers, then start the scheduler threads
        and (optionally) the HTTP listener.

        The workers are forked first, while the daemon has no thread of
        its own, and before the listening socket exists.
        """
        if self._schedulers:
            raise RuntimeError("server already started")
        self._workers = fork_workers(
            self._fork_count, self.config, self.session.active_fault_plan
        )
        self._schedulers = [
            threading.Thread(
                target=self._scheduler_loop,
                args=(worker,),
                name=f"qbss-serve-scheduler-{i}",
            )
            for i, worker in enumerate(self._workers or [None])
        ]
        for thread in self._schedulers:
            thread.start()
        if http:
            self._httpd = _make_httpd(self)
            self._http_thread = threading.Thread(
                target=self._httpd.serve_forever, name="qbss-serve-http"
            )
            self._http_thread.start()

    def begin_drain(self) -> None:
        """Stop admitting; already-admitted batches will still complete."""
        self._draining.set()
        with self.registry.lock:
            self._draining_gauge.set(1.0)
        self.queue.close()

    def drain(self, timeout: float | None = None) -> bool:
        """Wait for the schedulers to finish every admitted batch and shut
        their workers down, then close the session.  Returns ``False`` on
        timeout."""
        if not self._draining.is_set():
            self.begin_drain()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._schedulers:
            thread.join(None if deadline is None else max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                return False
        self.session.close()
        if self.journal is not None:
            self.journal.close()
        return True

    def stop(self) -> None:
        """Tear down the HTTP listener (after :meth:`drain`, normally)."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._http_thread is not None:
            self._http_thread.join()
            self._http_thread = None

    # -- admission -------------------------------------------------------------------

    def body_length(self, header: str | None) -> int:
        """A request's ``Content-Length``, checked before any body byte is read.

        Accepts a decimal length up to ``queue_limit * MAX_RECORD_BYTES``.
        Anything else raises an ``invalid_request`` :class:`ServeError`
        (400 when malformed or negative, 413 over the cap), counted like a
        malformed body.
        """
        cap = self.config.queue_limit * protocol.MAX_RECORD_BYTES
        text = "0" if header is None else header.strip()
        if not (text.isascii() and text.isdigit()):
            error = ServeError(
                "invalid_request",
                f"Content-Length must be a decimal byte count, got {text[:40]!r}",
            )
        # Digit count first: int() refuses strings of over 4300 digits.
        elif len(text.lstrip("0")) > len(str(cap)) or int(text) > cap:
            error = ServeError(
                "invalid_request",
                f"Content-Length exceeds the {cap}-byte body cap",
                status=413,
            )
        else:
            return int(text)
        self._count_rejection("invalid_request", 1)
        raise error

    def check_budget(self, client: str) -> None:
        """Refuse ``client`` before its body is read when its bucket
        cannot cover one job.

        Takes no tokens: :meth:`submit_payload` charges the parsed job
        count.  The refusal is a ``rate_limited`` :class:`ServeError`,
        counted as one job because the body is never parsed.
        """
        if not self.limiter.has_budget(client):
            self._count_rejection("rate_limited", 1)
            raise self._rate_limited_error(client)

    def _rate_limited_error(self, client: str) -> ServeError:
        return ServeError(
            "rate_limited",
            f"client {client!r} exceeded {self.config.rate} jobs/s "
            f"(burst {self.limiter.burst})",
        )

    def submit_payload(
        self, body: str, client: str, *, block: bool = False
    ) -> Batch:
        """Validate, rate-check and enqueue one submission.

        Raises :class:`ServeError` with a structured code on any
        rejection; every rejection is counted in
        ``qbss_serve_jobs_rejected_total`` by reason.
        """
        try:
            requests = protocol.parse_jobs_payload(body, source=f"client:{client}")
        except ProtocolError as exc:
            self._count_rejection("invalid_request", 1)
            raise ServeError("invalid_request", str(exc)) from exc
        n = len(requests)
        if self._draining.is_set():
            self._count_rejection("draining", n)
            raise ServeError(
                "draining", "server is draining; not accepting new submissions"
            )
        if not self.limiter.allow(client, n):
            self._count_rejection("rate_limited", n)
            raise self._rate_limited_error(client)
        batch = Batch(requests, client, admitted_at=time.monotonic())
        self._journal_admission(batch)
        try:
            self.queue.submit(batch, n, block=block)
        except QueueFullError as exc:
            self._count_rejection("queue_full", n)
            self._journal_rejected(batch)
            raise ServeError("queue_full", str(exc)) from exc
        except QueueClosedError as exc:
            self._count_rejection("draining", n)
            self._journal_rejected(batch)
            raise ServeError(
                "draining", "server is draining; not accepting new submissions"
            ) from exc
        with self.registry.lock:
            self._admitted.inc(n)
            self._depth_gauge.set(self.queue.depth)
        return batch

    def _journal_admission(self, batch: Batch) -> None:
        """Durably journal one submission *before* it can be acknowledged.

        The append is fsync'd before ``submit_payload`` returns — and
        therefore before any response (the implicit ack) can reach the
        client — so a crash at any later point leaves a replayable
        record.  A journal that cannot be written is an ``internal``
        rejection: better to refuse work than to accept it undurably.
        """
        if self.journal is None:
            return
        try:
            batch.batch_id = self.journal.log_admission(
                batch.client, [r.to_dict() for r in batch.requests]
            )
        except OSError as exc:
            self._count_rejection("invalid_request", len(batch.requests))
            raise ServeError(
                "internal", f"admission journal append failed: {exc}"
            ) from exc

    def _journal_rejected(self, batch: Batch) -> None:
        """Close the journal entry of a journaled-then-rejected batch.

        The client saw a structured rejection (never an ack), so the
        entry must not replay on restart; an immediate ``batch_complete``
        mark with status ``rejected`` retires it.
        """
        if self.journal is None or batch.batch_id is None:
            return
        try:
            self.journal.log_batch_complete(batch.batch_id, "rejected")
        except OSError:  # pragma: no cover - best effort; replay is idempotent
            pass

    def _count_rejection(self, reason: str, n: int) -> None:
        with self.registry.lock:
            self._rejected[reason].inc(n)

    # -- evaluation ------------------------------------------------------------------

    def _scheduler_loop(self, worker: EvaluationWorker | None) -> None:
        try:
            while (batch := self._next_batch()) is not None:
                if worker is not None and self._lost.is_set():
                    worker.close()
                    worker = None
                self._evaluate(batch, worker)
        finally:
            if worker is not None:
                worker.close()

    def _next_batch(self) -> Batch | None:
        """Recovered batches first: they were admitted (and journaled)
        before anything the queue can currently hold.  ``None`` once the
        queue is closed and empty."""
        try:
            return self._recovered_batches.popleft()
        except IndexError:
            pass
        batch = self.queue.pop()
        with self.registry.lock:
            self._depth_gauge.set(self.queue.depth)
        return batch

    def _evaluate(self, batch: Batch, worker: EvaluationWorker | None) -> None:
        """Evaluate one batch; never raises.

        Shard-level failures (faults, timeouts, degraded pools) are
        already structured *inside* the replay report; only a failure of
        the replay machinery itself becomes an ``internal`` error — and
        even that is a response envelope, not a dead scheduler.
        """
        t0 = time.perf_counter()
        try:
            report, failure = self._run(batch, worker)
        except Exception as exc:
            report, failure = None, f"{type(exc).__name__}: {exc}"
        if failure is None:
            batch.report = report
        else:
            batch.error = ServeError("internal", failure)
        wall = time.perf_counter() - t0
        with self.registry.lock:
            if batch.error is None and batch.report is not None:
                self._completed.inc(len(batch.requests))
                self._batches["ok"].inc()
                n_shards = len(batch.report.shards)
                per_shard = wall / n_shards if n_shards else wall
                for _ in range(n_shards):
                    self._shard_latency.observe(per_shard)
            else:
                self._batches["error"].inc()
        self._journal_completion(batch)
        batch.done.set()

    def _run(self, batch: Batch, worker: EvaluationWorker | None) -> BatchOutcome:
        """The batch body, on ``worker`` or in-process.

        A daemon that forked no workers runs the body on its warm session,
        whose series land in the registry live.  A worker's snapshot is
        merged instead; once a worker is lost, the daemon runs what a
        worker would, one batch at a time.
        """
        if worker is not None:
            try:
                report, failure, snapshot = worker.evaluate(
                    batch.requests, batch.client
                )
            except WorkerLost:
                worker.close()
                self._lost.set()
            else:
                self._merge(snapshot)
                return report, failure
        if not self._workers:
            return evaluate_batch(
                self.config, batch.requests, batch.client, self.session
            )
        with self._local:
            report, failure, snapshot = worker_batch(
                self.config,
                self.session.active_fault_plan,
                batch.requests,
                batch.client,
            )
        self._merge(snapshot)
        return report, failure

    def _merge(self, snapshot: dict) -> None:
        with self.registry.lock:
            self.registry.merge(snapshot)
            if self._lost.is_set():
                # The snapshot reads 0: its own batch did not degrade.
                self.registry.gauge("qbss_degraded").set(1.0)

    def _journal_completion(self, batch: Batch) -> None:
        """Mark a fully-evaluated batch complete, shard by shard.

        Completion marks are an optimization, not a correctness
        requirement: a crash *after* evaluation but *before* the marks
        merely re-runs the batch on restart, where the idempotent cache
        reproduces the identical payloads.  So journal I/O trouble here
        is swallowed — the scheduler must never die on a full disk.
        """
        if self.journal is None or batch.batch_id is None:
            return
        try:
            if batch.report is not None:
                for shard in batch.report.shards:
                    self.journal.log_shard_complete(
                        batch.batch_id,
                        int(shard.get("index", -1)),
                        shard_payload_digest(shard),
                    )
            self.journal.log_batch_complete(
                batch.batch_id, "ok" if batch.error is None else "error"
            )
        except OSError:  # pragma: no cover - best effort; replay is idempotent
            pass

    def response_envelopes(self, batch: Batch) -> list[dict]:
        """The JSONL response stream for one finished batch."""
        if batch.error is not None or batch.report is None:
            error = batch.error or ServeError("internal", "batch lost its report")
            return [error.to_dict()]
        report = batch.report
        envelopes = [protocol.shard_envelope(shard) for shard in report.shards]
        envelopes.append(
            protocol.summary_envelope(
                n_jobs=report.n_jobs,
                n_shards=len(report.shards),
                failed_shards=len(report.failed_shards),
                algorithms=list(report.algorithms),
                alpha=report.alpha,
                shard_window=report.shard_window,
                noise_model=report.noise_model,
                seed=report.seed,
                deadline_slack=report.deadline_slack,
            )
        )
        return envelopes

    # -- read-only surfaces ----------------------------------------------------------

    def health(self) -> dict:
        return {
            "status": "draining" if self._draining.is_set() else "ok",
            "version": PACKAGE_VERSION,
            "protocol": protocol.SERVE_PROTOCOL_VERSION,
            "queue_depth": self.queue.depth,
            "queue_limit": self.queue.max_jobs,
            "journal": str(self.journal.path) if self.journal else None,
        }

    def metrics_text(self) -> str:
        return self.registry.to_prometheus()

    # -- one-shot (stdin) mode -------------------------------------------------------

    def serve_once(self, body: str, *, client: str = "stdin") -> tuple[int, str]:
        """Evaluate one submission inline (no queue, no threads).

        The stdin JSONL mode: the pipe itself is the backpressure, so
        admission control does not apply — but the warm session, the
        metrics and the response vocabulary are exactly the HTTP path's.
        Returns ``(exit_code, jsonl_text)``.
        """
        while self._recovered_batches:
            self._evaluate(self._recovered_batches.popleft(), None)
        try:
            requests = protocol.parse_jobs_payload(body, source=f"client:{client}")
        except ProtocolError as exc:
            self._count_rejection("invalid_request", 1)
            error = ServeError("invalid_request", str(exc))
            return 1, protocol.encode_jsonl([error.to_dict()])
        batch = Batch(requests, client, admitted_at=time.monotonic())
        try:
            self._journal_admission(batch)
        except ServeError as err:
            return 1, protocol.encode_jsonl([err.to_dict()])
        with self.registry.lock:
            self._admitted.inc(len(requests))
        self._evaluate(batch, None)
        code = 0 if batch.error is None else 1
        return code, protocol.encode_jsonl(self.response_envelopes(batch))


# -- the HTTP surface ---------------------------------------------------------------


def _make_httpd(server: QbssServer) -> ThreadingHTTPServer:
    handler = type("QbssServeHandler", (_Handler,), {"qbss": server})
    return ThreadingHTTPServer((server.config.host, server.config.port), handler)


class _Handler(BaseHTTPRequestHandler):
    """Routes: ``POST /v1/jobs``, ``GET /healthz``, ``GET /metrics``."""

    qbss: QbssServer  # bound by _make_httpd
    server_version = f"qbss-serve/{PACKAGE_VERSION}"
    protocol_version = "HTTP/1.1"
    # One socket write per response: http.server flushes the buffered
    # stream after each request.  Headers and body sent apart made a
    # kept-alive client wait out a delayed ACK on every response.
    wbufsize = 1 << 16
    # A response larger than the buffer still goes out without delay.
    disable_nagle_algorithm = True

    def handle_expect_100(self) -> bool:
        """Send ``100 Continue`` at once: the client holds the body back
        until it arrives, and the buffer would keep it until the response."""
        accepted = super().handle_expect_100()
        self.wfile.flush()
        return accepted

    def log_message(self, format: str, *args: object) -> None:
        """Silence the stock per-request stderr access log; the daemon's
        observable surface is /metrics, not chatter on stderr."""

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/healthz":
            body = json.dumps(self.qbss.health(), sort_keys=True) + "\n"
            self._send(200, body, "application/json")
        elif self.path == "/metrics":
            self._send(200, self.qbss.metrics_text(), "text/plain; version=0.0.4")
        else:
            self._send_error_envelope(
                ServeError("invalid_request", f"no such path {self.path!r}", status=404)
            )

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self.path != "/v1/jobs":
            self._send_error_envelope(
                ServeError("invalid_request", f"no such path {self.path!r}", status=404)
            )
            return
        client = self.headers.get("X-QBSS-Client", "anonymous")
        try:
            length = self.qbss.body_length(self.headers.get("Content-Length"))
            self.qbss.check_budget(client)
        except ServeError as err:
            # The body stays unread, so the connection cannot carry more.
            self._send_error_envelope(err, close=True)
            return
        body = self.rfile.read(length).decode("utf-8", errors="replace")
        try:
            batch = self.qbss.submit_payload(body, client)
        except ServeError as err:
            self._send_error_envelope(err)
            return
        if not batch.done.wait(self.qbss.config.request_timeout):
            self._send_error_envelope(
                ServeError(
                    "timeout",
                    f"batch not evaluated within {self.qbss.config.request_timeout}s",
                )
            )
            return
        envelopes = self.qbss.response_envelopes(batch)
        status = batch.error.status if batch.error is not None else 200
        self._send(status, protocol.encode_jsonl(envelopes), "application/jsonl")

    def _send_error_envelope(self, err: ServeError, *, close: bool = False) -> None:
        self._send(
            err.status,
            protocol.encode_jsonl([err.to_dict()]),
            "application/jsonl",
            close=close,
        )

    def _send(
        self, status: int, body: str, content_type: str, *, close: bool = False
    ) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if close:
            # Also makes http.server close the connection after this response.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)
