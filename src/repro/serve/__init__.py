"""repro.serve — a long-lived QBSS scheduling service.

Every other entry point in this repository is a batch CLI: it pays
cold-start (interpreter, imports, pool spin-up, cache open, clairvoyant
baseline) on every invocation.  ``repro.serve`` turns the stack into a
daemon: warm evaluation workers, or one warm
:class:`~repro.engine.session.ExecutionSession`, outlive thousands of
requests, the content-addressed shard cache stays open, and job streams
arrive over HTTP/JSON (or stdin JSONL) instead of trace files.

The pieces (``docs/serving.md`` has the full protocol):

* :mod:`repro.serve.protocol` — the versioned JSONL request/response
  vocabulary (:class:`JobRequest`, envelopes, :class:`ServeError`);
* :mod:`repro.serve.queue` — the bounded admission queue (reject, don't
  buffer, when the daemon is saturated);
* :mod:`repro.serve.rate` — per-client token-bucket rate accounting;
* :mod:`repro.serve.journal` — the fsync'd write-ahead admission
  journal (:class:`AdmissionJournal`): submissions are durable before
  they are acknowledged, and incomplete entries replay on restart;
* :mod:`repro.serve.workers` — the batch body and the evaluation
  workers ``QbssServer.start`` forks to run ``jobs`` batches at once;
* :mod:`repro.serve.server` — :class:`QbssServer`: admission, the
  scheduler threads, the HTTP endpoints
  (``/v1/jobs``, ``/healthz``, ``/metrics``), crash recovery
  (:meth:`QbssServer.recover`), graceful drain;
* :mod:`repro.serve.client` — the typed :class:`Client` /
  :class:`ServeResult` pair;
* :mod:`repro.serve.cli` — the ``qbss-serve`` console script.

Quick start::

    from repro.serve import Client, QbssServer, ServeConfig

    server = QbssServer(ServeConfig(port=0))
    server.start()
    try:
        client = Client("127.0.0.1", server.port)
        result = client.submit(
            [{"id": "a", "release": 0.0, "runtime": 30.0}]
        )
        print(result.ratios_for("avrq"))
    finally:
        server.begin_drain()
        server.drain()
"""

from .client import Client, ServeClientError, ServeResult
from .journal import AdmissionJournal, JournalRecord, RecoveryReport
from .protocol import (
    SERVE_PROTOCOL_VERSION,
    JobRequest,
    ProtocolError,
    ServeError,
    parse_jobs_payload,
    parse_response_lines,
)
from .queue import AdmissionQueue, QueueClosedError, QueueFullError
from .rate import RateLimiter, TokenBucket
from .server import QbssServer, ServeConfig

__all__ = [
    "SERVE_PROTOCOL_VERSION",
    "JobRequest",
    "ProtocolError",
    "ServeError",
    "parse_jobs_payload",
    "parse_response_lines",
    "AdmissionQueue",
    "QueueClosedError",
    "QueueFullError",
    "RateLimiter",
    "TokenBucket",
    "QbssServer",
    "ServeConfig",
    "Client",
    "ServeClientError",
    "ServeResult",
    "AdmissionJournal",
    "JournalRecord",
    "RecoveryReport",
]
