"""The typed client for ``qbss-serve``.

:class:`Client` speaks the JSONL protocol over plain
:mod:`http.client` (stdlib only) and returns a :class:`ServeResult` —
the Client/Runner/typed-result split: transport here, evaluation in the
daemon, a structured result object for callers.

Rejections come back as :class:`ServeClientError` carrying the same
structured ``code``/``status``/``detail`` the server put on the wire,
plus ``attempts`` — how many tries the client spent, because transient
failures are retried with bounded, seeded-deterministic exponential
backoff (the engine's :class:`~repro.engine.faults.RetryPolicy`):

* connection-level errors (daemon restarting, listener not up yet), and
* ``queue_full`` 429 rejections (admission backpressure).

Resubmitting after an ambiguous connection failure is at-least-once
delivery, which is safe here: shard evaluation is deterministic and the
server's content-addressed cache makes re-execution idempotent, so a
duplicate submission returns byte-identical payloads.  Deterministic
rejections (``invalid_request``, ``rate_limited``, ``draining``) are
never retried.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Mapping

from ..engine.faults import RetryPolicy
from ..obs.metrics import LabelItems, parse_prometheus_text
from .protocol import (
    RETRYABLE_CODES,
    JobRequest,
    ProtocolError,
    parse_response_lines,
)

#: Default client retry budget: 3 total attempts, short seeded backoff.
DEFAULT_CLIENT_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.05, backoff_cap=1.0)


class ServeClientError(Exception):
    """A structured server rejection, reconstructed client-side.

    ``attempts`` is how many tries the client made before giving up
    (1 when the failure was not retryable).
    """

    def __init__(self, code: str, detail: str, status: int, attempts: int = 1):
        super().__init__(f"{code} (HTTP {status}): {detail}")
        self.code = code
        self.detail = detail
        self.status = status
        self.attempts = attempts

    @classmethod
    def from_envelope(cls, envelope: Mapping[str, object]) -> ServeClientError:
        return cls(
            code=str(envelope.get("code", "internal")),
            detail=str(envelope.get("detail", "")),
            status=int(envelope.get("status", 500)),  # type: ignore[arg-type]
        )


@dataclass
class ServeResult:
    """One submission's evaluated outcome.

    ``shards`` holds the per-shard payloads exactly as ``qbss-replay``
    would report them (same keys, same normalization); ``summary`` is
    the closing envelope's stream-level tallies.
    """

    shards: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_jobs(self) -> int:
        return sum(int(s.get("n_jobs", 0)) for s in self.shards)

    @property
    def failed_shards(self) -> list[dict]:
        return [
            s for s in self.shards if s.get("status", "ok") in ("error", "timeout")
        ]

    @property
    def ok(self) -> bool:
        """True when every shard evaluated (``ok`` or ``degraded``)."""
        return not self.failed_shards

    def ratios_for(self, algorithm: str) -> list[float]:
        """Per-shard energy ratios of one algorithm, in shard order."""
        return [
            float(row["energy_ratio"])
            for s in self.shards
            for row in s.get("rows") or []
            if row["algorithm"] == algorithm
        ]


def _job_to_dict(job: object) -> dict:
    if isinstance(job, JobRequest):
        return job.to_dict()
    if isinstance(job, Mapping):
        return dict(job)
    raise TypeError(
        f"jobs must be JobRequest or mapping, got {type(job).__name__}"
    )


class Client:
    """A thin, typed HTTP client for one ``qbss-serve`` daemon.

    One connection per call, so a single ``Client`` may be shared across
    threads.  The daemon serves each connection on its own thread and
    keeps it alive between requests, but a ``Client`` does not reuse it.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_id: str = "anonymous",
        timeout: float = 300.0,
        retry: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout
        self.retry = retry if retry is not None else DEFAULT_CLIENT_RETRY
        #: Injectable backoff sleeper — tests pass a recorder and assert
        #: the exact seeded delay sequence without real waiting.
        self.sleep = sleep

    def _request(
        self, method: str, path: str, body: str | None = None
    ) -> tuple[int, str]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            headers = {"X-QBSS-Client": self.client_id}
            if body is not None:
                headers["Content-Type"] = "application/jsonl"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read().decode("utf-8")
        finally:
            conn.close()

    def _request_retrying(
        self, method: str, path: str, body: str | None = None, *, attempts: int = 0
    ) -> tuple[int, int, str]:
        """One exchange, retrying connection-level failures with backoff.

        Returns ``(attempts_used, status, text)`` where ``attempts_used``
        includes the ``attempts`` already consumed by the caller (so an
        outer ``queue_full`` loop and this inner loop share one budget).
        Exhaustion raises a client-synthesized ``unavailable`` error.
        """
        task = f"{method} {path}:{self.client_id}"
        while True:
            attempts += 1
            try:
                status, text = self._request(method, path, body=body)
                return attempts, status, text
            except (OSError, http.client.HTTPException) as exc:
                if attempts >= self.retry.max_attempts:
                    raise ServeClientError(
                        "unavailable",
                        f"connection to {self.host}:{self.port} failed "
                        f"after {attempts} attempt(s): {exc}",
                        503,
                        attempts=attempts,
                    ) from exc
                self.sleep(self.retry.delay(task, attempts))

    def submit(self, jobs: Iterable[object]) -> ServeResult:
        """Submit a release-sorted job stream; block for its evaluation.

        ``jobs`` may be :class:`JobRequest` objects or plain mappings
        with the same fields.  Connection failures and ``queue_full``
        rejections are retried up to the policy budget; exhaustion (or
        any non-retryable rejection — rate limited, draining, invalid
        request) raises :class:`ServeClientError` with ``attempts`` set.
        Raises :class:`ProtocolError` on undecodable responses.
        """
        payload = "".join(
            json.dumps(_job_to_dict(job), sort_keys=True) + "\n" for job in jobs
        )
        task = f"submit:{self.client_id}"
        attempts = 0
        while True:
            attempts, status, text = self._request_retrying(
                "POST", "/v1/jobs", body=payload, attempts=attempts
            )
            try:
                return self._parse_submission(status, text)
            except ServeClientError as exc:
                exc.attempts = attempts
                if (
                    exc.code not in RETRYABLE_CODES
                    or attempts >= self.retry.max_attempts
                ):
                    raise
                self.sleep(self.retry.delay(task, attempts))

    def _parse_submission(self, status: int, text: str) -> ServeResult:
        result = ServeResult()
        for envelope in parse_response_lines(text):
            kind = envelope["kind"]
            if kind == "error":
                raise ServeClientError.from_envelope(envelope)
            if kind == "shard_result":
                result.shards.append(envelope["shard"])
            elif kind == "summary":
                result.summary = envelope
            else:
                raise ProtocolError(
                    "<response>", 1, f"unknown envelope kind {kind!r}"
                )
        if status != 200:
            raise ServeClientError("internal", f"HTTP {status}: {text!r}", status)
        return result

    def healthz(self) -> dict:
        attempts, status, text = self._request_retrying("GET", "/healthz")
        if status != 200:
            raise ServeClientError(
                "internal", f"HTTP {status}: {text!r}", status, attempts=attempts
            )
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ProtocolError("<response>", 1, "healthz payload is not an object")
        return data

    def metrics_text(self) -> str:
        attempts, status, text = self._request_retrying("GET", "/metrics")
        if status != 200:
            raise ServeClientError(
                "internal", f"HTTP {status}: {text!r}", status, attempts=attempts
            )
        return text

    def metrics(self) -> dict[tuple[str, LabelItems], float]:
        """The scraped ``/metrics`` samples, parsed."""
        return parse_prometheus_text(self.metrics_text())
