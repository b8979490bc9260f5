"""The versioned wire vocabulary of ``qbss-serve``.

Requests are job dictionaries — one JSON object per JSONL line, or a
JSON array of the same objects — mirroring :class:`repro.traces.records.
TraceRecord` field for field (minus ``index``, which the *server*
assigns in admission order so the synthesizer's per-record RNG draws
match a ``qbss-replay`` of the same stream exactly).

Responses are JSONL envelopes, one object per line, each tagged with
``kind`` and the protocol version:

* ``{"kind": "shard_result", "version": 1, "shard": {...}}`` — one per
  evaluated shard, carrying the *same* payload ``qbss-replay`` puts in
  ``ReplayReport.shards`` (including ``status``/``failure`` for
  degraded, errored or timed-out shards — a failed shard is a structured
  response, never a dead daemon);
* ``{"kind": "summary", "version": 1, ...}`` — the closing envelope
  with stream-level tallies;
* ``{"kind": "error", "version": 1, "code": ..., "status": ...,
  "detail": ...}`` — a structured rejection (:class:`ServeError`):
  ``queue_full``/``rate_limited`` map to HTTP 429, ``draining`` to 503,
  ``invalid_request`` to 400.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from collections.abc import Iterable, Iterator

from ..traces.records import TraceRecord

SERVE_PROTOCOL_VERSION = 1

#: Structured rejection codes and the HTTP status each maps to.
#: ``unavailable`` is client-synthesized (connection-level failure after
#: the retry budget) — it never appears in a server response envelope.
ERROR_STATUS = {
    "invalid_request": 400,
    "rate_limited": 429,
    "queue_full": 429,
    "draining": 503,
    "unavailable": 503,
    "timeout": 504,
    "internal": 500,
}

#: Byte budget of one job record in a request body.  qbss-serve refuses,
#: unread, any body longer than ``queue_limit * MAX_RECORD_BYTES``: it
#: would carry more jobs than the queue ever admits.
MAX_RECORD_BYTES = 4096

#: Rejection codes a client may transparently retry with backoff: the
#: condition is load-dependent, and resubmission is safe because shard
#: evaluation is deterministic and the result cache idempotent.
RETRYABLE_CODES = frozenset({"queue_full"})

_OPTIONAL_FIELDS = ("deadline", "requested", "query_cost")
_KNOWN_FIELDS = frozenset(("id", "release", "runtime", *_OPTIONAL_FIELDS))


class ProtocolError(ValueError):
    """A malformed job request, located by source label and 1-based line."""

    def __init__(self, source: str, line: int, message: str):
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line
        self.reason = message


class ServeError(Exception):
    """A structured service rejection with a stable code and HTTP status.

    Raised server-side on admission failures and rendered as the
    ``error`` response envelope; the client re-raises it (as
    :class:`repro.serve.client.ServeClientError`) from the same fields.
    """

    def __init__(self, code: str, detail: str, status: int | None = None):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail
        self.status = status if status is not None else ERROR_STATUS.get(code, 500)

    def to_dict(self) -> dict:
        return {
            "kind": "error",
            "version": SERVE_PROTOCOL_VERSION,
            "code": self.code,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class JobRequest:
    """One requested job — a :class:`TraceRecord` minus the index.

    The index is deliberately absent: it is assigned by the server in
    admission order, which is what keeps the per-record noise draws (and
    therefore every shard payload) byte-identical to a ``qbss-replay``
    of the same stream.
    """

    id: str
    release: float
    runtime: float
    deadline: float | None = None
    requested: float | None = None
    query_cost: float | None = None

    @classmethod
    def from_dict(
        cls, data: object, *, source: str = "<request>", line: int = 1
    ) -> JobRequest:
        """Validate one request object; raises :class:`ProtocolError`."""
        if not isinstance(data, dict):
            raise ProtocolError(
                source, line, f"job request must be an object, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - _KNOWN_FIELDS)
        if unknown:
            raise ProtocolError(
                source, line,
                f"unknown field(s) {', '.join(unknown)} "
                f"(known: {', '.join(sorted(_KNOWN_FIELDS))})",
            )
        for required in ("release", "runtime"):
            if data.get(required) is None:
                raise ProtocolError(source, line, f"missing required field {required!r}")
        values: dict[str, float | None] = {}
        for name in ("release", "runtime", *_OPTIONAL_FIELDS):
            raw = data.get(name)
            if raw is None:
                values[name] = None
                continue
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                raise ProtocolError(
                    source, line, f"field {name!r} must be a number, got {raw!r}"
                )
            try:
                value = float(raw)
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise ProtocolError(
                    source, line, f"field {name!r} must be finite, got {value}"
                )
            values[name] = value
        release, runtime = values["release"], values["runtime"]
        assert release is not None and runtime is not None
        if release < 0.0:
            raise ProtocolError(source, line, f"release must be >= 0, got {release}")
        if runtime <= 0.0:
            raise ProtocolError(source, line, f"runtime must be > 0, got {runtime}")
        deadline = values["deadline"]
        if deadline is not None and deadline <= release:
            raise ProtocolError(
                source, line,
                f"deadline {deadline} must exceed release {release}",
            )
        query_cost = values["query_cost"]
        if query_cost is not None and query_cost <= 0.0:
            raise ProtocolError(
                source, line, f"query_cost must be > 0, got {query_cost}"
            )
        job_id = data.get("id", f"t{line}")
        return cls(
            id=str(job_id),
            release=release,
            runtime=runtime,
            deadline=deadline,
            requested=values["requested"],
            query_cost=query_cost,
        )

    def to_dict(self) -> dict:
        # Field access, not dataclasses.asdict: asdict's recursive copy
        # costs ~10x as much, and this runs per job on the journalled
        # admission path.
        data = {
            "id": self.id,
            "release": self.release,
            "runtime": self.runtime,
            "deadline": self.deadline,
            "requested": self.requested,
            "query_cost": self.query_cost,
        }
        return {k: v for k, v in data.items() if v is not None}

    def to_record(self, index: int) -> TraceRecord:
        """The trace record this request becomes at position ``index``."""
        return TraceRecord(
            index=index,
            id=self.id,
            release=self.release,
            runtime=self.runtime,
            deadline=self.deadline,
            requested=self.requested,
            query_cost=self.query_cost,
        )


#: What ``json.loads`` raises on hostile bodies besides ``JSONDecodeError``:
#: ``ValueError`` for an integer over ``sys.get_int_max_str_digits()``
#: digits, ``RecursionError`` for arrays or objects nested too deep.
_JSON_ERRORS = (ValueError, RecursionError)


def parse_jobs_payload(
    body: str, *, source: str = "<request>"
) -> list[JobRequest]:
    """Parse a request body — JSONL (one object per line) or a JSON array.

    Raises :class:`ProtocolError` with the offending line on any
    malformed record; an empty payload is an error (an empty submission
    has no meaningful response stream).
    """
    stripped = body.lstrip()
    if stripped.startswith("["):
        try:
            items = json.loads(body)
        except _JSON_ERRORS as exc:
            raise ProtocolError(source, 1, f"invalid JSON array: {exc}") from exc
        requests = [
            JobRequest.from_dict(item, source=source, line=i + 1)
            for i, item in enumerate(items)
        ]
    else:
        requests = []
        for lineno, line in enumerate(body.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except _JSON_ERRORS as exc:
                raise ProtocolError(
                    source, lineno, f"invalid JSON: {exc}"
                ) from exc
            requests.append(JobRequest.from_dict(data, source=source, line=lineno))
    if not requests:
        raise ProtocolError(source, 1, "empty submission (no job requests)")
    releases = [r.release for r in requests]
    if releases != sorted(releases):
        raise ProtocolError(
            source, 1,
            "jobs must be sorted by release time (bounded-memory sharding "
            "streams in release order)",
        )
    return requests


# -- response envelopes -------------------------------------------------------------


def shard_envelope(payload: dict) -> dict:
    """Wrap one replay shard payload for the response stream."""
    return {
        "kind": "shard_result",
        "version": SERVE_PROTOCOL_VERSION,
        "shard": payload,
    }


def summary_envelope(
    *,
    n_jobs: int,
    n_shards: int,
    failed_shards: int,
    algorithms: list[str],
    alpha: float,
    shard_window: float,
    noise_model: str,
    seed: int,
    deadline_slack: float,
) -> dict:
    """The closing envelope of one response stream."""
    return {
        "kind": "summary",
        "version": SERVE_PROTOCOL_VERSION,
        "n_jobs": n_jobs,
        "n_shards": n_shards,
        "failed_shards": failed_shards,
        "algorithms": algorithms,
        "alpha": alpha,
        "shard_window": shard_window,
        "noise_model": noise_model,
        "seed": seed,
        "deadline_slack": deadline_slack,
    }


def encode_jsonl(envelopes: Iterable[dict]) -> str:
    """Serialize envelopes as JSONL, deterministically ordered keys."""
    return "".join(
        json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n"
        for e in envelopes
    )


def parse_response_lines(text: str) -> Iterator[dict]:
    """Parse a JSONL response stream back into envelope dicts."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            envelope = json.loads(line)
        except _JSON_ERRORS as exc:
            raise ProtocolError("<response>", lineno, f"invalid JSON: {exc}") from exc
        if not isinstance(envelope, dict) or "kind" not in envelope:
            raise ProtocolError(
                "<response>", lineno, "response envelope missing 'kind'"
            )
        yield envelope
