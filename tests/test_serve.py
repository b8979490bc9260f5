"""repro.serve: protocol, admission, rate accounting, the live daemon,
graceful drain, /metrics, and the byte-identity contract with qbss-replay.

The live-daemon tests bind to 127.0.0.1 port 0 (OS-assigned), talk
through the typed :class:`repro.serve.client.Client`, and always drain
before tearing down — the same lifecycle the CLI drives on SIGTERM.
"""

import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import ExecutionSession, FaultPlan, FaultSpec, RetryPolicy
from repro.obs.metrics import parse_prometheus_text
from repro.serve import (
    AdmissionQueue,
    Client,
    JobRequest,
    ProtocolError,
    QbssServer,
    QueueClosedError,
    QueueFullError,
    RateLimiter,
    ServeClientError,
    ServeConfig,
    ServeError,
    parse_jobs_payload,
    parse_response_lines,
)
from repro.serve.protocol import (
    ERROR_STATUS,
    SERVE_PROTOCOL_VERSION,
    encode_jsonl,
)
from repro.traces.replay import replay_trace

from _testutil import SRC_UNDER_TEST, SpyLock

QUICK = RetryPolicy(max_attempts=2, backoff_base=0.001, backoff_cap=0.01)

#: Arbitrary JSON-like values, NaN, infinities and huge integers included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
REQUEST_KEYS = st.sampled_from(
    ["id", "release", "runtime", "deadline", "requested", "query_cost"]
) | st.text(max_size=4)
#: One line of a response stream: JSON text, junk, or hostile nesting and
#: digit counts.
RESPONSE_LINES = (
    st.dictionaries(
        st.sampled_from(["kind", "version"]) | st.text(max_size=3), JSON_VALUES
    ).map(json.dumps)
    | JSON_VALUES.map(json.dumps)
    | st.text(max_size=8)
    | st.sampled_from(["[" * 100_000, '{"kind": ' + "9" * 5000 + "}", "{" * 3000])
)


#: Seconds any one request body may take to parse (it takes milliseconds).
BODY_SECONDS = 2.0
#: Hostile fragments spliced into otherwise valid bodies.
HOSTILE = st.sampled_from(
    [
        b"[" * 5000,
        b"{" * 3000,
        b'"' + b"[" * 900,
        b"9" * 5000,
        b"-" + b"1" * 5000 + b".5",
        b"1e999",
        b"NaN",
        b"Infinity",
        b"-Infinity",
        b"true",
        b"false",
        b"null",
        b"\xff\xfe\x80",
        b"\xed\xa0\x80",
        b"\n",
        b",",
        b"]",
        b"}",
    ]
) | st.binary(max_size=6)


@st.composite
def mutated_bodies(draw):
    """A valid JSONL or JSON-array submission with hostile fragments
    spliced in, or spans cut out, at random byte offsets."""
    records = draw(
        st.lists(
            st.fixed_dictionaries(
                {"release": st.integers(0, 50) | st.floats(0.0, 50.0), "runtime": st.floats(0.1, 9.0)},
                optional={
                    "id": st.text(max_size=4) | st.integers() | JSON_VALUES,
                    "deadline": st.floats(50.0, 99.0),
                    "query_cost": st.floats(0.01, 2.0),
                    "requested": st.floats(0.1, 9.0),
                },
            ),
            min_size=1,
            max_size=5,
        )
    )
    records.sort(key=lambda r: r["release"])
    if draw(st.booleans()):
        body = bytearray(json.dumps(records).encode())
    else:
        body = bytearray("\n".join(json.dumps(r) for r in records).encode())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(body)))
        if draw(st.booleans()):
            body[at:at] = draw(HOSTILE)
        else:
            del body[at:at + draw(st.integers(1, 8))]
    return bytes(body)


MUTATED_BODIES = mutated_bodies()


def job_lines(n, *, window=40.0, spacing=2.0):
    """A release-sorted JSONL submission of ``n`` jobs."""
    lines = []
    for i in range(n):
        release = i * spacing
        lines.append(
            json.dumps(
                {
                    "id": f"j{i}",
                    "release": release,
                    "deadline": release + window,
                    "runtime": 1.0 + (i % 7) * 0.5,
                }
            )
        )
    return "\n".join(lines) + "\n"


def submission(body):
    return [json.loads(line) for line in body.splitlines()]


def small_config(tmp_path, **overrides):
    defaults = dict(
        shard_window=250.0,
        seed=3,
        cache_dir=tmp_path / "cache",
        jobs=1,
        retry=QUICK,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


# -- protocol -----------------------------------------------------------------------


class TestProtocol:
    def test_job_request_round_trip(self):
        req = JobRequest.from_dict(
            {"id": "a", "release": 1.0, "runtime": 2.0, "deadline": 5.0}
        )
        assert req.to_dict() == {
            "id": "a",
            "release": 1.0,
            "runtime": 2.0,
            "deadline": 5.0,
        }
        record = req.to_record(7)
        assert record.index == 7 and record.id == "a"
        # Nones are dropped on the wire
        assert "query_cost" not in req.to_dict()

    def test_parse_accepts_jsonl_and_array(self):
        jsonl = parse_jobs_payload(job_lines(3))
        array = parse_jobs_payload(
            json.dumps([json.loads(line) for line in job_lines(3).splitlines()])
        )
        assert jsonl == array
        assert [r.id for r in jsonl] == ["j0", "j1", "j2"]

    def test_default_id_from_line_number(self):
        reqs = parse_jobs_payload(
            '{"release": 0, "runtime": 1}\n{"release": 1, "runtime": 1}\n'
        )
        assert [r.id for r in reqs] == ["t1", "t2"]

    @pytest.mark.parametrize(
        ("body", "fragment"),
        [
            ("", "empty submission"),
            ("{not json}", "invalid JSON"),
            ('{"runtime": 1}', "missing required field 'release'"),
            ('{"release": 0}', "missing required field 'runtime'"),
            ('{"release": -1, "runtime": 1}', "release must be >= 0"),
            ('{"release": 0, "runtime": 0}', "runtime must be > 0"),
            ('{"release": 5, "runtime": 1, "deadline": 5}', "must exceed release"),
            ('{"release": 0, "runtime": 1, "query_cost": 0}', "query_cost"),
            ('{"release": 0, "runtime": true}', "must be a number"),
            ('{"release": 0, "runtime": 1, "bogus": 1}', "unknown field"),
            ("[1, 2]", "must be an object"),
            pytest.param(
                '{"release": 0, "runtime": ' + "1" * 5000 + "}", "invalid JSON",
                id="5000-digit-int",
            ),
            pytest.param(
                "[" * 100_000 + "]" * 100_000, "invalid JSON", id="deep-array"
            ),
            pytest.param(
                '{"release": ' + "[" * 100_000, "invalid JSON", id="deep-field"
            ),
        ],
    )
    def test_malformed_requests_are_located(self, body, fragment):
        with pytest.raises(ProtocolError) as excinfo:
            parse_jobs_payload(body, source="client:test")
        assert fragment in str(excinfo.value)
        assert "client:test" in str(excinfo.value)

    @pytest.mark.parametrize(
        "body",
        [
            '{"release": NaN, "runtime": 1}',
            '{"release": 0, "runtime": Infinity}',
            '{"release": 0, "runtime": 1, "deadline": Infinity}',
            '{"release": 0, "runtime": 1, "requested": -Infinity}',
            '{"release": 1e999, "runtime": 1}',
        ],
    )
    def test_non_finite_numbers_are_invalid_requests(self, body):
        """NaN and infinities fail closed as a 400, never reach admission."""
        with pytest.raises(ProtocolError, match="must be finite"):
            parse_jobs_payload(body, source="client:test")

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(REQUEST_KEYS, JSON_VALUES, max_size=7))
    @example({"release": math.nan, "runtime": 1})
    @example({"release": 0, "runtime": math.inf})
    @example({"release": 0, "runtime": 1, "deadline": math.inf})
    @example({"release": 0, "runtime": 10**400})
    def test_from_dict_fails_closed_or_is_finite(self, data):
        try:
            req = JobRequest.from_dict(data)
        except ProtocolError:
            return
        numbers = [req.release, req.runtime, req.deadline, req.requested, req.query_cost]
        assert all(math.isfinite(x) for x in numbers if x is not None)

    def test_unsorted_releases_rejected(self):
        body = (
            '{"release": 5, "runtime": 1}\n{"release": 0, "runtime": 1}\n'
        )
        with pytest.raises(ProtocolError, match="sorted by release"):
            parse_jobs_payload(body)

    def test_error_envelope_carries_status(self):
        for code, status in ERROR_STATUS.items():
            envelope = ServeError(code, "detail").to_dict()
            assert envelope["kind"] == "error"
            assert envelope["version"] == SERVE_PROTOCOL_VERSION
            assert envelope["status"] == status

    def test_jsonl_round_trip(self):
        envelopes = [
            {"kind": "shard_result", "version": 1, "shard": {"index": 0}},
            {"kind": "summary", "version": 1, "n_jobs": 1},
        ]
        text = encode_jsonl(envelopes)
        assert list(parse_response_lines(text)) == envelopes

    def test_response_without_kind_rejected(self):
        with pytest.raises(ProtocolError, match="kind"):
            list(parse_response_lines('{"version": 1}\n'))

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param("[" * 100_000, id="deep-array"),
            pytest.param('{"kind": ' + "9" * 5000 + "}", id="5000-digit-int"),
        ],
    )
    def test_hostile_response_lines_are_located(self, line):
        text = '{"kind": "summary"}\n' + line + "\n"
        with pytest.raises(ProtocolError, match="invalid JSON") as excinfo:
            list(parse_response_lines(text))
        assert excinfo.value.line == 2

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=400) | MUTATED_BODIES)
    @example(b'{"release": 0, "runtime": 1, "id": ' + b"[" * 990 + b"]" * 990 + b"}")
    @example(b'[{"release": 0, "runtime": 1}, ' + b"[" * 5000 + b"]")
    @example(b'{"release": 0, "runtime": 1}\n\xff\xfe{"release": 1, "runtime": 1}')
    @example(b'{"release": 0, "runtime": 1, "id": ' + b"7" * 5000 + b"}")
    def test_whole_bodies_fail_closed_in_bounded_time(self, body):
        """Any body, decoded as the server decodes it, yields a
        ProtocolError or valid, release-sorted requests, in bounded time."""
        text = body.decode("utf-8", errors="replace")
        start = time.perf_counter()
        try:
            requests = parse_jobs_payload(text, source="client:fuzz")
        except ProtocolError as exc:
            assert str(exc).startswith("client:fuzz:")
            requests = None
        assert time.perf_counter() - start < BODY_SECONDS
        if requests is None:
            return
        assert requests
        for req in requests:
            assert isinstance(req, JobRequest) and isinstance(req.id, str)
            numbers = [req.release, req.runtime, req.deadline, req.requested, req.query_cost]
            assert all(math.isfinite(x) for x in numbers if x is not None)
            assert req.release >= 0.0 and req.runtime > 0.0
        releases = [r.release for r in requests]
        assert releases == sorted(releases)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(RESPONSE_LINES, max_size=4))
    def test_response_lines_fail_closed(self, lines):
        try:
            envelopes = list(parse_response_lines("\n".join(lines)))
        except ProtocolError:
            return
        assert all(isinstance(e, dict) and "kind" in e for e in envelopes)


# -- admission queue ----------------------------------------------------------------


class TestAdmissionQueue:
    def test_fifo_and_depth_accounting(self):
        q = AdmissionQueue(10)
        q.submit("a", 3)
        q.submit("b", 4)
        assert q.depth == 7 and q.batches == 2
        assert q.pop() == "a"
        assert q.depth == 4
        assert q.pop() == "b"
        assert q.depth == 0

    def test_overflow_rejects_with_structured_fields(self):
        q = AdmissionQueue(5)
        q.submit("a", 4)
        with pytest.raises(QueueFullError) as excinfo:
            q.submit("b", 2)
        assert excinfo.value.requested == 2
        assert excinfo.value.depth == 4
        assert excinfo.value.limit == 5
        # rejected batch costs nothing
        assert q.depth == 4

    def test_oversize_batch_rejected_even_blocking(self):
        q = AdmissionQueue(5)
        with pytest.raises(QueueFullError):
            q.submit("huge", 6, block=True)

    def test_blocking_submit_waits_for_capacity(self):
        q = AdmissionQueue(5)
        q.submit("a", 5)
        done = threading.Event()

        def worker():
            q.submit("b", 5, block=True)
            done.set()

        t = threading.Thread(target=worker)
        t.start()
        assert not done.wait(0.05)
        assert q.pop() == "a"
        assert done.wait(5.0)
        t.join()
        assert q.pop() == "b"

    def test_close_drains_then_signals_none(self):
        q = AdmissionQueue(10)
        q.submit("a", 1)
        q.close()
        with pytest.raises(QueueClosedError):
            q.submit("b", 1)
        assert q.pop() == "a"
        assert q.pop() is None
        assert q.closed

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)
        q = AdmissionQueue(1)
        with pytest.raises(ValueError):
            q.submit("a", 0)

    def test_nonblocking_submit_yields_to_waiters(self):
        # A blocked waiter owns any capacity freed while it queues: a
        # non-blocking submit that would otherwise fit is rejected
        # rather than allowed to jump the line.
        q = AdmissionQueue(5)
        q.submit("a", 5)
        waiting = threading.Event()
        admitted = threading.Event()

        def big():
            waiting.set()
            q.submit("big", 4, block=True)
            admitted.set()

        t = threading.Thread(target=big)
        t.start()
        assert waiting.wait(5.0)
        # Give the waiter time to enqueue its ticket.
        deadline = 50
        while not q._waiters and deadline:  # noqa: SLF001 - white-box sync
            threading.Event().wait(0.01)
            deadline -= 1
        assert q.pop() == "a"  # frees all 5 slots
        # 1 job would fit (depth 0 or 4) but the big waiter is ahead.
        with pytest.raises(QueueFullError):
            q.submit("tiny", 1)
        assert admitted.wait(5.0)
        t.join()
        assert q.pop() == "big"
        # With no waiters left, small submissions flow again.
        q.submit("tiny", 1)
        assert q.pop() == "tiny"

    def test_large_blocked_batch_is_not_starved(self):
        # The starvation scenario: a full queue, one large blocked
        # batch, and a continuous stream of small blocking submitters.
        # Without FIFO tickets the small ones snatch every freed slot
        # and depth never dips low enough for the large batch.
        q = AdmissionQueue(4)
        q.submit("seed-0", 2)
        q.submit("seed-1", 2)
        big_admitted = threading.Event()
        stop = threading.Event()

        def big():
            q.submit("big", 4, block=True)
            big_admitted.set()

        def small_stream(tag):
            i = 0
            while not stop.is_set():
                try:
                    q.submit(f"{tag}-{i}", 1, block=True)
                except QueueClosedError:
                    return
                i += 1

        big_thread = threading.Thread(target=big)
        big_thread.start()
        # Let the big batch reach the head of the waiter queue first;
        # FIFO must hold even though the stream arrives right behind it.
        deadline = 100
        while not q._waiters and deadline:  # noqa: SLF001
            threading.Event().wait(0.01)
            deadline -= 1
        streams = [
            threading.Thread(target=small_stream, args=(f"s{k}",), daemon=True)
            for k in range(3)
        ]
        for t in streams:
            t.start()
        popped = []
        try:
            while not big_admitted.is_set():
                popped.append(q.pop())
                assert len(popped) < 500, (
                    f"large batch starved; popped {len(popped)} small batches"
                )
        finally:
            stop.set()
            q.close()
            while q.pop() is not None:
                pass
            big_thread.join(5.0)
            for t in streams:
                t.join(5.0)
        assert big_admitted.is_set()

    def test_close_releases_blocked_waiters(self):
        q = AdmissionQueue(2)
        q.submit("a", 2)
        errors = []
        started = threading.Event()

        def blocked():
            started.set()
            try:
                q.submit("b", 2, block=True)
            except QueueClosedError as exc:
                errors.append(exc)

        t = threading.Thread(target=blocked)
        t.start()
        assert started.wait(5.0)
        deadline = 100
        while not q._waiters and deadline:  # noqa: SLF001
            threading.Event().wait(0.01)
            deadline -= 1
        q.close()
        t.join(5.0)
        assert not t.is_alive()
        assert len(errors) == 1
        # The abandoned ticket does not linger and wedge the queue.
        assert not q._waiters  # noqa: SLF001


# -- rate limiting ------------------------------------------------------------------


class TestRateLimiter:
    def test_none_rate_is_unlimited(self):
        limiter = RateLimiter(None)
        assert limiter.allow("c", 10**9)
        assert limiter.tokens_left("c") is None

    def test_burst_then_refill_with_injected_clock(self):
        now = [0.0]
        limiter = RateLimiter(rate=2.0, burst=4.0, clock=lambda: now[0])
        assert limiter.allow("c", 4)  # full burst is free
        assert not limiter.allow("c", 1)  # empty now
        now[0] = 1.0  # 2 tokens refilled
        assert limiter.allow("c", 2)
        assert not limiter.allow("c", 1)

    def test_batch_admission_is_atomic(self):
        now = [0.0]
        limiter = RateLimiter(rate=1.0, burst=3.0, clock=lambda: now[0])
        assert not limiter.allow("c", 5)  # whole batch over budget
        # the failed attempt consumed nothing
        assert limiter.tokens_left("c") == 3.0
        assert limiter.allow("c", 3)

    def test_clients_are_isolated(self):
        now = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=lambda: now[0])
        assert limiter.allow("a", 1)
        assert limiter.allow("b", 1)
        assert not limiter.allow("a", 1)

    def test_has_budget_is_refill_aware_and_takes_nothing(self):
        now = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=lambda: now[0])
        assert limiter.has_budget("c")  # unseen: a fresh bucket is full
        assert limiter.tracked_clients == 0  # ... and none was created
        assert limiter.allow("c", 1)
        assert not limiter.has_budget("c")
        now[0] = 1.0  # one token refilled
        assert limiter.has_budget("c")
        assert limiter.has_budget("c")  # the check took nothing
        assert limiter.allow("c", 1)

    def test_default_burst_is_one_second(self):
        assert RateLimiter(5.0).burst == 5.0
        assert RateLimiter(0.25).burst == 1.0

    def test_allow_sweeps_and_charges_under_the_lock(self):
        """HTTP handler threads share one limiter, so ``allow`` evicts and
        charges buckets only under ``_lock``."""

        class SpiedLimiter(RateLimiter):
            def _sweep(self, now):
                assert self._lock.held, "_sweep ran without RateLimiter._lock"
                super()._sweep(now)

        limiter = SpiedLimiter(rate=1.0, burst=2.0, clock=lambda: 0.0)
        limiter._lock = SpyLock()
        assert limiter.allow("c", 2)
        assert not limiter.allow("c", 1)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            RateLimiter(0.0)
        with pytest.raises(ValueError):
            RateLimiter(1.0, idle_grace=0.0)
        with pytest.raises(ValueError):
            RateLimiter(1.0, burst=0.0)

    def test_bucket_map_stays_bounded_under_one_shot_clients(self):
        # The leak this guards against: every distinct client id used to
        # pin a TokenBucket forever, so 10k one-shot clients grew the
        # map by 10k entries for the life of the daemon.
        now = [0.0]
        limiter = RateLimiter(
            rate=10.0, burst=10.0, clock=lambda: now[0], idle_grace=60.0
        )
        for i in range(10_000):
            assert limiter.allow(f"one-shot-{i}", 1)
            now[0] += 0.1  # 1000 s total: far beyond any grace window
        # Buckets refill (0.1 s * 10/s = 1 token) long before the grace
        # period elapses, so only clients from the last grace window or
        # so can still be resident.  Well under the 10k that would leak.
        assert limiter.tracked_clients < 1500
        # And eviction was lossless: an evicted client's fresh bucket
        # grants the same full burst a kept bucket would have refilled.
        assert limiter.allow("one-shot-0", 10)

    def test_indebted_bucket_survives_the_sweep(self):
        now = [0.0]
        limiter = RateLimiter(
            rate=0.001, burst=10.0, clock=lambda: now[0], idle_grace=5.0
        )
        assert limiter.allow("slow", 10)  # drained; refill is glacial
        assert limiter.allow("bystander", 1)
        now[0] += 6.0  # past the grace period, but "slow" is in debt
        limiter.allow("trigger", 1)  # drives a sweep
        assert limiter.tokens_left("slow") is not None  # still tracked
        # The debt is still enforced: 6 s * 0.001/s rounds to nothing.
        assert not limiter.allow("slow", 10)

    def test_sweep_runs_at_most_once_per_grace_period(self):
        now = [0.0]
        limiter = RateLimiter(
            rate=100.0, burst=100.0, clock=lambda: now[0], idle_grace=10.0
        )
        assert limiter.allow("early", 1)
        now[0] = 10.5  # "early" is idle and refilled -> evictable
        assert limiter.allow("a", 1)  # sweep fires here
        assert limiter.tracked_clients == 1  # "early" evicted, "a" added
        now[0] = 11.0
        assert limiter.allow("b", 1)  # within the same period: no sweep
        assert limiter.tracked_clients == 2


# -- inline evaluation (serve_once / submit_payload, no HTTP) -----------------------


class TestInlineServer:
    def test_serve_once_emits_shards_and_summary(self, tmp_path):
        server = QbssServer(small_config(tmp_path))
        code, text = server.serve_once(job_lines(20))
        server.drain()
        assert code == 0
        envelopes = list(parse_response_lines(text))
        kinds = [e["kind"] for e in envelopes]
        assert kinds[-1] == "summary"
        assert set(kinds[:-1]) == {"shard_result"}
        summary = envelopes[-1]
        assert summary["n_jobs"] == 20
        assert summary["n_shards"] == len(envelopes) - 1
        assert summary["algorithms"] == ["avrq", "bkpq"]

    def test_serve_once_invalid_payload(self, tmp_path):
        server = QbssServer(small_config(tmp_path))
        code, text = server.serve_once("not json\n")
        server.drain()
        assert code == 1
        (envelope,) = parse_response_lines(text)
        assert envelope["kind"] == "error"
        assert envelope["code"] == "invalid_request"

    def test_queue_full_rejection_counts(self, tmp_path):
        # No scheduler running, so admitted batches stay queued.
        server = QbssServer(small_config(tmp_path, queue_limit=5))
        server.submit_payload(job_lines(4), "a")
        with pytest.raises(ServeError) as excinfo:
            server.submit_payload(job_lines(3), "a")
        assert excinfo.value.code == "queue_full"
        assert excinfo.value.status == 429
        samples = parse_prometheus_text(server.metrics_text())
        assert samples[("qbss_serve_jobs_admitted_total", ())] == 4.0
        assert (
            samples[
                ("qbss_serve_jobs_rejected_total", (("reason", "queue_full"),))
            ]
            == 3.0
        )
        assert samples[("qbss_serve_queue_depth", ())] == 4.0

    def test_rate_limited_rejection(self, tmp_path):
        server = QbssServer(small_config(tmp_path, rate=1.0, burst=4.0))
        server.submit_payload(job_lines(4), "greedy")
        with pytest.raises(ServeError) as excinfo:
            server.submit_payload(job_lines(2), "greedy")
        assert excinfo.value.code == "rate_limited"
        # other clients unaffected
        server.submit_payload(job_lines(2), "patient")

    def test_draining_rejection(self, tmp_path):
        server = QbssServer(small_config(tmp_path))
        server.begin_drain()
        with pytest.raises(ServeError) as excinfo:
            server.submit_payload(job_lines(2), "late")
        assert excinfo.value.code == "draining"
        assert excinfo.value.status == 503
        samples = parse_prometheus_text(server.metrics_text())
        assert samples[("qbss_serve_draining", ())] == 1.0

    def test_graceful_drain_completes_queued_batches(self, tmp_path):
        """SIGTERM semantics: a full queue still evaluates to completion,
        responses flush, counters agree, and the session closes."""
        server = QbssServer(small_config(tmp_path, queue_limit=100))
        batches = [server.submit_payload(job_lines(10), f"c{i}") for i in range(5)]
        server.begin_drain()
        with pytest.raises(ServeError):
            server.submit_payload(job_lines(1), "late")
        server.start(http=False)  # scheduler now drains the backlog
        assert server.drain(timeout=60.0)
        for batch in batches:
            assert batch.done.is_set()
            assert batch.error is None
            assert batch.report is not None and batch.report.n_jobs == 10
        samples = parse_prometheus_text(server.metrics_text())
        assert samples[("qbss_serve_jobs_admitted_total", ())] == 50.0
        assert samples[("qbss_serve_jobs_completed_total", ())] == 50.0
        assert samples[("qbss_serve_queue_depth", ())] == 0.0
        assert samples[("qbss_serve_batches_total", (("status", "ok"),))] == 5.0
        assert server.session.closed

    def test_fault_plan_degrades_to_structured_shards(self, tmp_path):
        """A failing shard is a structured response envelope, not a dead
        daemon: the batch still answers, with status/failure per shard."""
        plan = FaultPlan((FaultSpec(task="shard:1", kind="raise", attempt=0),))
        server = QbssServer(
            small_config(tmp_path, fault_plan=plan, cache=False, shard_window=20.0)
        )
        code, text = server.serve_once(job_lines(20))
        server.drain()
        assert code == 0  # machinery survived; failure is in the payload
        envelopes = list(parse_response_lines(text))
        shards = [e["shard"] for e in envelopes if e["kind"] == "shard_result"]
        statuses = {s["index"]: s.get("status", "ok") for s in shards}
        assert statuses[1] == "error"
        failed = [s for s in shards if s.get("status") == "error"]
        assert failed[0]["rows"] == []
        assert failed[0]["failure"]["kind"] == "error"
        summary = envelopes[-1]
        assert summary["failed_shards"] == 1
        samples = parse_prometheus_text(server.metrics_text())
        assert samples[("qbss_serve_batches_total", (("status", "ok"),))] == 1.0


# -- the live daemon ----------------------------------------------------------------


@pytest.fixture
def live_server(tmp_path):
    """A started daemon on an OS-assigned port, drained at teardown."""
    server = QbssServer(small_config(tmp_path))
    server.start()
    try:
        yield server
    finally:
        if not server.draining:
            server.begin_drain()
        server.drain(timeout=60.0)
        server.stop()


class TestLiveDaemon:
    def test_healthz(self, live_server):
        client = Client("127.0.0.1", live_server.port)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["protocol"] == SERVE_PROTOCOL_VERSION
        assert health["queue_limit"] == live_server.queue.max_jobs

    def test_submit_and_scrape(self, live_server):
        client = Client("127.0.0.1", live_server.port, client_id="t1")
        result = client.submit(
            [json.loads(line) for line in job_lines(10).splitlines()]
        )
        assert result.ok
        assert result.summary["n_jobs"] == 10
        assert result.n_shards == result.summary["n_shards"] >= 1
        for algorithm in ("avrq", "bkpq"):
            ratios = result.ratios_for(algorithm)
            assert len(ratios) == result.n_shards
            assert all(r >= 1.0 for r in ratios)
        samples = client.metrics()
        assert samples[("qbss_serve_jobs_admitted_total", ())] == 10.0
        assert samples[("qbss_serve_jobs_completed_total", ())] == 10.0
        assert samples[("qbss_serve_queue_depth", ())] == 0.0
        # the warm session's replay series live in the same registry
        assert any(name.startswith("qbss_replay_") for name, _ in samples)
        # histogram accounted one observation per shard
        assert (
            samples[("qbss_serve_shard_latency_seconds_count", ())]
            == result.n_shards
        )

    def test_submit_jobrequest_objects(self, live_server):
        client = Client("127.0.0.1", live_server.port)
        result = client.submit(
            [JobRequest(id="a", release=0.0, runtime=2.0, deadline=30.0)]
        )
        assert result.summary["n_jobs"] == 1

    def test_invalid_submission_maps_to_400(self, live_server):
        client = Client("127.0.0.1", live_server.port)
        with pytest.raises(ServeClientError) as excinfo:
            client.submit([{"release": 0.0}])  # missing runtime
        assert excinfo.value.code == "invalid_request"
        assert excinfo.value.status == 400

    def test_unknown_path_is_structured_404(self, live_server):
        client = Client("127.0.0.1", live_server.port)
        status, text = client._request("GET", "/nope")
        assert status == 404
        (envelope,) = parse_response_lines(text)
        assert envelope["kind"] == "error"

    @pytest.mark.parametrize(
        "length, status", [("abc", 400), ("-1", 400), ("1000000000000", 413)]
    )
    def test_bad_content_length_fails_closed(self, live_server, length, status):
        """Checked before any body byte is read: no crash, no read to EOF,
        no allocation of the claimed size.  A raw socket, because the typed
        client always sends a correct length; the timeout turns a handler
        blocked on the body into a failure instead of a hang."""
        request = (
            f"POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {length}\r\n\r\n"
        )
        with socket.create_connection(
            ("127.0.0.1", live_server.port), timeout=5.0
        ) as sock:
            sock.sendall(request.encode("ascii"))
            response = b""
            while chunk := sock.recv(65536):  # until the server closes
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split(b" ")[1] == str(status).encode()
        (envelope,) = parse_response_lines(body.decode("utf-8"))
        assert envelope["code"] == "invalid_request"
        assert envelope["status"] == status
        samples = Client("127.0.0.1", live_server.port).metrics()
        key = ("qbss_serve_jobs_rejected_total", (("reason", "invalid_request"),))
        assert samples[key] == 1.0

    def test_rate_limited_client_gets_429(self, tmp_path):
        server = QbssServer(small_config(tmp_path, rate=1.0, burst=2.0))
        server.start()
        try:
            client = Client("127.0.0.1", server.port, client_id="greedy")
            client.submit(
                [json.loads(line) for line in job_lines(2).splitlines()]
            )
            with pytest.raises(ServeClientError) as excinfo:
                client.submit(
                    [json.loads(line) for line in job_lines(2).splitlines()]
                )
            assert excinfo.value.code == "rate_limited"
            assert excinfo.value.status == 429
        finally:
            server.begin_drain()
            server.drain(timeout=60.0)
            server.stop()

    def test_over_budget_client_is_refused_before_the_body(self, tmp_path):
        """An empty bucket gets its 429 without the server waiting for the
        body: this client announces 64 bytes and sends none.  The socket
        timeout turns a handler blocked on the body into a failure."""
        # One token, refilled every 100 s: the first job drains the bucket.
        server = QbssServer(small_config(tmp_path, rate=0.01, burst=1.0))
        server.start()
        try:
            client = Client("127.0.0.1", server.port, client_id="greedy")
            assert client.submit([{"release": 0.0, "runtime": 1.0}]).ok
            request = (
                "POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\n"
                "X-QBSS-Client: greedy\r\nContent-Length: 64\r\n\r\n"
            )
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            ) as sock:
                sock.sendall(request.encode("ascii"))
                response = b""
                while chunk := sock.recv(65536):  # until the server closes
                    response += chunk
            head, _, body = response.partition(b"\r\n\r\n")
            assert head.split(b" ")[1] == b"429"
            assert b"Connection: close" in head
            (envelope,) = parse_response_lines(body.decode("utf-8"))
            assert envelope["code"] == "rate_limited"
            samples = client.metrics()
            key = ("qbss_serve_jobs_rejected_total", (("reason", "rate_limited"),))
            assert samples[key] == 1.0
            # the refusal left the bucket untouched: still exactly drained
            assert server.limiter.tokens_left("greedy") == 0.0
        finally:
            server.begin_drain()
            server.drain(timeout=60.0)
            server.stop()

    def test_one_socket_write_per_kept_alive_response(self, live_server, monkeypatch):
        """Headers and body leave in one write.  Sent apart, a client that
        reuses its connection waits out a delayed ACK on every response."""
        import http.client

        port = live_server.port
        writes = []

        def counted(real):
            def write(sock, data, *args):
                if sock.getsockname()[1] == port:  # the daemon's side
                    writes.append(len(data))
                return real(sock, data, *args)

            return write

        monkeypatch.setattr(socket.socket, "send", counted(socket.socket.send))
        monkeypatch.setattr(socket.socket, "sendall", counted(socket.socket.sendall))
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
        try:
            for i in range(20):
                if i % 2:
                    conn.request("POST", "/v1/jobs", body=job_lines(3).encode())
                else:
                    conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                assert response.read()
        finally:
            conn.close()
        assert len(writes) == 20, writes

    def test_expect_100_continue_is_answered_before_the_body(self, live_server):
        """A client that sends ``Expect: 100-continue`` holds its body back
        until the interim response arrives.  The socket timeout turns a
        ``100 Continue`` left in the daemon's write buffer into a failure."""
        body = job_lines(3).encode()
        head = (
            "POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n"
            f"Expect: 100-continue\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        with socket.create_connection(
            ("127.0.0.1", live_server.port), timeout=5.0
        ) as sock:
            sock.sendall(head.encode("ascii"))
            assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            response = b""
            while chunk := sock.recv(65536):  # until the server closes
                response += chunk
        head, _, text = response.partition(b"\r\n\r\n")
        assert head.split(b" ")[1] == b"200"
        assert list(parse_response_lines(text.decode("utf-8")))[-1]["n_jobs"] == 3

    def test_draining_daemon_rejects_with_503(self, live_server):
        live_server.begin_drain()
        client = Client("127.0.0.1", live_server.port)
        assert client.healthz()["status"] == "draining"
        with pytest.raises(ServeClientError) as excinfo:
            client.submit([{"release": 0.0, "runtime": 1.0}])
        assert excinfo.value.code == "draining"
        assert excinfo.value.status == 503


# -- byte-identity with qbss-replay (acceptance criterion) --------------------------


class TestReplayIdentity:
    #: Evaluation workers the daemon forks (1: it evaluates in-process).
    jobs = 1

    def test_warm_server_matches_cold_replay_byte_for_byte(self, tmp_path):
        """The 1k-job contract: a warm daemon answering the same workload
        as a cold ``qbss-replay`` produces byte-identical per-shard
        payloads (decisions, ratios, energies — the whole shard)."""
        n = 1000
        trace = tmp_path / "jobs.jsonl"
        trace.write_text(job_lines(n))

        report, _ = replay_trace(
            str(trace),
            shard_window=250.0,
            seed=3,
            session=ExecutionSession(jobs=1, cache=False),
        )
        cold = encode_jsonl(report.shards)

        server = QbssServer(small_config(tmp_path, cache=False, jobs=self.jobs))
        server.start()
        try:
            assert server.pool_jobs == self.jobs
            client = Client("127.0.0.1", server.port)
            jobs = [json.loads(line) for line in job_lines(n).splitlines()]
            first = client.submit(jobs)
            second = client.submit(jobs)  # warm: cache-free rerun, same bytes
        finally:
            server.begin_drain()
            server.drain(timeout=120.0)
            server.stop()
        assert encode_jsonl(first.shards) == cold
        assert encode_jsonl(second.shards) == cold
        assert first.summary["n_jobs"] == report.n_jobs == n

    def test_warm_cache_hits_stay_identical(self, tmp_path):
        """With the shard cache on, the second submission is served from
        cache and its whole response stream, summary included, matches the
        first byte-for-byte."""
        server = QbssServer(small_config(tmp_path, jobs=self.jobs))
        server.start()
        try:
            client = Client("127.0.0.1", server.port)
            first = client._request("POST", "/v1/jobs", job_lines(40))
            second = client._request("POST", "/v1/jobs", job_lines(40))
            samples = client.metrics()
        finally:
            server.begin_drain()
            server.drain(timeout=60.0)
            server.stop()
        assert first[0] == 200
        assert first == second
        assert list(parse_response_lines(first[1]))[-1]["kind"] == "summary"
        hits = sum(
            v
            for (name, labels), v in samples.items()
            if name == "qbss_cache_lookups_total" and ("result", "hit") in labels
        )
        assert hits > 0


class TestReplayIdentityOnWorkers(TestReplayIdentity):
    """The same contract on two forked evaluation workers."""

    jobs = 2


# -- forked evaluation workers ------------------------------------------------------

#: Series holding wall times, which no two runs share.
WALL_SERIES = ("qbss_serve_shard_latency_seconds", "qbss_replay_wall_seconds")

#: Runs ``qbss-serve`` in this interpreter and watches its forks: prints, when
#: it exits, the live thread count of the daemon and the count of objects it
#: had frozen at each fork, and its frozen count then.  Each child appends
#: its pid to the file ``argv[1]``.
FORK_WATCH = """
import gc, json, os, sys, threading

from repro.serve.cli import main

forks, frozen = [], []


def before():
    forks.append(threading.active_count())
    frozen.append(gc.get_freeze_count())


def record_pid():
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")


os.register_at_fork(before=before, after_in_child=record_pid)
code = main(sys.argv[2:])
print(json.dumps({"forks": forks, "frozen": frozen, "frozen_at_exit": gc.get_freeze_count()}))
sys.exit(code)
"""


def in_process_shards(tmp_path, body):
    """The shard payloads a ``jobs=1`` daemon answers ``body`` with."""
    server = QbssServer(small_config(tmp_path, cache=False))
    code, text = server.serve_once(body)
    server.drain()
    assert code == 0
    return [e["shard"] for e in parse_response_lines(text) if e["kind"] == "shard_result"]


class WatchedDaemon:
    """A ``qbss-serve --no-cache`` subprocess under :data:`FORK_WATCH`,
    configured like :func:`small_config`."""

    def __init__(self, tmp_path, *args, plan=None):
        from repro.engine.faults import FAULT_PLAN_ENV

        self.pid_log = tmp_path / "worker-pids"
        self.watch: dict = {}
        port_file = tmp_path / "serve.port"
        env = dict(os.environ, PYTHONPATH=str(SRC_UNDER_TEST))
        env.pop(FAULT_PLAN_ENV, None)
        if plan is not None:
            env[FAULT_PLAN_ENV] = plan.to_json()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-c", FORK_WATCH, str(self.pid_log),
                "--bind", "127.0.0.1:0", "--port-file", str(port_file),
                "--shard-window", "250", "--seed", "3", "--no-cache", *args,
            ],
            env=env,
            cwd=tmp_path,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        deadline = time.monotonic() + 60.0
        while not port_file.exists():
            assert self.proc.poll() is None, self.proc.communicate()[1]
            assert time.monotonic() < deadline, "no port file after 60 s"
            time.sleep(0.05)
        host, port = port_file.read_text().strip().rsplit(":", 1)
        self.client = Client(host, int(port))

    def worker_pids(self):
        return [int(line) for line in self.pid_log.read_text().split()]

    def wait_in_flight(self, n_jobs):
        """Until ``n_jobs`` jobs are admitted and popped, and none done."""
        deadline = time.monotonic() + 30.0
        while True:
            samples = self.client.metrics()
            if (
                samples[("qbss_serve_jobs_admitted_total", ())] == n_jobs
                and samples[("qbss_serve_queue_depth", ())] == 0.0
            ):
                assert samples[("qbss_serve_jobs_completed_total", ())] == 0.0
                return
            assert time.monotonic() < deadline, samples
            time.sleep(0.02)

    def stop(self):
        """SIGTERM; returns (exit code, live thread count at each fork, stderr).

        The rest of what :data:`FORK_WATCH` printed is left in ``watch``.
        """
        self.proc.send_signal(signal.SIGTERM)
        out, err = self.proc.communicate(timeout=60.0)
        self.watch = json.loads(out.splitlines()[-1]) if out.strip() else {}
        return self.proc.returncode, self.watch.get("forks"), err

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


def submit_all(client, bodies):
    """Submit every body at once, one thread each; the results in order."""
    results = [None] * len(bodies)

    def submit(i):
        results[i] = client.submit(submission(bodies[i]))

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(len(bodies))]
    for thread in threads:
        thread.start()
    return threads, results


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class TestForkedWorkers:
    @pytest.mark.parametrize(
        "jobs, backend, forks",
        [
            (1, None, 0),
            (2, None, 2),
            (2, "pool", 2),
            (2, "serial", 0),
            (2, "remote:127.0.0.1:9", 0),
        ],
    )
    def test_only_the_local_pool_forks(self, tmp_path, monkeypatch, jobs, backend, forks):
        """``jobs > 1`` forks workers on the local pool only; every local
        session is serial, and a remote one keeps ``jobs``."""
        asked = []
        monkeypatch.setattr(
            "repro.serve.server.fork_workers",
            lambda n, config, plan: asked.append(n) or [],
        )
        server = QbssServer(small_config(tmp_path, jobs=jobs, backend=backend))
        server.start(http=False)
        assert server.drain(timeout=30.0)
        assert asked == [forks]
        assert server.session.pool_jobs == (jobs if backend and "remote" in backend else 1)

    def test_metrics_equal_the_in_process_daemons(self, tmp_path):
        """After the same submissions a ``jobs=2`` daemon's ``/metrics``
        equal a ``jobs=1`` daemon's: each worker's cache and replay series
        are merged into the daemon's registry.  Wall times are exempt."""
        bodies = [job_lines(12), job_lines(30, spacing=20.0), job_lines(12)]
        scrapes = {}
        for jobs in (1, 2):
            server = QbssServer(small_config(tmp_path / f"jobs{jobs}", jobs=jobs))
            server.start()
            try:
                client = Client("127.0.0.1", server.port)
                for body in bodies:
                    assert client.submit(submission(body)).ok
                scrapes[jobs] = {
                    key: value
                    for key, value in client.metrics().items()
                    if not key[0].startswith(WALL_SERIES)
                }
            finally:
                server.begin_drain()
                server.drain(timeout=60.0)
                server.stop()
        assert scrapes[2] == scrapes[1]
        hits = ("qbss_cache_lookups_total", (("result", "hit"),))
        assert scrapes[2][hits] > 0
        assert scrapes[2][("qbss_replay_shards_total", (("status", "ok"),))] > 0

    def test_sigterm_flushes_two_batches_in_flight(self, tmp_path):
        """Drain waits for both workers' batches, answers them, shuts the
        workers down and exits 0."""
        # Shard 0 of every batch holds its worker for a second.
        plan = FaultPlan((FaultSpec(task="shard:0", kind="hang", attempt=0, seconds=1.0),))
        daemon = WatchedDaemon(tmp_path, "--jobs", "2", plan=plan)
        try:
            bodies = [job_lines(10), job_lines(11)]
            threads, results = submit_all(daemon.client, bodies)
            daemon.wait_in_flight(21)
            code, forks, err = daemon.stop()
            for thread in threads:
                thread.join(30.0)
        finally:
            daemon.kill()
        assert code == 0, err
        assert "drained cleanly" in err
        for body, result in zip(bodies, results):
            assert result is not None and result.ok
            assert result.shards == in_process_shards(tmp_path / "ref", body)
        assert forks == [1, 1]
        assert_reaped(daemon.worker_pids())

    def test_workers_fork_before_the_daemon_has_a_thread(self, tmp_path):
        daemon = WatchedDaemon(tmp_path, "--jobs", "2")
        try:
            assert daemon.client.submit(submission(job_lines(5))).ok
            code, forks, err = daemon.stop()
        finally:
            daemon.kill()
        assert code == 0, err
        assert "pool 2)" in err
        assert forks == [1, 1]
        # Each worker inherits a frozen heap; the daemon's is unfrozen again.
        assert all(count > 0 for count in daemon.watch["frozen"])
        assert daemon.watch["frozen_at_exit"] == 0
        assert len(daemon.worker_pids()) == 2
        assert_reaped(daemon.worker_pids())

    def test_a_killed_worker_leaves_no_client_hanging(self, tmp_path):
        """SIGKILL a worker mid-batch: its batch is answered in-process,
        so are all later ones (``qbss_degraded`` 1), and the daemon, which
        has threads by then, never forks again."""
        # Shard 2 holds each three-shard batch for three seconds: the
        # kill lands while both workers are busy.
        plan = FaultPlan((FaultSpec(task="shard:2", kind="hang", attempt=0, seconds=3.0),))
        daemon = WatchedDaemon(tmp_path, "--jobs", "2", plan=plan)
        try:
            bodies = [job_lines(12, spacing=50.0), job_lines(13, spacing=50.0)]
            threads, results = submit_all(daemon.client, bodies)
            daemon.wait_in_flight(25)
            os.kill(daemon.worker_pids()[0], signal.SIGKILL)
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive(), "a client is still waiting"
            later = job_lines(4)
            after = daemon.client.submit(submission(later))
            samples = daemon.client.metrics()
            code, forks, err = daemon.stop()
        finally:
            daemon.kill()
        assert code == 0, err
        for body, result in [*zip(bodies, results), (later, after)]:
            assert result is not None and result.ok
            assert result.shards == in_process_shards(tmp_path / "ref", body)
        assert samples[("qbss_degraded", ())] == 1.0
        assert samples[("qbss_serve_jobs_completed_total", ())] == 29.0
        assert forks == [1, 1]
        assert_reaped(daemon.worker_pids())


# -- stdin one-shot mode ------------------------------------------------------------


class TestStdinMode:
    def test_stdin_round_trip(self, tmp_path, monkeypatch, capsys):
        import io

        from repro.serve.cli import main as serve_main

        monkeypatch.setattr("sys.stdin", io.StringIO(job_lines(6)))
        code = serve_main(
            [
                "--stdin",
                "--shard-window",
                "250",
                "--seed",
                "3",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        envelopes = list(parse_response_lines(out))
        assert envelopes[-1]["kind"] == "summary"
        assert envelopes[-1]["n_jobs"] == 6

    def test_stdin_invalid_exits_one(self, tmp_path, monkeypatch, capsys):
        import io

        from repro.serve.cli import main as serve_main

        monkeypatch.setattr("sys.stdin", io.StringIO("nope\n"))
        code = serve_main(
            ["--stdin", "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 1
        (envelope,) = parse_response_lines(capsys.readouterr().out)
        assert envelope["code"] == "invalid_request"


# -- the serve CLI parser -----------------------------------------------------------

#: Runs ``qbss-serve`` in this interpreter; once its port file exists, a
#: helper thread sends SIGTERM to itself, not to the main thread.
SIGTERM_OFF_MAIN = """
import signal, sys, threading, time
from pathlib import Path

from repro.serve.cli import main

port_file = Path(sys.argv[1])


def kick():
    while not port_file.exists():
        time.sleep(0.01)
    # Let the main thread reach its wait: a signal handled before it gets
    # there sets the stop event and would hide an untimed wait.
    time.sleep(0.5)
    signal.pthread_kill(threading.get_ident(), signal.SIGTERM)


threading.Thread(target=kick, daemon=True).start()
sys.exit(main(["--bind", "127.0.0.1:0", "--port-file", str(port_file), "--no-cache"]))
"""


class TestServeCli:
    def test_parse_bind(self):
        from repro.serve.cli import parse_bind

        assert parse_bind("127.0.0.1:0") == ("127.0.0.1", 0)
        assert parse_bind("0.0.0.0:8457") == ("0.0.0.0", 8457)
        for bad in ("nope", ":80", "host:notaport", "host:70000"):
            with pytest.raises(ValueError):
                parse_bind(bad)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--bind", "nonsense"],
            ["--algorithms", "unknown_algo"],
            ["--noise-model", "unknown_model"],
            ["--shard-window", "0"],
            ["--queue-limit", "0"],
            ["--rate", "-1"],
            ["--max-attempts", "0"],
            ["--jobs", "bogus"],
            ["--task-timeout", "0"],
            ["--rate", "1", "--burst", "-5"],
            ["--request-timeout", "0"],
            ["--seed", "-1"],
            ["--deadline-slack", "0"],
            ["--deadline-slack", "nan"],
            ["--shard-window", "nan"],
            ["--alpha", "1"],
            ["--alpha", "nan"],
        ],
    )
    def test_bad_arguments_are_usage_errors(self, argv):
        # Validation only: main() would go on to start a daemon for any
        # flag that slipped through instead of failing.
        from repro.serve.cli import _config_from_args, build_serve_parser

        parser = build_serve_parser()
        with pytest.raises(SystemExit) as excinfo:
            _config_from_args(parser, parser.parse_args(argv))
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv, jobs",
        [
            ([], "auto"),
            (["--backend", "pool"], "auto"),
            (["--backend", "serial"], 1),
            (["--backend", "remote:127.0.0.1:9"], 1),
            (["--backend", "remote:127.0.0.1:9", "--jobs", "4"], "4"),
            (["--jobs", "1"], "1"),
        ],
    )
    def test_default_jobs_fork_only_on_the_local_pool(self, argv, jobs):
        """No ``--jobs`` means a worker per CPU on the local pool; a remote
        session keeps its old default size of 1."""
        from repro.serve.cli import _config_from_args, build_serve_parser

        parser = build_serve_parser()
        assert _config_from_args(parser, parser.parse_args(argv)).jobs == jobs

    def test_startup_failure_exits_instead_of_hanging(self, tmp_path):
        """Start-up that fails once the scheduler thread runs (a port file
        under a regular file, a port already taken) stops the server and
        exits non-zero instead of living on with nothing left to stop it."""
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        with socket.create_server(("127.0.0.1", 0)) as taken:
            busy = f"127.0.0.1:{taken.getsockname()[1]}"
            port_file = str(blocker / "port")
            for args, error in [
                (["--bind", "127.0.0.1:0", "--port-file", port_file], "a-file"),
                (["--bind", busy], "in use"),
            ]:
                proc = subprocess.run(
                    [sys.executable, "-m", "repro.serve.cli", *args, "--no-cache"],
                    env=dict(os.environ, PYTHONPATH=str(SRC_UNDER_TEST)),
                    cwd=tmp_path,
                    capture_output=True,
                    text=True,
                    timeout=30.0,
                )
                assert proc.returncode != 0, args
                assert "qbss-serve: error:" in proc.stderr, proc.stderr
                assert error in proc.stderr, proc.stderr

    def test_sigterm_on_a_non_main_thread_drains(self, tmp_path):
        """The OS may hand SIGTERM to any thread.  The daemon's main thread
        must still run the handler and drain, not sleep through it."""
        port_file = tmp_path / "serve.port"
        proc = subprocess.Popen(
            [sys.executable, "-c", SIGTERM_OFF_MAIN, str(port_file)],
            env=dict(os.environ, PYTHONPATH=str(SRC_UNDER_TEST)),
            cwd=tmp_path,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60.0
            while not port_file.exists() and proc.poll() is None:
                assert time.monotonic() < deadline, "no port file after 60 s"
                time.sleep(0.05)
            try:
                _, err = proc.communicate(timeout=10.0)
            except subprocess.TimeoutExpired:
                pytest.fail("qbss-serve ignored SIGTERM on a non-main thread")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "drained cleanly" in err


# -- client retries -----------------------------------------------------------------


class _ScriptedTransport:
    """Stands in for ``Client._request``: replays a scripted exchange
    sequence — ``("raise", exc)`` items raise, ``(status, text)`` items
    return — and counts the calls."""

    def __init__(self, *script):
        self.script = list(script)
        self.calls = 0

    def __call__(self, method, path, body=None):
        self.calls += 1
        action = self.script.pop(0)
        if action[0] == "raise":
            raise action[1]
        return action


def _scripted_client(*script):
    client = Client("127.0.0.1", 1, retry=QUICK)
    transport = _ScriptedTransport(*script)
    client._request = transport
    return client, transport


_SUMMARY_OK = encode_jsonl(
    [{"kind": "summary", "version": SERVE_PROTOCOL_VERSION, "n_jobs": 0}]
)


class TestClientRetry:
    def test_queue_full_is_retried_then_succeeds(self):
        full = encode_jsonl([ServeError("queue_full", "brimming").to_dict()])
        client, transport = _scripted_client((429, full), (200, _SUMMARY_OK))
        result = client.submit([])
        assert result.summary["n_jobs"] == 0
        assert transport.calls == 2

    def test_queue_full_exhausts_the_budget(self):
        full = encode_jsonl([ServeError("queue_full", "brimming").to_dict()])
        client, transport = _scripted_client((429, full), (429, full))
        with pytest.raises(ServeClientError) as excinfo:
            client.submit([])
        assert excinfo.value.code == "queue_full"
        assert excinfo.value.attempts == QUICK.max_attempts
        assert transport.calls == QUICK.max_attempts

    def test_rate_limited_is_never_retried(self):
        limited = encode_jsonl([ServeError("rate_limited", "slow down").to_dict()])
        client, transport = _scripted_client((429, limited), (200, _SUMMARY_OK))
        with pytest.raises(ServeClientError) as excinfo:
            client.submit([])
        assert excinfo.value.code == "rate_limited"
        assert excinfo.value.attempts == 1
        assert transport.calls == 1  # the scripted success was never reached

    def test_connection_error_is_retried_then_succeeds(self):
        client, transport = _scripted_client(
            ("raise", ConnectionRefusedError("refused")), (200, _SUMMARY_OK)
        )
        assert client.submit([]).summary["n_jobs"] == 0
        assert transport.calls == 2

    def test_connection_exhaustion_synthesizes_unavailable(self):
        client, transport = _scripted_client(
            ("raise", ConnectionRefusedError("refused")),
            ("raise", ConnectionRefusedError("refused")),
        )
        with pytest.raises(ServeClientError) as excinfo:
            client.submit([])
        err = excinfo.value
        assert err.code == "unavailable"
        assert err.status == ERROR_STATUS["unavailable"] == 503
        assert err.attempts == QUICK.max_attempts

    def test_connection_and_queue_full_share_one_budget(self):
        # attempt 1: connection error; attempt 2: queue_full -> budget
        # (2 attempts) is spent, no third try
        full = encode_jsonl([ServeError("queue_full", "brimming").to_dict()])
        client, transport = _scripted_client(
            ("raise", ConnectionResetError("reset")), (429, full)
        )
        with pytest.raises(ServeClientError) as excinfo:
            client.submit([])
        assert excinfo.value.code == "queue_full"
        assert excinfo.value.attempts == 2
        assert transport.calls == 2

    def test_healthz_against_a_dead_port_is_unavailable(self):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        client = Client("127.0.0.1", port, retry=QUICK)
        with pytest.raises(ServeClientError) as excinfo:
            client.healthz()
        assert excinfo.value.code == "unavailable"
        assert excinfo.value.attempts == QUICK.max_attempts

    def test_default_retry_policy(self):
        from repro.serve.client import DEFAULT_CLIENT_RETRY

        client = Client("127.0.0.1", 1)
        assert client.retry is DEFAULT_CLIENT_RETRY
        assert DEFAULT_CLIENT_RETRY.max_attempts == 3

    def test_backoff_uses_the_injected_sleeper(self):
        # The client must never call time.sleep directly — every backoff
        # goes through the injectable sleeper, and the delays are exactly
        # the policy's seeded sequence for the retried task.
        policy = RetryPolicy(max_attempts=4, backoff_base=0.05, backoff_cap=1.0)
        slept = []
        client = Client(
            "127.0.0.1", 1, client_id="c1", retry=policy, sleep=slept.append
        )
        transport = _ScriptedTransport(
            ("raise", ConnectionRefusedError("refused")),
            ("raise", ConnectionResetError("reset")),
            ("raise", ConnectionRefusedError("refused")),
            (200, _SUMMARY_OK),
        )
        client._request = transport
        assert client.submit([]).summary["n_jobs"] == 0
        task = "POST /v1/jobs:c1"
        assert slept == [policy.delay(task, 1), policy.delay(task, 2),
                         policy.delay(task, 3)]
        # Seeded determinism: a rebuilt client replays the same delays.
        replay = []
        again = Client(
            "127.0.0.1", 1, client_id="c1", retry=policy, sleep=replay.append
        )
        again._request = _ScriptedTransport(
            ("raise", ConnectionRefusedError("refused")),
            ("raise", ConnectionResetError("reset")),
            ("raise", ConnectionRefusedError("refused")),
            (200, _SUMMARY_OK),
        )
        assert again.submit([]).summary["n_jobs"] == 0
        assert replay == slept

    def test_queue_full_backoff_is_seeded_per_submit_task(self):
        policy = RetryPolicy(max_attempts=3, backoff_base=0.05, backoff_cap=1.0)
        slept = []
        client = Client(
            "127.0.0.1", 1, client_id="c2", retry=policy, sleep=slept.append
        )
        full = encode_jsonl([ServeError("queue_full", "brimming").to_dict()])
        client._request = _ScriptedTransport(
            (429, full), (429, full), (200, _SUMMARY_OK)
        )
        assert client.submit([]).summary["n_jobs"] == 0
        task = "submit:c2"
        assert slept == [policy.delay(task, 1), policy.delay(task, 2)]

    def test_default_sleeper_is_time_sleep(self):
        import time as _time

        assert Client("127.0.0.1", 1).sleep is _time.sleep


# -- the port file ------------------------------------------------------------------


class TestPortFile:
    def test_write_is_atomic_and_fsynced(self, tmp_path, monkeypatch):
        import os

        from repro.serve.cli import write_port_file

        events = []
        replaced = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            events.append("fsync")
            real_fsync(fd)

        def spy_replace(a, b):
            events.append("replace")
            replaced.append((str(a), str(b)))
            real_replace(a, b)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        path = tmp_path / "daemon.port"
        write_port_file(str(path), "127.0.0.1:8457")
        assert path.read_text() == "127.0.0.1:8457\n"
        # the content is durable before the rename publishes it
        assert events == ["fsync", "replace"]
        # written via a sibling tmp name, then renamed into place
        assert replaced[0][1] == str(path)
        assert replaced[0][0] != str(path)
        assert not list(tmp_path.glob("*.tmp*"))
