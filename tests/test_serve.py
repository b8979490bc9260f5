"""repro.serve: protocol, admission, rate accounting, the live daemon,
graceful drain, /metrics, and the byte-identity contract with qbss-replay.

The live-daemon tests bind to 127.0.0.1 port 0 (OS-assigned), talk
through the typed :class:`repro.serve.client.Client`, and always drain
before tearing down — the same lifecycle the CLI drives on SIGTERM.
"""

import json
import threading

import pytest

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

QUICK = RetryPolicy(max_attempts=2, backoff_base=0.001, backoff_cap=0.01)


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
        ],
    )
    def test_malformed_requests_are_located(self, body, fragment):
        with pytest.raises(ProtocolError) as excinfo:
            parse_jobs_payload(body, source="client:test")
        assert fragment in str(excinfo.value)
        assert "client:test" in str(excinfo.value)

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

    def test_default_burst_is_one_second(self):
        assert RateLimiter(5.0).burst == 5.0
        assert RateLimiter(0.25).burst == 1.0

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            RateLimiter(0.0)
        with pytest.raises(ValueError):
            RateLimiter(1.0, idle_grace=0.0)

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

        server = QbssServer(small_config(tmp_path, cache=False))
        server.start()
        try:
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
        cache and still matches the first byte-for-byte."""
        server = QbssServer(small_config(tmp_path))
        first = server.serve_once(job_lines(40))[1]
        second = server.serve_once(job_lines(40))[1]
        server.drain()
        assert first == second
        samples = parse_prometheus_text(server.metrics_text())
        hits = sum(
            v
            for (name, labels), v in samples.items()
            if name == "qbss_cache_lookups_total" and ("result", "hit") in labels
        )
        assert hits > 0


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
        ],
    )
    def test_bad_arguments_are_usage_errors(self, argv):
        from repro.serve.cli import main as serve_main

        with pytest.raises(SystemExit) as excinfo:
            serve_main(argv)
        assert excinfo.value.code == 2


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

        replaced = []
        real_replace = os.replace
        monkeypatch.setattr(
            os,
            "replace",
            lambda a, b: (replaced.append((str(a), str(b))), real_replace(a, b))[1],
        )
        path = tmp_path / "daemon.port"
        write_port_file(str(path), "127.0.0.1:8457")
        assert path.read_text() == "127.0.0.1:8457\n"
        # written via a sibling tmp name, then renamed into place
        assert replaced and replaced[0][1] == str(path)
        assert replaced[0][0] != str(path)
        assert not list(tmp_path.glob("*.tmp*"))
