"""Backend conformance: serial / pool / remote are interchangeable.

Every backend must produce byte-identical replay reports and identical
engine results for the same inputs; faults injected through
``QBSS_FAULT_PLAN`` must behave the same whether the worker is a local
pool process or a ``qbss-worker`` at the far end of a TCP socket.  The
remote tests spawn real worker subprocesses bound to 127.0.0.1:0 with a
port-file handshake — the same deployment shape the CI ``backends`` job
drives.
"""

import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.core.qjob import QJob
from repro.engine import (
    Backend,
    ExecutionSession,
    FaultPlan,
    FaultSpec,
    PoolBackend,
    RemoteBackend,
    RetryPolicy,
    SerialBackend,
    create_backend,
    parse_backend_spec,
    run_experiments,
)
from repro.engine.backends.remote import resolve_worker_address
from repro.engine.faults import FAULT_PLAN_ENV
from repro.traces.replay import replay_jobs

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
QUICK = RetryPolicy(max_attempts=2, backoff_base=0.001, backoff_cap=0.01)


@pytest.fixture
def no_env_plan(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)


def jobs_stream():
    """A synthetic multi-shard stream (several 2.0-wide windows)."""
    for i in range(18):
        release = i * 0.5
        yield QJob(release, release + 4.0, 0.5, 2.0, 1.0, f"j{i}")


def canon(report):
    return json.dumps(report.to_dict(), sort_keys=True)


# -- spawning real workers ----------------------------------------------------------


class Worker:
    """One ``qbss-worker`` subprocess with a port-file handshake."""

    def __init__(self, tmp_path: Path, name: str, cache_dir: Path | None = None):
        self.port_file = tmp_path / f"{name}.port"
        self.log_path = tmp_path / f"{name}.log"
        self._log = open(self.log_path, "w")
        argv = [
            sys.executable,
            "-m",
            "repro.engine.backends.worker",
            "--bind",
            "127.0.0.1:0",
            "--port-file",
            str(self.port_file),
        ]
        argv += ["--cache-dir", str(cache_dir)] if cache_dir else ["--no-cache"]
        env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
        # Fault plans must arrive over the wire, per task — never by
        # inheritance — so the worker environment starts clean.
        env.pop(FAULT_PLAN_ENV, None)
        self.proc = subprocess.Popen(argv, env=env, stderr=self._log)

    @property
    def address(self) -> str:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if self.port_file.exists():
                return self.port_file.read_text().strip()
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(
            f"worker never published its port; log:\n{self.log_path.read_text()}"
        )

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=10)
        self._log.close()


@pytest.fixture
def spawn_workers(tmp_path):
    spawned = []

    def spawn(n, cache_dir=None):
        batch = [Worker(tmp_path, f"w{len(spawned) + i}", cache_dir) for i in range(n)]
        spawned.extend(batch)
        return [w.address for w in batch]

    yield spawn
    for w in spawned:
        w.stop()


def remote_backend(addresses, **kw):
    kw.setdefault("connect_timeout", 10.0)
    return RemoteBackend(addresses, **kw)


# -- spec parsing and construction --------------------------------------------------


class TestBackendSpec:
    def test_serial_and_pool_take_no_arguments(self):
        assert parse_backend_spec("serial") == ("serial", ())
        assert parse_backend_spec("pool") == ("pool", ())
        with pytest.raises(ValueError):
            parse_backend_spec("serial:what")
        with pytest.raises(ValueError):
            parse_backend_spec("pool:4")

    def test_remote_requires_hosts(self):
        kind, entries = parse_backend_spec("remote:a:1,b:2")
        assert kind == "remote"
        assert entries == ("a:1", "b:2")
        with pytest.raises(ValueError):
            parse_backend_spec("remote")
        with pytest.raises(ValueError):
            parse_backend_spec("remote:")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="serial"):
            parse_backend_spec("cloud")

    def test_create_backend_mapping(self):
        assert create_backend(None) is None
        assert create_backend("pool") is None  # driver's built-in default
        assert isinstance(create_backend("serial"), SerialBackend)
        remote = create_backend("remote:127.0.0.1:1")
        assert isinstance(remote, RemoteBackend)
        passthrough = SerialBackend()
        assert create_backend(passthrough) is passthrough

    def test_resolve_worker_address_literal_and_file(self, tmp_path):
        assert resolve_worker_address("example:8123") == ("example", 8123)
        port_file = tmp_path / "w.port"
        port_file.write_text("127.0.0.1:45678\n")
        assert resolve_worker_address(f"@{port_file}") == ("127.0.0.1", 45678)

    def test_resolve_worker_address_rejects_garbage(self, tmp_path):
        with pytest.raises(ValueError):
            resolve_worker_address("no-port-here")
        with pytest.raises(ValueError):
            resolve_worker_address("host:99999999")
        with pytest.raises(ValueError):
            resolve_worker_address(f"@{tmp_path / 'absent.port'}")

    def test_pool_backend_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            PoolBackend(0)

    def test_serial_backend_is_inline_only(self):
        backend = SerialBackend()
        assert backend.inline
        backend.ensure_open()  # a no-op, never raises
        with pytest.raises(RuntimeError, match="inline"):
            backend.submit(print, ())
        backend.close()


# -- conformance: identical outputs across backends ---------------------------------


class TestConformance:
    @pytest.fixture
    def serial_report(self, no_env_plan):
        report, _ = replay_jobs(
            jobs_stream(),
            shard_window=2.0,
            session=ExecutionSession(jobs=1, cache=False),
        )
        return canon(report)

    def test_pool_replay_is_byte_identical(self, no_env_plan, serial_report):
        report, _ = replay_jobs(
            jobs_stream(),
            shard_window=2.0,
            session=ExecutionSession(jobs=2, cache=False, backend="pool"),
        )
        assert canon(report) == serial_report

    def test_remote_replay_is_byte_identical(
        self, no_env_plan, serial_report, spawn_workers
    ):
        addresses = spawn_workers(2)
        with ExecutionSession(
            jobs=2, cache=False, backend=remote_backend(addresses)
        ) as session:
            report, metrics = replay_jobs(
                jobs_stream(), shard_window=2.0, session=session
            )
        assert canon(report) == serial_report
        assert metrics.misses == len(report.shards)

    def test_engine_results_identical_across_backends(
        self, no_env_plan, tmp_path, spawn_workers
    ):
        def run(backend, jobs):
            with ExecutionSession(jobs=jobs, cache=False, backend=backend) as s:
                result = run_experiments(["lemma42"], session=s)
            (report,) = result.reports
            return json.dumps(report.to_dict(), sort_keys=True)

        serial = run("serial", 1)
        assert run(None, 2) == serial  # the default hardened pool
        addresses = spawn_workers(2)
        assert run(remote_backend(addresses), 2) == serial

    def test_remote_crash_fault_retries_like_pool(
        self, no_env_plan, serial_report, spawn_workers
    ):
        # A transient crash on the first attempt of shard 1 — the remote
        # worker dies for real (SIGKILL), the link fails, and the retry
        # lands on the surviving worker.  The CI kill-mid-shard scenario.
        addresses = spawn_workers(2)
        plan = FaultPlan((FaultSpec(task="shard:1", kind="kill", attempt=1),))
        with ExecutionSession(
            jobs=2,
            cache=False,
            retry=QUICK,
            fault_plan=plan,
            backend=remote_backend(addresses),
        ) as session:
            report, metrics = replay_jobs(
                jobs_stream(), shard_window=2.0, session=session
            )
        assert canon(report) == serial_report
        assert metrics.retries >= 1

    def test_remote_raise_fault_is_deterministic_like_pool(
        self, no_env_plan, spawn_workers
    ):
        # Deterministic exceptions are not retried: same statuses as the
        # hardened pool, proving QBSS_FAULT_PLAN crossed the wire.
        plan = FaultPlan((FaultSpec(task="shard:1", kind="raise"),))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pooled, pm = replay_jobs(
                jobs_stream(),
                shard_window=2.0,
                session=ExecutionSession(
                    jobs=2, cache=False, retry=QUICK, fault_plan=plan
                ),
            )
        addresses = spawn_workers(2)
        with ExecutionSession(
            jobs=2,
            cache=False,
            retry=QUICK,
            fault_plan=plan,
            backend=remote_backend(addresses),
        ) as session:
            remoted, rm = replay_jobs(
                jobs_stream(), shard_window=2.0, session=session
            )
        statuses = {s["index"]: s.get("status", "ok") for s in remoted.shards}
        assert statuses[1] == "error"
        assert [f.kind for f in rm.failures] == [f.kind for f in pm.failures] == [
            "error"
        ]
        # Identical reports modulo the failure record, whose wall times
        # and traceback frames are inherently environment-specific.
        def strip(report):
            doc = report.to_dict()
            for shard in doc["shards"]:
                shard.pop("failure", None)
            return json.dumps(doc, sort_keys=True)

        assert strip(remoted) == strip(pooled)

    def test_remote_hang_times_out_and_pins_the_link(
        self, no_env_plan, serial_report, spawn_workers
    ):
        # Cancel-on-drain semantics: the deadline expires, the in-flight
        # handle cannot be cancelled (the worker is mid-sleep), so the
        # link is pinned and the rest of the stream drains on the other
        # worker.  Timeouts are terminal — shard 1 reports "timeout",
        # every other shard is byte-identical to the serial run.
        addresses = spawn_workers(2)
        plan = FaultPlan(
            (FaultSpec(task="shard:1", kind="hang", attempt=0, seconds=30.0),)
        )
        with ExecutionSession(
            jobs=2,
            cache=False,
            task_timeout=0.5,
            retry=QUICK,
            fault_plan=plan,
            backend=remote_backend(addresses),
        ) as session:
            report, metrics = replay_jobs(
                jobs_stream(), shard_window=2.0, session=session
            )
        assert metrics.timeouts == 1
        statuses = {s["index"]: s.get("status", "ok") for s in report.shards}
        assert statuses[1] == "timeout"
        clean = {s["index"]: s for s in json.loads(serial_report)["shards"]}
        for shard in report.shards:
            if shard["index"] == 1:
                continue
            assert dict(clean[shard["index"]], status="ok") == dict(
                shard, status="ok"
            )


# -- the cache as coordination point ------------------------------------------------


class TestCacheCoordination:
    def test_worker_publishes_and_serial_driver_reuses(
        self, no_env_plan, tmp_path, spawn_workers
    ):
        worker_cache = tmp_path / "worker-cache"
        driver_cache = tmp_path / "driver-cache"
        addresses = spawn_workers(2, cache_dir=worker_cache)
        with ExecutionSession(
            jobs=2,
            cache=True,
            cache_dir=driver_cache,
            backend=remote_backend(addresses),
        ) as session:
            remote, rm = replay_jobs(
                jobs_stream(), shard_window=2.0, session=session
            )
        assert rm.misses == len(remote.shards)
        # The workers published every shard into their shared cache by
        # digest; a plain serial run over that cache recomputes nothing.
        warm, wm = replay_jobs(
            jobs_stream(),
            shard_window=2.0,
            session=ExecutionSession(jobs=1, cache=True, cache_dir=worker_cache),
        )
        assert wm.hits == len(warm.shards)
        assert wm.misses == 0
        assert canon(warm) == canon(remote)


# -- failure and lifecycle semantics ------------------------------------------------


class TestRemoteLifecycle:
    def test_unreachable_workers_degrade_to_serial(self, no_env_plan):
        # Nothing listens on these ports: the backend is broken from the
        # start, and after the rebuild budget the driver degrades to the
        # in-process serial path with a RuntimeWarning — the same
        # escalation a repeatedly-broken local pool gets.
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            dead = f"127.0.0.1:{sock.getsockname()[1]}"
        with pytest.warns(RuntimeWarning), ExecutionSession(
            jobs=2,
            cache=False,
            backend=remote_backend([dead], connect_timeout=0.5),
        ) as session:
            report, metrics = replay_jobs(
                jobs_stream(), shard_window=2.0, session=session
            )
        assert metrics.degraded
        base, _ = replay_jobs(
            jobs_stream(),
            shard_window=2.0,
            session=ExecutionSession(jobs=1, cache=False),
        )
        clean = {s["index"]: s for s in base.shards}
        for shard in report.shards:
            assert shard["status"] == "degraded"  # complete, but flagged
            assert dict(clean[shard["index"]], status="x") == dict(shard, status="x")

    def test_session_keeps_remote_links_warm(self, no_env_plan, spawn_workers):
        addresses = spawn_workers(1)
        session = ExecutionSession(jobs=1, cache=False, backend=remote_backend(addresses))
        try:
            first, _ = replay_jobs(jobs_stream(), shard_window=2.0, session=session)
            again, _ = replay_jobs(jobs_stream(), shard_window=2.0, session=session)
            assert canon(first) == canon(again)
        finally:
            session.close()

    def test_session_validates_backend_spec_eagerly(self):
        with pytest.raises(ValueError):
            ExecutionSession(backend="remote")
        with pytest.raises(ValueError):
            ExecutionSession(backend="warp-drive")

    def test_serial_spec_through_session(self, no_env_plan):
        session = ExecutionSession(jobs=4, cache=False, backend="serial")
        try:
            backend = session.execution_backend
            assert isinstance(backend, SerialBackend)
            assert backend is session.execution_backend  # memoized
        finally:
            session.close()

    def test_backend_is_a_context_manager(self):
        with SerialBackend() as backend:
            assert isinstance(backend, Backend)
            assert "serial" in repr(backend)
