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
import socket
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import Future
from pathlib import Path

import pytest

import repro
from repro.core.qjob import QJob
from repro.engine import (
    Backend,
    ExecutionSession,
    FaultPlan,
    FaultSpec,
    PoolBackend,
    RemoteBackend,
    RetryPolicy,
    create_backend,
    parse_backend_spec,
    run_experiments,
)
from repro.engine.backends import worker as worker_main
from repro.engine.cache import ResultCache
from repro.engine.backends.remote import (
    WIRE_VERSION,
    _WorkerLink,
    recv_frame,
    resolve_worker_address,
    send_frame,
)
from repro.engine.faults import FAULT_PLAN_ENV
from repro.traces.replay import replay_jobs

#: The ``src/`` of the repro package under test (a planted copy in the
#: mutation audit), which the worker subprocesses must run too.
SRC_UNDER_TEST = Path(repro.__file__).resolve().parents[1]
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
        env = dict(os.environ, PYTHONPATH=str(SRC_UNDER_TEST))
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
        assert create_backend("serial") is None  # the default at one worker
        remote = create_backend("remote:127.0.0.1:1")
        assert isinstance(remote, RemoteBackend)
        passthrough = PoolBackend(1)
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


    def test_driver_writes_no_entry_a_worker_published(
        self, no_env_plan, tmp_path, spawn_workers, monkeypatch
    ):
        """Workers and driver share one cache directory: each shard's
        entry is written once, by the worker, and the driver's put spy
        sees no call."""
        cache = tmp_path / "shared-cache"
        addresses = spawn_workers(2, cache_dir=cache)
        puts = []
        real_put = ResultCache.put

        def spy(self, key, *args, **kwargs):
            puts.append(key)
            return real_put(self, key, *args, **kwargs)

        monkeypatch.setattr(ResultCache, "put", spy)
        with ExecutionSession(
            jobs=2, cache=True, cache_dir=cache, backend=remote_backend(addresses)
        ) as session:
            remote, rm = replay_jobs(jobs_stream(), shard_window=2.0, session=session)
        assert rm.misses == len(remote.shards) > 1
        assert puts == []
        assert len(ResultCache(cache)) == len(remote.shards)
        warm, wm = replay_jobs(
            jobs_stream(),
            shard_window=2.0,
            session=ExecutionSession(jobs=1, cache=True, cache_dir=cache),
        )
        assert (wm.hits, wm.misses) == (len(warm.shards), 0)
        assert canon(warm) == canon(remote)
        assert len(puts) == 0  # a hit writes nothing either


def _guarded_frame(spec):
    """A task frame whose outcome is ``{"ok": True, "payload": {"x": 1}}``."""
    return {
        "fn": "repro.engine.faults:run_guarded",
        "args": ("t", 1, None, lambda: {"x": 1}),
        "publish": spec,
    }


class TestPublishedMark:
    SPEC = {"key": "ab" * 32, "experiment": "t", "params": {}, "package_version": "0"}

    def test_worker_marks_only_what_it_published(self, tmp_path):
        store = ResultCache(tmp_path / "ok")
        outcome = worker_main._run_task(_guarded_frame(self.SPEC), store)
        assert outcome["published"] is True
        assert store.get(self.SPEC["key"])["report"] == {"x": 1}

        class FullDisk(ResultCache):
            def put(self, *args, **kwargs):
                raise OSError("no space left on device")

        failed = worker_main._run_task(
            _guarded_frame(self.SPEC), FullDisk(tmp_path / "full")
        )
        assert failed["ok"] and "published" not in failed
        assert "published" not in worker_main._run_task(_guarded_frame(self.SPEC), None)

    def _put(self, tmp_path, published, plan=None, monkeypatch=None):
        from repro.engine.runner import HardenedTask

        session = ExecutionSession(jobs=1, cache_dir=tmp_path, fault_plan=plan)
        task = HardenedTask("t")
        task.publish = session.cache_entry(self.SPEC["key"], "t", {})
        session.cache_put(task, {"x": 1}, 0.5, published=published)
        return session.store

    def test_driver_writes_when_the_published_entry_is_not_in_its_store(
        self, tmp_path, monkeypatch
    ):
        """A worker whose cache directory is not the driver's (or whose
        publication failed) leaves the write to the driver."""
        puts = []
        real_put = ResultCache.put
        monkeypatch.setattr(
            ResultCache, "put", lambda self, *a, **k: puts.append(a[0]) or real_put(self, *a, **k)
        )
        store = self._put(tmp_path, published=True)
        assert puts == [self.SPEC["key"]]
        assert store.get(self.SPEC["key"])["report"] == {"x": 1}
        self._put(tmp_path, published=True)  # now present: not written again
        assert puts == [self.SPEC["key"]]

    @pytest.mark.parametrize("kind", ["corrupt-cache", "torn-write"])
    def test_fault_hooks_fire_on_the_published_entry(self, tmp_path, kind):
        worker_main._run_task(_guarded_frame(self.SPEC), ResultCache(tmp_path))
        plan = FaultPlan((FaultSpec(task="t", kind=kind),))
        store = self._put(tmp_path, published=True, plan=plan)
        assert store.get(self.SPEC["key"]) is None
        assert store.quarantined == 1


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
            # "serial" is the built-in default at one worker: no backend
            # object, and the session sizes every run to one worker.
            assert session.execution_backend is None
            assert session.pool_jobs == 1
            assert ExecutionSession(jobs=4, backend="pool").pool_jobs == 4
        finally:
            session.close()

    def test_backend_is_a_context_manager(self):
        with PoolBackend(1) as backend:
            assert isinstance(backend, Backend)
            assert "pool" in repr(backend)

    def test_bad_hello_closes_socket_and_reader(self, monkeypatch):
        """A worker greeting with another wire version is refused, and the
        backend closes both the socket and its buffered reader."""
        opened, readers = [], []
        real_connect = socket.create_connection
        real_makefile = socket.socket.makefile

        def connect_spy(*args, **kwargs):
            opened.append(real_connect(*args, **kwargs))
            return opened[-1]

        def makefile_spy(sock, *args, **kwargs):
            readers.append(real_makefile(sock, *args, **kwargs))
            return readers[-1]

        monkeypatch.setattr(socket, "create_connection", connect_spy)
        monkeypatch.setattr(socket.socket, "makefile", makefile_spy)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(30.0)

            def greet_wrongly():
                conn, _ = listener.accept()
                with conn:
                    send_frame(
                        conn,
                        {"kind": "hello", "wire_version": WIRE_VERSION + 1},
                    )

            greeter = threading.Thread(target=greet_wrongly, daemon=True)
            greeter.start()
            address = listener.getsockname()[:2]
            assert remote_backend([address])._connect(_WorkerLink(address)) is False
            greeter.join(timeout=30.0)
            assert not greeter.is_alive()
        (sock,) = opened
        (reader,) = readers
        assert reader.closed
        assert sock.fileno() == -1

    def test_fail_link_mutates_the_link_under_its_lock(self):
        """The driver and reader threads both retire links, so every field
        ``_fail_link`` clears changes under ``link.lock``."""

        class SpyLock:
            held = False

            def __enter__(self):
                self.held = True

            def __exit__(self, *exc_info):
                self.held = False

        guarded = {"sock", "reader", "alive", "pinned", "pending", "abandoned"}

        class SpiedLink(_WorkerLink):
            def __setattr__(self, name, value):
                lock = getattr(self, "lock", None)
                if name in guarded and isinstance(lock, SpyLock):
                    assert lock.held, f"{name} mutated without link.lock"
                super().__setattr__(name, value)

        a, b = socket.socketpair()
        with a, b:
            b.settimeout(30.0)
            link = SpiedLink(("127.0.0.1", 1))
            handle: Future = Future()
            link.sock, link.alive = a, True
            link.pending = (1, handle, time.monotonic())
            link.lock = SpyLock()
            RemoteBackend(["127.0.0.1:1"])._fail_link(link, sock=a)
            assert (link.sock, link.pending, link.alive) == (None, None, False)
            assert handle.result(timeout=0)["kind"] == "crash"
            assert b.recv(1) == b""  # the worker's end sees EOF


class TestWorkerLifecycle:
    """The worker side of the wire, run in process."""

    def test_serve_connection_closes_its_socket(self):
        conn, peer = socket.socketpair()
        received = []

        def read_hello_then_hang_up():
            with peer, peer.makefile("rb") as reader:
                received.append(recv_frame(reader)["kind"])

        peer_thread = threading.Thread(target=read_hello_then_hang_up, daemon=True)
        peer_thread.start()
        assert worker_main._serve_connection(conn, "peer", None) is False
        peer_thread.join(timeout=30.0)
        assert not peer_thread.is_alive() and received == ["hello"]
        assert conn.fileno() == -1

    def test_main_closes_its_listener(self, tmp_path, monkeypatch):
        listeners = []
        real_create_server = socket.create_server

        def create_server_spy(*args, **kwargs):
            listeners.append(real_create_server(*args, **kwargs))
            listeners[-1].settimeout(30.0)  # a lost client fails, not hangs
            return listeners[-1]

        monkeypatch.setattr(socket, "create_server", create_server_spy)
        monkeypatch.setattr(worker_main.signal, "signal", lambda *args: None)
        port_file = tmp_path / "worker.port"
        received = []

        def shut_the_worker_down():
            deadline = time.monotonic() + 30.0
            while not port_file.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            address = resolve_worker_address(f"@{port_file}")
            with socket.create_connection(address, timeout=30.0) as sock:
                with sock.makefile("rb") as reader:
                    received.append(recv_frame(reader)["kind"])
                    send_frame(sock, {"kind": "shutdown"})
                    received.append(recv_frame(reader)["kind"])

        client = threading.Thread(target=shut_the_worker_down, daemon=True)
        client.start()
        rc = worker_main.main(
            ["--bind", "127.0.0.1:0", "--port-file", str(port_file), "--no-cache"]
        )
        client.join(timeout=30.0)
        assert not client.is_alive() and received == ["hello", "bye"]
        assert rc == 0
        (listener,) = listeners
        assert listener.fileno() == -1
