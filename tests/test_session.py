"""ExecutionSession: the one execution-context object of every entry point."""

import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.qjob import QJob
from repro.engine import (
    ExecutionSession,
    ResultCache,
    RetryPolicy,
    run_experiments,
)
from repro.engine import runner as engine_runner
from repro.engine.runner import HardenedTask
from repro.engine.session import WRITER_THREAD_NAME
from repro.obs import MetricsRegistry
from repro.traces.replay import replay_jobs, replay_trace

FAST = ["lemma42", "rho"]
QUICK = RetryPolicy(max_attempts=2, backoff_base=0.0, backoff_cap=0.0)


class TestConstruction:
    def test_defaults(self):
        s = ExecutionSession()
        assert s.pool_jobs == 1
        assert s.cache is True
        assert isinstance(s.retry_policy, RetryPolicy)

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError, match="task_timeout"):
            ExecutionSession(task_timeout=0.0)
        with pytest.raises(ValueError, match="task_timeout"):
            ExecutionSession(task_timeout=-1.5)

    def test_rejects_bad_jobs_eagerly(self):
        with pytest.raises(ValueError):
            ExecutionSession(jobs="several")

    def test_auto_jobs_resolve(self):
        assert ExecutionSession(jobs="auto").pool_jobs >= 1
        assert ExecutionSession(jobs=3).pool_jobs == 3

    def test_store_is_lazy_and_reused(self, tmp_path):
        s = ExecutionSession(cache_dir=tmp_path)
        first = s.store
        assert first is not None
        assert s.store is first  # one handle for the session's lifetime

    def test_store_none_when_cache_disabled(self):
        assert ExecutionSession(cache=False).store is None

    def test_retry_policy_defaulted(self):
        assert ExecutionSession(retry=None).retry_policy.max_attempts >= 1
        assert ExecutionSession(retry=QUICK).retry_policy is QUICK


class TestLifecycle:
    def test_close_is_idempotent(self):
        s = ExecutionSession()
        assert not s.closed
        s.close()
        s.close()
        assert s.closed

    def test_execute_after_close_raises(self):
        s = ExecutionSession()
        s.close()
        with pytest.raises(RuntimeError, match="closed"):
            s.execute(
                [],
                worker=lambda: {},
                payload=lambda t: (),
                on_success=lambda task, outcome, degraded: None,
                on_failure=lambda task, failure: None,
            )

    def test_store_after_close_raises(self, tmp_path):
        s = ExecutionSession(cache_dir=tmp_path)
        assert s.store is not None
        s.close()
        with pytest.raises(RuntimeError, match="closed"):
            s.store

    def test_context_manager_closes(self, tmp_path):
        with ExecutionSession(jobs=1, cache_dir=tmp_path, retry=QUICK) as s:
            result = run_experiments(["lemma42"], session=s)
            assert result.runs[0].metrics.status == "ok"
        assert s.closed

    def test_context_manager_closes_on_error(self):
        s = ExecutionSession()
        with pytest.raises(ValueError, match="boom"):
            with s:
                raise ValueError("boom")
        assert s.closed

    def test_reentering_closed_session_raises(self):
        s = ExecutionSession()
        s.close()
        with pytest.raises(RuntimeError, match="closed"):
            s.__enter__()

    def test_replay_via_closed_session_raises(self, tmp_path):
        s = ExecutionSession(jobs=1, cache_dir=tmp_path, retry=QUICK)
        s.close()
        with pytest.raises(RuntimeError, match="closed"):
            replay_jobs(
                iter([QJob(0.0, 3600.0, 1.0, 30.0, 12.0, "a")]), session=s
            )

    def test_close_drops_store_handle(self, tmp_path):
        s = ExecutionSession(cache_dir=tmp_path)
        first = s.store
        assert first is not None
        s.close()
        assert s._store is None


class TestEntryPoints:
    def test_run_experiments_accepts_session(self, tmp_path):
        shared = ExecutionSession(jobs=1, cache_dir=tmp_path / "a", retry=QUICK)
        run_experiments(["lemma43"], session=shared)  # already served a run
        via_shared = run_experiments(FAST, session=shared)
        via_fresh = run_experiments(
            FAST,
            session=ExecutionSession(jobs=1, cache_dir=tmp_path / "b", retry=QUICK),
        )
        assert [r.name for r in via_shared.runs] == [r.name for r in via_fresh.runs]
        assert [r.metrics.status for r in via_shared.runs] == ["ok", "ok"]
        for a, b in zip(via_shared.reports, via_fresh.reports):
            assert a.render() == b.render()

    @pytest.mark.parametrize(
        "call",
        [
            lambda **kw: run_experiments(FAST, **kw),
            lambda **kw: replay_jobs(iter(()), **kw),
            lambda **kw: replay_trace("trace.swf", **kw),
        ],
        ids=["run_experiments", "replay_jobs", "replay_trace"],
    )
    def test_execution_context_only_through_session(self, call):
        with pytest.raises(TypeError, match="jobs"):
            call(jobs=2)

    def test_no_session_runs_under_a_default_one(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QBSS_CACHE_DIR", str(tmp_path))
        result = run_experiments(["lemma42"])
        assert result.cache_dir == str(tmp_path)
        assert [r.metrics.status for r in result.runs] == ["ok"]
        report, metrics = replay_jobs(
            iter([QJob(0.0, 3600.0, 1.0, 30.0, 12.0, "a")])
        )
        assert metrics.cache_dir == str(tmp_path)
        assert len(report.shards) == 1

    def test_session_reuse_shares_cache(self, tmp_path):
        session = ExecutionSession(jobs=1, cache_dir=tmp_path, retry=QUICK)
        cold = run_experiments(FAST, session=session)
        warm = run_experiments(FAST, session=session)
        assert [r.metrics.cache_hit for r in cold.runs] == [False, False]
        assert [r.metrics.cache_hit for r in warm.runs] == [True, True]

    def test_replay_jobs_accepts_session(self, tmp_path):
        def stream():
            yield QJob(0.0, 3600.0, 1.0, 30.0, 12.0, "a")
            yield QJob(100.0, 4000.0, 1.0, 25.0, 5.0, "b")

        session = ExecutionSession(jobs=1, cache_dir=tmp_path, retry=QUICK)
        report, metrics = replay_jobs(stream(), session=session)
        assert report.shards
        assert metrics.shards == len(report.shards)

    def test_replay_quarantine_reported_as_delta(self, tmp_path):
        """A reused session's store accumulates; per-run metrics must not."""
        def stream():
            yield QJob(0.0, 3600.0, 1.0, 30.0, 12.0, "a")

        session = ExecutionSession(jobs=1, cache_dir=tmp_path, retry=QUICK)
        _, m1 = replay_jobs(stream(), session=session)
        _, m2 = replay_jobs(stream(), session=session)
        assert m1.quarantined == 0
        assert m2.quarantined == 0


class TestWriteBehind:
    """An out-of-process run's cache writes go to one writer thread, which
    ``execute`` drains before it returns; serial runs write inline."""

    @staticmethod
    def _stream(n=8):
        for i in range(n):
            yield QJob(10.0 * i, 10.0 * i + 6.0, 0.5, 2.0, 1.0, f"j{i}")

    @staticmethod
    def _record_puts(monkeypatch, delay=0.0):
        """Patch ``ResultCache.put`` to note the thread of every write."""
        threads = []
        real_put = ResultCache.put

        def put(store, *args):
            threads.append(threading.current_thread().name)
            time.sleep(delay)
            return real_put(store, *args)

        monkeypatch.setattr(ResultCache, "put", put)
        return threads

    def test_replay_returns_with_every_entry_written(self, tmp_path, monkeypatch):
        # Slow writes, so that entries would still be queued at return
        # if the writer were not drained.
        threads = self._record_puts(monkeypatch, delay=0.05)
        _, metrics = replay_jobs(
            self._stream(),
            shard_window=10.0,
            session=ExecutionSession(jobs=2, cache_dir=tmp_path),
        )
        assert metrics.misses == 8
        assert len(ResultCache(tmp_path)) == metrics.misses
        assert not list(tmp_path.glob("**/*.tmp*"))
        assert WRITER_THREAD_NAME not in {t.name for t in threading.enumerate()}
        assert threads == [WRITER_THREAD_NAME] * metrics.misses

    def test_pool_writes_count_on_the_registry(self, tmp_path):
        reg = MetricsRegistry()
        session = ExecutionSession(jobs=2, cache_dir=tmp_path, metrics=reg)
        _, cold = replay_jobs(self._stream(), shard_window=10.0, session=session)
        assert reg.value("qbss_cache_writes_total") == cold.misses == 8
        # a warm run writes nothing, so it starts no writer and has no series
        warm_reg = MetricsRegistry()
        session = ExecutionSession(jobs=2, cache_dir=tmp_path, metrics=warm_reg)
        _, warm = replay_jobs(self._stream(), shard_window=10.0, session=session)
        assert warm.hits == 8
        assert warm_reg.value("qbss_cache_writes_total") is None

    def test_serial_run_writes_inline(self, tmp_path, monkeypatch):
        threads = self._record_puts(monkeypatch)
        _, metrics = replay_jobs(
            self._stream(),
            shard_window=10.0,
            session=ExecutionSession(jobs=1, cache_dir=tmp_path),
        )
        assert threads == [threading.current_thread().name] * metrics.misses

    def test_writer_is_drained_before_a_pool_rebuild(self, tmp_path, monkeypatch):
        """A rebuilt pool forks: no writer thread may be alive when it is
        built or first used.  The scripted pool runs tasks in process."""
        alive = []

        def note(event):
            names = {t.name for t in threading.enumerate()}
            alive.append((event, WRITER_THREAD_NAME in names))

        class ScriptedPool:
            built = 0

            def __init__(self, max_workers):
                ScriptedPool.built += 1
                self.first = ScriptedPool.built == 1
                self.count = 0
                note(f"build {ScriptedPool.built}")

            def submit(self, fn, *args):
                note(f"submit {ScriptedPool.built}.{self.count}")
                fut = Future()
                if self.first and self.count == 2:
                    raise BrokenProcessPool("scripted break")
                if not (self.first and self.count == 1):  # never completes
                    fut.set_result(fn(*args))
                self.count += 1
                return fut

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(engine_runner, "ProcessPoolExecutor", ScriptedPool)
        # A deadline bounds submissions to the two free workers, so lemma42
        # settles (and its write starts the writer) before the third submit.
        session = ExecutionSession(
            jobs=2, cache_dir=tmp_path, retry=QUICK, task_timeout=60.0
        )
        result = run_experiments(["lemma42", "rho", "lemma43"], session=session)
        assert [r.metrics.status for r in result.runs] == ["ok", "ok", "ok"]
        assert result.pool_rebuilds == 1
        assert len(ResultCache(tmp_path)) == 3
        assert ("submit 1.2", True) in alive
        # the rebuilt pool is built and first used (where a real one forks)
        # with the writer stopped
        assert ("build 2", False) in alive and ("submit 2.0", False) in alive
        assert WRITER_THREAD_NAME not in {t.name for t in threading.enumerate()}

    def test_an_error_out_of_the_dispatch_loop_still_drains(
        self, tmp_path, monkeypatch
    ):
        self._record_puts(monkeypatch, delay=0.05)
        session = ExecutionSession(jobs=2, cache_dir=tmp_path)
        tasks = [HardenedTask(f"t{i}") for i in range(3)]
        for i, task in enumerate(tasks):
            task.publish = session.cache_entry(f"{i:064x}", "lemma42", {})
        queued = []

        def on_success(task, outcome, degraded):
            session.cache_put(task, outcome["payload"], outcome["wall"])
            queued.append(task.task_key)
            if len(queued) == 2:
                raise RuntimeError("caller failed mid-run")

        with pytest.raises(RuntimeError, match="mid-run"):
            session.execute(
                tasks,
                worker=engine_runner._execute,
                payload=lambda t: ("lemma42", {}, t.task_key),
                on_success=on_success,
                on_failure=lambda t, f: None,
            )
        assert len(ResultCache(tmp_path)) == len(queued) == 2
        assert not list(tmp_path.glob("**/*.tmp*"))
        assert WRITER_THREAD_NAME not in {t.name for t in threading.enumerate()}
