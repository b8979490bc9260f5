"""ExecutionSession: the one execution-context object of every entry point."""

import pytest

from repro.core.qjob import QJob
from repro.engine import (
    ExecutionSession,
    RetryPolicy,
    run_experiments,
)
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
                on_success=lambda *a: None,
                on_failure=lambda *a: None,
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
