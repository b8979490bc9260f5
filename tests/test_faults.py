"""The hardened execution layer: timeouts, retries, crash recovery,
cache quarantine and the deterministic fault-injection harness.

The process-pool tests honor ``QBSS_TEST_JOBS`` (``serial`` | an integer |
``auto``) so CI can sweep the same suite across execution modes; locally
the default is the mode each test was written for.
"""

import json
import os
import time
import warnings
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cli import main, replay_main
from repro.engine import (
    QUARANTINE_DIRNAME,
    ExecutionSession,
    FailureInfo,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ResultCache,
    RetryPolicy,
    WorkerCrashError,
    run_experiments,
)
from repro.core.qjob import QJob
from repro.engine import runner as engine_runner
from repro.engine.faults import FAULT_PLAN_ENV
from repro.engine.runner import HardenedTask, _execute, execute_hardened
from repro.traces.replay import replay_jobs

FAST = ["lemma42", "rho"]
FIVE = ["lemma41", "lemma42", "lemma43", "lemma44", "lemma45"]

#: Quick retries so fault tests don't sleep through real backoff.
QUICK = RetryPolicy(max_attempts=3, backoff_base=0.001, backoff_cap=0.01)


def matrix_jobs(default):
    """Worker count for pool tests; CI sweeps it via ``QBSS_TEST_JOBS``."""
    raw = os.environ.get("QBSS_TEST_JOBS", "").strip().lower()
    if not raw:
        return default
    if raw == "serial":
        return 1
    if raw == "auto":
        return 0
    return int(raw)


def run_quiet(names, **session_fields):
    """run_experiments under QUICK retries, degradation warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_experiments(
            names, session=ExecutionSession(retry=QUICK, **session_fields)
        )


@pytest.fixture
def no_env_plan(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)


# -- unit: RetryPolicy / FaultPlan / FailureInfo ------------------------------------


class TestRetryPolicy:
    def test_delay_is_deterministic_per_task_and_attempt(self):
        p = RetryPolicy(max_attempts=3, backoff_base=0.1, jitter_seed=7)
        assert p.delay("t", 1) == p.delay("t", 1)
        assert p.delay("t", 1) != p.delay("u", 1)
        assert p.delay("t", 1) != p.delay("t", 2)

    def test_delay_grows_and_caps(self):
        p = RetryPolicy(max_attempts=9, backoff_base=1.0, backoff_cap=4.0)
        # jitter is in [0.5, 1.5), so attempt 10's base is capped at 4.0
        assert p.delay("t", 10) < 4.0 * 1.5
        assert p.delay("t", 10) >= 4.0 * 0.5

    def test_zero_base_means_no_sleep(self):
        assert RetryPolicy(backoff_base=0.0).delay("t", 1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            (
                FaultSpec(task="a", kind="crash", attempt=0),
                FaultSpec(task="b", kind="raise", transient=True),
                FaultSpec(task="c", kind="hang", seconds=1.5),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_env_hook_accepts_raw_json_and_file(self, tmp_path, monkeypatch):
        plan = FaultPlan((FaultSpec(task="x", kind="raise"),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        assert FaultPlan.from_env() == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        monkeypatch.setenv(FAULT_PLAN_ENV, f"@{path}")
        assert FaultPlan.from_env() == plan
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert FaultPlan.from_env() is None

    def test_attempt_zero_matches_every_attempt(self):
        spec = FaultSpec(task="t", kind="raise", attempt=0)
        assert all(spec.matches("t", n) for n in (1, 2, 3))
        assert not spec.matches("u", 1)

    def test_attempt_pinning(self):
        spec = FaultSpec(task="t", kind="raise", attempt=2)
        assert not spec.matches("t", 1)
        assert spec.matches("t", 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(task="t", kind="explode")

    def test_bad_plan_version_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.from_json(json.dumps({"version": 99, "faults": []}))

    def test_inject_raises_matching_exception(self):
        det = FaultPlan((FaultSpec(task="t", kind="raise"),))
        with pytest.raises(InjectedFault):
            det.inject("t", 1)
        det.inject("t", 2)  # pinned to attempt 1: no-op elsewhere
        crash = FaultPlan((FaultSpec(task="t", kind="crash"),))
        with pytest.raises(WorkerCrashError):  # in-process simulation
            crash.inject("t", 1)

    def test_kill_and_torn_write_are_known_kinds(self):
        FaultSpec(task="t", kind="kill")
        FaultSpec(task="t", kind="torn-write")

    def test_wants_torn_write_is_parent_applied(self):
        plan = FaultPlan((FaultSpec(task="t", kind="torn-write", attempt=0),))
        assert plan.wants_torn_write("t", 1)
        assert plan.wants_torn_write("t", 3)
        assert not plan.wants_torn_write("u", 1)
        assert not plan.wants_corrupt_cache("t", 1)
        plan.inject("t", 1)  # worker-side: a no-op, the parent truncates

    def test_torn_write_entry_cuts_raw_bytes_mid_stream(self, tmp_path):
        from repro.engine.faults import torn_write_entry

        path = tmp_path / "entry.json"
        full = json.dumps({"cache_version": 3, "report": {"rows": [1, 2, 3]}})
        path.write_text(full)
        torn_write_entry(path)
        raw = path.read_text()
        assert raw == full[: len(full) // 2]  # a prefix, cut mid-token
        with pytest.raises(json.JSONDecodeError):
            json.loads(raw)


class TestFailureInfo:
    def test_round_trip_and_summary(self):
        info = FailureInfo(
            task="lemma42",
            kind="crash",
            attempts=3,
            wall_times=[0.1, 0.2, 0.3],
            traceback="Traceback ...\nSomeError: boom",
        )
        assert FailureInfo.from_dict(info.to_dict()) == info
        line = info.summary_line()
        assert "lemma42" in line and "crash" in line and "3 attempt(s)" in line
        assert "SomeError: boom" in line


# -- satellite: BaseException pass-through ------------------------------------------


class TestExecuteBaseException:
    @staticmethod
    def _register(monkeypatch, exc):
        from repro.analysis.experiments import REGISTRY

        def boom():
            raise exc

        monkeypatch.setitem(REGISTRY, "kaboom", boom)

    def test_keyboard_interrupt_propagates(self, no_env_plan, monkeypatch):
        self._register(monkeypatch, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            _execute("kaboom", {})

    def test_system_exit_propagates(self, no_env_plan, monkeypatch):
        self._register(monkeypatch, SystemExit(3))
        with pytest.raises(SystemExit):
            _execute("kaboom", {})

    def test_plain_exception_is_captured(self, no_env_plan, monkeypatch):
        self._register(monkeypatch, ValueError("nope"))
        outcome = _execute("kaboom", {})
        assert outcome["ok"] is False
        assert "ValueError" in outcome["error"]
        assert not outcome["transient"]
        assert outcome["kind"] == "error"


# -- satellite: cache quarantine ----------------------------------------------------


class TestQuarantine:
    def _seed_entry(self, tmp_path):
        result = run_experiments(
            ["lemma42"], session=ExecutionSession(jobs=1, cache_dir=tmp_path)
        )
        store = ResultCache(tmp_path)
        (path,) = [p for p, _, _ in store.entries()]
        return result, store, path

    def test_truncated_entry_is_miss_and_quarantined(self, tmp_path):
        cold, store, path = self._seed_entry(tmp_path)
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 3])  # truncated mid-write
        again = run_experiments(
            ["lemma42"], session=ExecutionSession(jobs=1, cache_dir=tmp_path)
        )
        assert not again.runs[0].metrics.cache_hit
        assert again.runs[0].metrics.quarantined == 1
        assert again.quarantined == 1
        moved = list((tmp_path / QUARANTINE_DIRNAME).iterdir())
        assert len(moved) == 1  # preserved for post-mortem, not deleted
        assert moved[0].read_text() == raw[: len(raw) // 3]
        # the recomputed entry is identical and hits next time
        warm = run_experiments(
            ["lemma42"], session=ExecutionSession(jobs=1, cache_dir=tmp_path)
        )
        assert warm.runs[0].metrics.cache_hit
        assert warm.reports[0].render() == cold.reports[0].render()

    def test_zero_byte_entry_is_miss_and_quarantined(self, tmp_path):
        _, store, path = self._seed_entry(tmp_path)
        path.write_text("")
        assert store.get(path.stem) is None
        assert store.quarantined == 1
        assert (tmp_path / QUARANTINE_DIRNAME / path.name).exists()

    def test_non_dict_json_is_quarantined(self, tmp_path):
        _, store, path = self._seed_entry(tmp_path)
        path.write_text("[1, 2, 3]")
        assert store.get(path.stem) is None
        assert store.quarantined == 1

    def test_stale_version_is_plain_miss_left_in_place(self, tmp_path):
        _, store, path = self._seed_entry(tmp_path)
        doc = json.loads(path.read_text())
        doc["cache_version"] = -1
        path.write_text(json.dumps(doc))
        assert store.get(path.stem) is None
        assert store.quarantined == 0
        assert path.exists()

    def test_quarantine_excluded_from_entries_and_len(self, tmp_path):
        _, store, path = self._seed_entry(tmp_path)
        path.write_text("garbage")
        assert store.get(path.stem) is None
        assert len(store) == 0
        assert store.entries() == []
        store.clear()
        assert (tmp_path / QUARANTINE_DIRNAME / path.name).exists()

    def test_corrupt_cache_fault_round_trip(self, tmp_path, no_env_plan):
        plan = FaultPlan((FaultSpec(task="lemma42", kind="corrupt-cache"),))
        first = run_quiet(
            ["lemma42"], jobs=1, cache_dir=tmp_path, fault_plan=plan
        )
        assert first.runs[0].metrics.status == "ok"
        # the write was corrupted after the fact -> next run quarantines it
        again = run_experiments(
            ["lemma42"], session=ExecutionSession(jobs=1, cache_dir=tmp_path)
        )
        assert not again.runs[0].metrics.cache_hit
        assert again.quarantined == 1
        assert first.reports[0].render() == again.reports[0].render()

    def test_torn_write_fault_round_trip(self, tmp_path, no_env_plan):
        """A cache entry cut mid-stream is quarantined and recomputed —
        never served as a hit, never a crash."""
        plan = FaultPlan((FaultSpec(task="lemma42", kind="torn-write"),))
        first = run_quiet(
            ["lemma42"], jobs=1, cache_dir=tmp_path, fault_plan=plan
        )
        assert first.runs[0].metrics.status == "ok"
        again = run_experiments(
            ["lemma42"], session=ExecutionSession(jobs=1, cache_dir=tmp_path)
        )
        assert not again.runs[0].metrics.cache_hit
        assert again.quarantined == 1
        assert first.reports[0].render() == again.reports[0].render()
        # the recomputed (intact) entry hits next time
        warm = run_experiments(
            ["lemma42"], session=ExecutionSession(jobs=1, cache_dir=tmp_path)
        )
        assert warm.runs[0].metrics.cache_hit

    def test_put_fsyncs_before_atomic_replace(self, tmp_path, monkeypatch):
        """Durability contract of the cache write path: the entry is
        flushed + fsync'd to a temp file, then renamed into place — a
        crash can lose the entry but never publish a torn one."""
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        store = ResultCache(tmp_path)
        path = store.put("deadbeef" * 8, "lemma42", {}, {"rows": []}, 0.1)
        assert synced, "put() published an entry without fsync"
        assert path.exists()
        assert not list(tmp_path.glob("**/*.tmp*")), "temp file left behind"
        assert store.get("deadbeef" * 8) is not None


class TestCacheWriteFailure:
    """A cache write that fails degrades to an uncached run, on both entry
    points: retried under the session's policy, then skipped with one
    ``RuntimeWarning`` per task."""

    @staticmethod
    def _run(entry, session):
        """(canonical output, task count) of one engine or replay run."""
        if entry == "engine":
            result = run_experiments(FAST, session=session)
            assert [r.metrics.status for r in result.runs] == ["ok", "ok"]
            return [r.render() for r in result.reports], len(result.runs)

        def stream():
            for i in range(6):
                yield QJob(i * 1.0, i * 1.0 + 3.0, 0.5, 2.0, 1.0, f"j{i}")

        report, _ = replay_jobs(stream(), shard_window=2.0, session=session)
        assert not report.failed_shards
        return json.dumps(report.to_dict(), sort_keys=True), len(report.shards)

    @pytest.mark.parametrize("entry", ["engine", "replay"])
    def test_failed_write_runs_uncached_and_retry_recovers(
        self, entry, tmp_path, monkeypatch, no_env_plan
    ):
        uncached, tasks = self._run(entry, ExecutionSession(cache=False))
        real_put = ResultCache.put

        def full_disk(store, *args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(ResultCache, "put", full_disk)
        full = tmp_path / "full"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out, _ = self._run(
                entry, ExecutionSession(cache_dir=full, retry=QUICK)
            )
        assert out == uncached
        failed_writes = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "continuing uncached" in str(w.message)
        ]
        assert len(failed_writes) == tasks
        assert len(ResultCache(full)) == 0

        seen = set()

        def fails_once(store, key, *args):
            if key not in seen:
                seen.add(key)
                raise OSError(28, "No space left on device")
            return real_put(store, key, *args)

        monkeypatch.setattr(ResultCache, "put", fails_once)
        flaky = tmp_path / "flaky"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out, _ = self._run(
                entry, ExecutionSession(cache_dir=flaky, retry=QUICK)
            )
        assert out == uncached
        assert len(seen) == tasks
        assert len(ResultCache(flaky)) == tasks


# -- engine: retries, crashes, timeouts ---------------------------------------------


class TestEngineFaults:
    def test_deterministic_raise_fails_without_retry(self, tmp_path, no_env_plan):
        plan = FaultPlan((FaultSpec(task="lemma42", kind="raise", attempt=0),))
        res = run_quiet(FAST, jobs=1, cache_dir=tmp_path, fault_plan=plan)
        (bad,) = res.errors
        assert bad.name == "lemma42"
        assert bad.metrics.status == "error"
        assert bad.metrics.attempts == 1  # deterministic: never retried
        assert res.retries == 0
        (info,) = res.failures
        assert info.kind == "error" and info.attempts == 1
        assert "InjectedFault" in info.traceback
        # the other experiment is unaffected
        assert [r.id for r in res.reports] == ["RHO"]

    def test_transient_raise_is_retried_byte_identical(
        self, tmp_path, no_env_plan
    ):
        clean = run_quiet(FAST, jobs=1, cache=False)
        plan = FaultPlan(
            (FaultSpec(task="lemma42", kind="raise", attempt=1, transient=True),)
        )
        res = run_quiet(FAST, jobs=1, cache=False, fault_plan=plan)
        assert not res.errors
        assert res.retries == 1
        assert res.runs[0].metrics.attempts == 2
        assert [a.render() for a in clean.reports] == [
            b.render() for b in res.reports
        ]

    def test_transient_crash_rebuilds_pool_once(self, tmp_path, no_env_plan):
        plan = FaultPlan(
            (FaultSpec(task="lemma42", kind="crash", attempt=1, transient=True),)
        )
        res = run_quiet(
            FIVE,
            jobs=matrix_jobs(2),
            cache_dir=tmp_path,
            fault_plan=plan,
        )
        assert not res.errors
        assert len(res.reports) == 5
        if res.pool_rebuilds:  # pool mode: the crash broke it exactly once
            assert res.pool_rebuilds == 1
            assert not res.degraded
        assert res.retries >= 1

    def test_deterministic_crash_on_two_of_five(self, tmp_path, no_env_plan):
        """The acceptance scenario: 2 crashed, 3 correct, structured records."""
        plan = FaultPlan(
            (
                FaultSpec(task="lemma42", kind="crash", attempt=0),
                FaultSpec(task="lemma44", kind="crash", attempt=0),
            )
        )
        res = run_quiet(
            FIVE, jobs=matrix_jobs(2), cache_dir=tmp_path, fault_plan=plan
        )
        assert sorted(f.task for f in res.failures) == ["lemma42", "lemma44"]
        for info in res.failures:
            assert info.kind == "crash"
            assert info.attempts == QUICK.max_attempts
            assert len(info.wall_times) == info.attempts
        assert sorted(r.id for r in res.reports) == ["L41", "L43", "L45"]
        baseline = run_experiments(
            ["lemma41", "lemma43", "lemma45"],
            session=ExecutionSession(jobs=1, cache=False),
        )
        by_id = {r.id: r for r in baseline.reports}
        for rep in res.reports:
            assert rep.rows == by_id[rep.id].rows
        summary = res.summary()
        assert summary["failed"] == 2 and summary["ok"] == 3
        assert len(summary["failures"]) == 2
        # the three survivors were cached; the crashed two were not
        assert len(ResultCache(tmp_path)) == 3
        rerun = run_experiments(
            ["lemma41", "lemma43", "lemma45"],
            session=ExecutionSession(jobs=1, cache_dir=tmp_path),
        )
        assert all(r.metrics.cache_hit for r in rerun.runs)

    def test_kill_fault_in_pool_worker_is_recovered(self, no_env_plan):
        """A SIGKILLed worker (real kill -9: no orderly ``os._exit``)
        breaks the pool; the driver rebuilds it and retries the charged
        attempts, and the final output is byte-identical to a clean run."""
        clean = run_quiet(FAST, jobs=1, cache=False)
        plan = FaultPlan((FaultSpec(task="lemma42", kind="kill", attempt=1),))
        res = run_quiet(
            FAST,
            jobs=max(2, matrix_jobs(2)),  # in-process kill would take pytest down
            cache=False,
            fault_plan=plan,
        )
        assert not res.errors
        assert res.retries >= 1
        assert res.pool_rebuilds >= 1
        assert not res.degraded
        assert [a.render() for a in clean.reports] == [
            b.render() for b in res.reports
        ]

    def test_hang_times_out_and_batch_continues(self, tmp_path, no_env_plan):
        plan = FaultPlan(
            (FaultSpec(task="lemma42", kind="hang", attempt=0, seconds=30.0),)
        )
        res = run_quiet(
            FIVE,
            jobs=max(2, matrix_jobs(2)),  # deadlines need pool mode
            cache_dir=tmp_path,
            task_timeout=0.5,
            fault_plan=plan,
        )
        assert res.timeouts == 1
        (bad,) = res.errors
        assert bad.name == "lemma42"
        assert bad.metrics.status == "timeout"
        assert bad.metrics.attempts == 1  # hangs are presumed deterministic
        (info,) = res.failures
        assert info.kind == "timeout"
        assert sorted(r.id for r in res.reports) == ["L41", "L43", "L44", "L45"]

    def test_summary_and_footer_surface_recovery(self, tmp_path, no_env_plan):
        plan = FaultPlan(
            (
                FaultSpec(task="rho", kind="raise", attempt=0),
                FaultSpec(task="lemma42", kind="raise", attempt=1, transient=True),
            )
        )
        res = run_quiet(FAST, jobs=1, cache_dir=tmp_path, fault_plan=plan)
        footer = res.footer()
        assert "recovery: 1 retries" in footer
        assert "failed:" in footer
        assert "ERROR" in footer  # status column for the failed run
        summary = res.summary()
        assert summary["retries"] == 1
        assert summary["failures"][0]["task"] == "rho"


# -- driver: deadlines vs queue wait, hung workers, submit-path crashes -------------


def _ok_worker(key, attempt):
    """In-process stand-in worker for scripted-pool driver tests."""
    return {"ok": True, "payload": key, "wall": 0.0}


class TestHardenedDriver:
    def test_queue_wait_does_not_count_against_deadline(self, no_env_plan):
        """5 × ~0.5s tasks on 2 workers: under submit-time deadlines the
        back of the queue would spuriously time out without ever running."""
        plan = FaultPlan(
            tuple(
                FaultSpec(task=n, kind="hang", attempt=0, seconds=0.5)
                for n in FIVE
            )
        )
        res = run_quiet(
            FIVE,
            jobs=max(2, matrix_jobs(2)),
            cache=False,
            task_timeout=1.0,
            fault_plan=plan,
        )
        assert res.timeouts == 0
        assert not res.errors
        assert len(res.reports) == 5

    def test_all_workers_hung_pool_is_replaced(self, no_env_plan):
        """Hangs pinning every worker must not deadlock the remaining work
        (cancel() cannot stop a running task; the pool is replaced)."""
        plan = FaultPlan(
            (
                FaultSpec(task="lemma41", kind="hang", attempt=0, seconds=30.0),
                FaultSpec(task="lemma42", kind="hang", attempt=0, seconds=30.0),
            )
        )
        t0 = time.monotonic()
        res = run_quiet(
            FIVE, jobs=2, cache=False, task_timeout=0.5, fault_plan=plan
        )
        assert res.timeouts == 2
        assert sorted(f.task for f in res.failures) == ["lemma41", "lemma42"]
        assert all(f.kind == "timeout" for f in res.failures)
        assert sorted(r.id for r in res.reports) == ["L43", "L44", "L45"]
        assert res.pool_rebuilds >= 1  # reclaimed the pinned workers
        assert not res.degraded
        assert time.monotonic() - t0 < 20.0  # hung workers killed, not awaited

    def test_backoff_does_not_delay_timeout_detection(self, no_env_plan):
        """A task backing off several seconds must not block the deadline
        check for a concurrently hung task."""
        policy = RetryPolicy(max_attempts=2, backoff_base=4.0, backoff_cap=4.0)
        plan = FaultPlan(
            (
                FaultSpec(task="rho", kind="raise", attempt=1, transient=True),
                FaultSpec(task="lemma42", kind="hang", attempt=0, seconds=30.0),
            )
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = run_experiments(
                ["rho", "lemma42"],
                session=ExecutionSession(
                    jobs=2, cache=False, task_timeout=0.5, retry=policy, fault_plan=plan
                ),
            )
        assert res.retries == 1
        assert res.timeouts == 1
        (info,) = res.failures
        assert info.kind == "timeout"
        # the deadline fired on schedule, not after rho's ~4s backoff
        assert info.wall_times[0] < policy.delay("rho", 1)
        assert [r.id for r in res.reports] == ["RHO"]

    def test_submit_path_pool_break_settles_inflight(self, monkeypatch):
        """BrokenProcessPool raised *at submission* must charge the already
        in-flight tasks a crashed attempt, not silently drop them."""

        class ScriptedPool:
            built = 0

            def __init__(self, max_workers):
                ScriptedPool.built += 1
                self.first = ScriptedPool.built == 1
                self.count = 0

            def submit(self, fn, *args):
                if self.first and self.count == 2:
                    raise BrokenProcessPool("scripted break")
                self.count += 1
                fut = Future()
                if not self.first:
                    fut.set_result(fn(*args))
                return fut  # first pool: futures never complete

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(engine_runner, "ProcessPoolExecutor", ScriptedPool)
        tasks = [HardenedTask(f"t{i}") for i in range(3)]
        succeeded, failed = [], []
        stats = execute_hardened(
            tasks,
            worker=_ok_worker,
            payload=lambda t: (t.task_key,),
            on_success=lambda t, o, d: succeeded.append(t.task_key),
            on_failure=lambda t, k, e: failed.append((t.task_key, k)),
            jobs=2,
            retry=QUICK,
        )
        assert failed == []
        assert sorted(succeeded) == ["t0", "t1", "t2"]  # nothing lost
        assert stats.pool_rebuilds == 1
        assert not stats.degraded
        assert stats.retries == 2  # t0/t1 were charged a crashed attempt
        assert [t.attempt for t in tasks] == [2, 2, 1]

    def test_double_break_degrades_and_flags_stream_tasks(self, monkeypatch):
        """After degrading to serial, every task the fallback runs — carried
        and not-yet-pulled alike — is flagged degraded."""

        class AlwaysBroken:
            def __init__(self, max_workers):
                pass

            def submit(self, fn, *args):
                raise BrokenProcessPool("scripted break")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(engine_runner, "ProcessPoolExecutor", AlwaysBroken)
        stream = iter([HardenedTask(f"t{i}") for i in range(3)])
        flags = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            stats = execute_hardened(
                stream,
                worker=_ok_worker,
                payload=lambda t: (t.task_key,),
                on_success=lambda t, o, d: flags.__setitem__(t.task_key, d),
                on_failure=lambda t, k, e: flags.__setitem__(t.task_key, k),
                jobs=2,
                retry=QUICK,
            )
        assert stats.degraded
        assert stats.pool_rebuilds == 2
        assert flags == {"t0": True, "t1": True, "t2": True}
        assert sorted(stats.degraded_tasks) == ["t0", "t1", "t2"]


# -- CLI surfaces -------------------------------------------------------------------


class TestReportCli:
    def test_injected_crashes_exit_nonzero_with_structured_errors(
        self, tmp_path, monkeypatch, capsys
    ):
        plan = FaultPlan((FaultSpec(task="lemma42", kind="raise", attempt=0),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        rc = main(
            ["lemma42", "--cache-dir", str(tmp_path), "--max-attempts", "2"]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "failed (error after 1 attempt(s))" in captured.err
        assert "InjectedFault" in captured.err

    def test_transient_fault_retries_and_exits_zero(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        rc = main(["lemma42", "--no-cache"])
        clean = capsys.readouterr()
        assert rc == 0
        plan = FaultPlan(
            (FaultSpec(task="lemma42", kind="raise", attempt=1, transient=True),)
        )
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        rc = main(["lemma42", "--no-cache"])
        faulted = capsys.readouterr()
        assert rc == 0
        assert faulted.out == clean.out  # byte-identical report
        assert "1 retries" in faulted.err

    def test_markdown_failure_footer(self, tmp_path, monkeypatch, capsys):
        plan = FaultPlan((FaultSpec(task="lemma42", kind="raise", attempt=0),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        rc = main(["lemma42", "--cache-dir", str(tmp_path), "--markdown"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "## Failures" in captured.out
        assert "| lemma42 | error | 1 |" in captured.out

    def test_flag_validation(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["lemma42", "--task-timeout", "0"])
        with pytest.raises(SystemExit):
            main(["lemma42", "--max-attempts", "0"])


class TestReplayFaults:
    @pytest.fixture
    def jobs_stream(self):
        def make():
            for i in range(18):
                release = i * 0.5
                yield QJob(release, release + 4.0, 0.5, 2.0, 1.0, f"j{i}")

        return make

    def test_hung_shard_times_out_others_identical(
        self, tmp_path, no_env_plan, jobs_stream
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            base, _ = replay_jobs(
                jobs_stream(),
                shard_window=2.0,
                session=ExecutionSession(jobs=1, cache=False),
            )
            plan = FaultPlan(
                (FaultSpec(task="shard:1", kind="hang", attempt=0, seconds=30.0),)
            )
            rep, metrics = replay_jobs(
                jobs_stream(),
                shard_window=2.0,
                session=ExecutionSession(
                    jobs=max(2, matrix_jobs(2)),
                    cache=False,
                    task_timeout=0.5,
                    retry=QUICK,
                    fault_plan=plan,
                ),
            )
        assert metrics.timeouts == 1
        statuses = {s["index"]: s.get("status", "ok") for s in rep.shards}
        assert statuses[1] == "timeout"
        assert rep.shards[1]["rows"] == []
        assert [f.kind for f in metrics.failures] == ["timeout"]
        # every unaffected shard is byte-identical to the fault-free run
        for clean, faulted in zip(base.shards, rep.shards):
            if faulted["index"] == 1:
                continue
            canon_clean = dict(clean, status="ok")
            canon_fault = dict(faulted)
            canon_fault.setdefault("status", "ok")
            assert json.dumps(canon_clean, sort_keys=True) == json.dumps(
                canon_fault, sort_keys=True
            )

    def test_replay_cli_exits_one_on_failed_shard(
        self, tmp_path, monkeypatch, capsys
    ):
        trace = tmp_path / "jobs.csv"
        lines = ["release,deadline,runtime"]
        for i in range(12):
            r = i * 2.0
            lines.append(f"{r},{r + 8.0},{1.0 + (i % 3)}")
        trace.write_text("\n".join(lines) + "\n")
        plan = FaultPlan((FaultSpec(task="shard:1", kind="raise", attempt=0),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        rc = replay_main(
            [
                str(trace),
                "--shard-window",
                "6",
                "--jobs",
                "1",
                "--no-cache",
                "--markdown",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "## Failed shards" in captured.out
        assert "status 'error'" in captured.err


# -- property: transient faults never change results --------------------------------


from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def transient_plans(draw):
    """A FaultPlan with < max_attempts transient faults per task.

    Each FAST experiment independently gets transient ``raise`` faults at
    a subset of attempts {1, 2}; with ``max_attempts = 3`` the third
    attempt is always clean, so every task must eventually succeed.
    """
    specs = []
    for name in FAST:
        for attempt in sorted(
            draw(st.sets(st.sampled_from([1, 2]), max_size=2))
        ):
            specs.append(
                FaultSpec(
                    task=name, kind="raise", attempt=attempt, transient=True
                )
            )
    return FaultPlan(specs)


class TestTransientFaultTransparency:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(plan=transient_plans())
    def test_output_is_byte_identical_to_fault_free(
        self, plan, tmp_path_factory, monkeypatch
    ):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        clean_dir = tmp_path_factory.mktemp("clean")
        fault_dir = tmp_path_factory.mktemp("faulted")
        clean = run_quiet(FAST, jobs=1, cache_dir=clean_dir)
        faulted = run_quiet(
            FAST, jobs=1, cache_dir=fault_dir, fault_plan=plan
        )
        assert not faulted.errors
        assert [a.render() for a in clean.reports] == [
            b.render() for b in faulted.reports
        ]
        # only a contiguous run of faults starting at attempt 1 fires: a
        # fault pinned to attempt 2 is unreachable when attempt 1 succeeds
        expected_retries = 0
        for name in FAST:
            attempts = {s.attempt for s in plan.specs if s.task == name}
            expected_retries += 2 if {1, 2} <= attempts else int(1 in attempts)
        assert faulted.retries == expected_retries
        # same content addresses: retries never leak into cache keys
        clean_keys = sorted(p.name for p, _, _ in ResultCache(clean_dir).entries())
        fault_keys = sorted(p.name for p, _, _ in ResultCache(fault_dir).entries())
        assert clean_keys == fault_keys
