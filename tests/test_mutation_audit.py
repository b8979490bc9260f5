"""The mutation audit behind qbss-lint's rule set, kept executable.

Each row of :data:`AUDIT` plants one bug into a copy of ``src/`` and
names the defence that catches it:

- a qbss-lint rule id -- the rule reports the bug in the row's file;
- a list of pytest node ids -- run against the planted copy, they fail.

A rule stays in qbss-lint only while a row shows it catching a bug that
nothing else catches; a bug class the runtime suites already catch needs
no rule.  :data:`RETIRED` names the rows that retired each rule.
``docs/static-analysis.md`` ("The mutation audit") summarizes the table.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.lint import all_rules, lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


class Row(NamedTuple):
    id: int
    path: str  # under src/
    old: str  # occurs exactly once in the live file
    new: str
    catcher: str | list[str]


AUDIT = [
    # Rows 1-2 and 24-27 are QL007's bug class (lock discipline): a
    # method shared between threads mutates state without its lock.
    # QL007 caught these six of the 36 ``with <lock>:`` blocks in src/;
    # lock spies and the suites catch all six.
    # RateLimiter.allow mutates its buckets without the lock.
    Row(
        1,
        "repro/serve/rate.py",
        "with self._lock:\n            self._sweep(now)",
        "if True:\n            self._sweep(now)",
        [
            "tests/test_serve.py::TestRateLimiter"
            "::test_allow_sweeps_and_charges_under_the_lock"
        ],
    ),
    # AdmissionJournal.log_admission bumps its sequence without the lock.
    Row(
        2,
        "repro/serve/journal.py",
        "with self._lock:\n            batch = self._seq",
        "if True:\n            batch = self._seq",
        [
            "tests/test_serve_journal.py::TestAdmissionJournal"
            "::test_appends_hold_the_lock[log_admission]"
        ],
    ),
    # AdmissionJournal.log_shard_complete appends without the lock.
    Row(
        24,
        "repro/serve/journal.py",
        "with self._lock:\n            self._append_locked(\n"
        "                JournalRecord(\n"
        '                    type="shard_complete",',
        "if True:\n            self._append_locked(\n"
        "                JournalRecord(\n"
        '                    type="shard_complete",',
        [
            "tests/test_serve_journal.py::TestAdmissionJournal"
            "::test_appends_hold_the_lock[log_shard_complete]"
        ],
    ),
    # AdmissionJournal.log_batch_complete appends without the lock.
    Row(
        25,
        "repro/serve/journal.py",
        "with self._lock:\n            self._append_locked(\n"
        '                JournalRecord(type="batch_complete",',
        "if True:\n            self._append_locked(\n"
        '                JournalRecord(type="batch_complete",',
        [
            "tests/test_serve_journal.py::TestAdmissionJournal"
            "::test_appends_hold_the_lock[log_batch_complete]"
        ],
    ),
    # _CacheWriter.submit queues a write without the condition's lock.
    Row(
        26,
        "repro/engine/session.py",
        "with self._cond:\n            self._queue.append(write)",
        "if True:\n            self._queue.append(write)",
        [
            "tests/test_session.py::TestWriteBehind"
            "::test_replay_returns_with_every_entry_written"
        ],
    ),
    # AdmissionQueue.submit admits a batch without the condition's lock.
    Row(
        27,
        "repro/serve/queue.py",
        "with self._cond:\n            if self._closed:",
        "if True:\n            if self._closed:",
        [
            "tests/test_serve.py::TestAdmissionQueue"
            "::test_fifo_and_depth_accounting"
        ],
    ),
    # RemoteBackend._fail_link retires a link without its lock.
    Row(
        3,
        "repro/engine/backends/remote.py",
        "with link.lock:\n            if sock is not None and link.sock is not sock:",
        "if True:\n            if sock is not None and link.sock is not sock:",
        [
            "tests/test_backends.py::TestRemoteLifecycle"
            "::test_fail_link_mutates_the_link_under_its_lock"
        ],
    ),
    # submit_payload takes queue._cond, then registry.lock: the inverse of
    # the registry.lock -> queue._cond order queue.depth already implies.
    Row(
        4,
        "repro/serve/server.py",
        "with self.registry.lock:\n            self._admitted.inc(n)",
        "with self.queue._cond, self.registry.lock:\n"
        "            self._admitted.inc(n)",
        ["tests/test_serve.py::TestLiveDaemon::test_submit_and_scrape"],
    ),
    # ResultCache.put publishes an entry that was never fsync'd.
    Row(
        5,
        "repro/engine/cache.py",
        "os.fsync(fh.fileno())",
        "pass",
        [
            "tests/test_faults.py::TestQuarantine"
            "::test_put_fsyncs_before_atomic_replace"
        ],
    ),
    # The journal acknowledges an admission that was never fsync'd.
    Row(
        6,
        "repro/serve/journal.py",
        "os.fsync(self._fh.fileno())",
        "pass",
        [
            "tests/test_serve_journal.py::TestAdmissionJournal"
            "::test_admissions_fsync_completion_marks_only_flush"
        ],
    ),
    # write_port_file renames a port file that was never fsync'd.
    Row(
        7,
        "repro/engine/backends/worker.py",
        "os.fsync(fh.fileno())",
        "pass",
        ["tests/test_serve.py::TestPortFile::test_write_is_atomic_and_fsynced"],
    ),
    # AdmissionJournal.compact replaces the journal with an unsynced file.
    Row(
        8,
        "repro/serve/journal.py",
        "os.fsync(fh.fileno())",
        "pass",
        [
            "tests/test_serve_journal.py::TestAdmissionJournal"
            "::test_compact_fsyncs_before_replace"
        ],
    ),
    # ReplayCheckpoint.record moves on before the append is durable.
    Row(
        9,
        "repro/traces/checkpoint.py",
        "os.fsync(self._fh.fileno())",
        "pass",
        [
            "tests/test_replay_checkpoint.py::TestReplayCheckpoint"
            "::test_appends_are_fsynced"
        ],
    ),
    # RemoteBackend._connect leaks its socket and reader on a bad hello.
    Row(
        10,
        "repro/engine/backends/remote.py",
        "for closable in (reader, sock):",
        "for closable in ():",
        [
            "tests/test_backends.py::TestRemoteLifecycle"
            "::test_bad_hello_closes_socket_and_reader"
        ],
    ),
    # The worker never closes a driver connection.
    Row(
        11,
        "repro/engine/backends/worker.py",
        "reader.close()\n            conn.close()",
        "reader.close()",
        [
            "tests/test_backends.py::TestWorkerLifecycle"
            "::test_serve_connection_closes_its_socket"
        ],
    ),
    # The worker never closes its listening socket.
    Row(
        12,
        "repro/engine/backends/worker.py",
        "finally:\n        server.close()",
        "finally:\n        pass",
        [
            "tests/test_backends.py::TestWorkerLifecycle"
            "::test_main_closes_its_listener"
        ],
    ),
    # qbss-serve's main thread parks in an untimed wait (signals starve):
    # QL009's bug class (blocking-call hygiene).
    Row(
        13,
        "repro/serve/cli.py",
        "while not stop.wait(0.5):",
        "while not stop.wait():",
        [
            "tests/test_serve.py::TestServeCli"
            "::test_sigterm_on_a_non_main_thread_drains"
        ],
    ),
    # A replay worker body reads the environment (poisons the cache key).
    Row(
        14,
        "repro/traces/replay.py",
        '    qi = qbss_instance_from_dict(shard_doc["instance"])',
        "    import os\n\n"
        '    alpha = float(os.environ.get("QBSS_ALPHA", alpha))\n'
        '    qi = qbss_instance_from_dict(shard_doc["instance"])',
        "QL003",
    ),
    # A registered runner takes a positional parameter past the instance
    # (oaq without its ``*``): run_algorithm's keywords still reach it,
    # but a positional call no longer fails.  The runtime signature tests
    # catch it, so QL002 (registry conformance) and its lint row 15 went.
    Row(
        16,
        "repro/qbss/oaq.py",
        "    qinstance: QBSSInstance,\n    *,\n    query_policy:",
        "    qinstance: QBSSInstance,\n    query_policy:",
        [
            "tests/test_algorithms_registry.py::TestRegistry"
            "::test_uniform_signatures_keyword_only",
            "tests/test_algorithms_registry.py::TestDeprecationShims"
            "::test_too_many_positionals_is_a_type_error[oaq]",
        ],
    ),
    # Rows 17-19 are QL001's bug class (determinism): a replayed path
    # reads a seedless RNG or the wall clock.
    # RetryPolicy.delay draws its jitter from an unseeded Random.
    Row(
        17,
        "repro/engine/faults.py",
        'rng = random.Random(f"{self.jitter_seed}:{task}:{attempt}")',
        "rng = random.Random()",
        [
            "tests/test_faults.py::TestRetryPolicy"
            "::test_delay_is_deterministic_per_task_and_attempt"
        ],
    ),
    # RandomizedQuery ignores its seed.
    Row(
        18,
        "repro/qbss/policies.py",
        "else np.random.default_rng(rng)",
        "else np.random.default_rng()",
        [
            "tests/test_policies_decisions.py::TestQueryPolicies"
            "::test_randomized_seeded_reproducible"
        ],
    ),
    # A shard's payload stamps the wall clock.
    Row(
        19,
        "repro/traces/replay.py",
        '        "rows": rows,\n        "status": "ok",',
        '        "rows": rows,\n'
        '        "evaluated_at": time.time(),\n'
        '        "status": "ok",',
        [
            "tests/test_traces.py"
            "::test_replay_parallel_and_cached_are_byte_identical"
        ],
    ),
    # QL004's bug class (exception hygiene): run_guarded swallows
    # KeyboardInterrupt and SystemExit as failure outcomes.
    Row(
        20,
        "repro/engine/faults.py",
        "        if not isinstance(exc, Exception):\n"
        "            raise  # KeyboardInterrupt / SystemExit must propagate\n",
        "",
        [
            "tests/test_faults.py::TestExecuteBaseException"
            "::test_keyboard_interrupt_propagates",
            "tests/test_faults.py::TestExecuteBaseException"
            "::test_system_exit_propagates",
            "tests/test_faults.py::TestEvaluateShardTaskBaseException"
            "::test_keyboard_interrupt_propagates",
            "tests/test_faults.py::TestEvaluateShardTaskBaseException"
            "::test_system_exit_propagates",
        ],
    ),
    # Rows 21 and 22 are QL006's bug class (versioned IO): a document
    # envelope without its version.
    Row(
        21,
        "repro/io.py",
        '        "version": FORMAT_VERSION,\n        "kind": "qbss",',
        '        "kind": "qbss",',
        ["tests/test_io.py::test_qbss_instance_roundtrip"],
    ),
    Row(
        22,
        "repro/traces/replay.py",
        '"version": REPLAY_FORMAT_VERSION,\n            "kind": "trace_replay_report",',
        '"kind": "trace_replay_report",',
        [
            "tests/test_traces.py::test_replay_report_io_round_trip",
            "tests/test_replay_cli.py::test_replay_cli_output_round_trips",
        ],
    ),
    # Lemma 4.2's verdict compares its ratio exactly: the "achieved"
    # column would flip on harmless roundoff, and no test notices.
    Row(
        23,
        "repro/analysis/experiments.py",
        "val >= claimed * (1 - 1e-9)",
        "val / claimed == 1.0",
        "QL005",
    ),
]

LINT_ROWS = [row for row in AUDIT if isinstance(row.catcher, str)]
RUNTIME_ROWS = [row for row in AUDIT if isinstance(row.catcher, list)]

#: Retired rule id -> the runtime rows that catch its bug class.  The ids
#: stay reserved: never reused, and selecting one is a usage error.
RETIRED = {
    "QL001": (17, 18, 19),
    "QL002": (16,),
    "QL004": (20,),
    "QL006": (21, 22),
    "QL007": (1, 2, 24, 25, 26, 27),
    "QL008": (4,),
    "QL009": (13,),
    "QL010": (10, 11, 12),
    "QL011": (5, 6, 7, 8, 9),
}

#: Rows whose catcher tests pass while the session watcher
#: (``tests/conftest.py``) fails the run at teardown, and what it raises.
TEARDOWN_FAILURES = {4: "LockOrderError: lock-order cycle observed"}


def row_id(row: Row) -> str:
    return f"row{row.id}"


def planted_copy(tmp_path: Path, *rows: Row) -> Path:
    """A copy of ``src/`` under ``tmp_path`` with ``rows`` applied."""
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    for row in rows:
        path = src / row.path
        text = path.read_text(encoding="utf-8")
        assert text.count(row.old) == 1, f"row {row.id} anchor drifted"
        path.write_text(text.replace(row.old, row.new), encoding="utf-8")
    return src


@pytest.mark.parametrize("row", AUDIT, ids=row_id)
def test_anchor_matches_live_tree_once(row):
    text = (SRC / row.path).read_text(encoding="utf-8")
    assert text.count(row.old) == 1


def test_every_rule_is_the_only_catcher_of_a_row():
    """Each kept rule has a lint row; each retired one has runtime rows."""
    assert {row.catcher for row in LINT_ROWS} == {r.rule_id for r in all_rules()}
    by_id = {row.id: row for row in AUDIT}
    assert len(by_id) == len(AUDIT)
    for rule, rows in RETIRED.items():
        assert rows and all(by_id[i] in RUNTIME_ROWS for i in rows), rule
    assert not set(RETIRED) & {r.rule_id for r in all_rules()}


def test_lint_rows_are_caught_by_their_rule(tmp_path):
    """Rows 14 and 23 sit in two files: one lint pass covers them.
    The live tree has no finding of these rules in these files
    (``test_lint.py::test_live_tree_is_lint_clean``)."""
    assert len({row.path for row in LINT_ROWS}) == len(LINT_ROWS)
    src = planted_copy(tmp_path, *LINT_ROWS)
    run = lint_paths([src / "repro"], root=tmp_path)
    for row in LINT_ROWS:
        hits = [
            f
            for f in run.findings
            if f.rule == row.catcher and f.path == f"src/{row.path}"
        ]
        assert hits, f"row {row.id}: {row.catcher} missed the planted bug"


@pytest.mark.parametrize("row", RUNTIME_ROWS, ids=row_id)
def test_runtime_row_fails_its_tests(row, tmp_path):
    """Run the row's node ids from the repo root against the planted copy."""
    src = planted_copy(tmp_path, row)
    env = dict(os.environ, PYTHONPATH=str(src))
    # Import repro before pytest starts, so the report can show which
    # tree the child ran.
    program = (
        "import sys, pytest, repro; "
        "print('repro imported from', repro.__file__); "
        "sys.exit(pytest.main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", program, "-p", "no:cacheprovider", *row.catcher],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert f"repro imported from {src / 'repro' / '__init__.py'}" in out, out
    assert proc.returncode != 0, f"row {row.id} went unnoticed:\n{out}"
    if row.id in TEARDOWN_FAILURES:
        assert TEARDOWN_FAILURES[row.id] in out, out
    else:
        for node in row.catcher:
            assert f"FAILED {node}" in out, out
