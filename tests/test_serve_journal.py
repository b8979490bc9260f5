"""Crash-safe durability of ``qbss-serve``: the write-ahead admission
journal, tolerant scans, restart recovery, and the kill -9 chaos pin.

The subprocess tests drive the real ``qbss-serve`` console entry point,
SIGKILL it mid-batch (via the ``kill`` fault kind — with ``--jobs 1``
shard evaluation is in-process, so the injection takes the daemon down),
and assert the restarted daemon completes the journalled work
byte-identically to an uninterrupted cold run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import io as rio
from repro.engine import FaultPlan, FaultSpec
from repro.engine.faults import FAULT_PLAN_ENV
from repro.obs.metrics import parse_prometheus_text
from repro.serve import (
    AdmissionJournal,
    Client,
    JournalRecord,
    QbssServer,
    RecoveryReport,
    ServeClientError,
    ServeError,
)
from repro.serve.journal import (
    JOURNAL_FILENAME,
    SERVE_JOURNAL_VERSION,
    shard_payload_digest,
)

from test_serve import job_lines, small_config

REPO_ROOT = Path(__file__).resolve().parent.parent


def journal_config(tmp_path, **overrides):
    overrides.setdefault("journal_dir", tmp_path / "journal")
    return small_config(tmp_path, **overrides)


def journal_path(tmp_path) -> Path:
    return tmp_path / "journal" / JOURNAL_FILENAME


# -- the record format --------------------------------------------------------------


class TestJournalRecord:
    def test_round_trips_through_repro_io(self, tmp_path):
        record = JournalRecord(
            type="admission",
            batch=3,
            client="ci",
            jobs=({"id": "a", "release": 0.0, "runtime": 1.0},),
        )
        path = tmp_path / "record.json"
        rio.save(record, path)
        loaded = rio.load(path)
        assert loaded == record
        doc = json.loads(path.read_text())
        assert doc["kind"] == "serve_journal_record"
        assert doc["version"] == SERVE_JOURNAL_VERSION

    def test_type_specific_fields_on_the_wire(self):
        shard = JournalRecord(
            type="shard_complete", batch=1, shard_index=2, shard_digest="ab" * 32
        )
        doc = shard.to_dict()
        assert doc["shard_index"] == 2 and "jobs" not in doc
        done = JournalRecord(type="batch_complete", batch=1, status="ok")
        assert done.to_dict()["status"] == "ok"
        assert JournalRecord.from_dict(done.to_dict()) == done

    def test_unknown_type_and_bad_batch_rejected(self):
        with pytest.raises(ValueError):
            JournalRecord(type="mystery", batch=1)
        with pytest.raises(ValueError):
            JournalRecord(type="admission", batch=0)

    def test_unsupported_version_rejected(self, tmp_path):
        doc = JournalRecord(type="batch_complete", batch=1, status="ok").to_dict()
        doc["version"] = 99
        with pytest.raises(ValueError):
            JournalRecord.from_dict(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(rio.FormatError):
            rio.load(path)

    def test_digest_is_canonical(self):
        a = shard_payload_digest({"x": 1, "y": [2, 3]})
        b = shard_payload_digest({"y": [2, 3], "x": 1})
        assert a == b and len(a) == 64


# -- the journal file ---------------------------------------------------------------


class TestAdmissionJournal:
    def test_admission_lifecycle_and_scan(self, tmp_path):
        with AdmissionJournal(tmp_path) as journal:
            batch = journal.log_admission(
                "ci", [{"id": "a", "release": 0.0, "runtime": 1.0}]
            )
            assert batch == 1
            journal.log_shard_complete(batch, 0, "ab" * 32)
            journal.log_batch_complete(batch, "ok")
        scan = AdmissionJournal(tmp_path).scan()
        assert [r.type for r in scan.records] == [
            "admission",
            "shard_complete",
            "batch_complete",
        ]
        assert scan.torn == 0
        assert scan.incomplete() == []

    def test_incomplete_admissions_preserve_jobs(self, tmp_path):
        jobs = [{"id": "a", "release": 0.0, "runtime": 1.0}]
        with AdmissionJournal(tmp_path) as journal:
            journal.log_admission("ci", jobs)
            done = journal.log_admission("ci", jobs)
            journal.log_batch_complete(done, "ok")
        scan = AdmissionJournal(tmp_path).scan()
        (open_record,) = scan.incomplete()
        assert open_record.batch == 1
        assert list(open_record.jobs) == jobs

    def test_admissions_fsync_completion_marks_only_flush(
        self, tmp_path, monkeypatch
    ):
        # Admissions must be durable before the ack; completion marks
        # only narrow recovery, so they skip the fsync (the <5% journal
        # overhead budget rides on this).
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        with AdmissionJournal(tmp_path) as journal:
            journal.log_admission("ci", [])
            journal.log_shard_complete(1, 0, "ab" * 32)
            journal.log_batch_complete(1, "ok")
        assert len(synced) == 1

    def test_torn_tail_is_dropped_and_counted(self, tmp_path):
        with AdmissionJournal(tmp_path) as journal:
            journal.log_admission("ci", [])
        with open(tmp_path / JOURNAL_FILENAME, "a") as fh:
            fh.write('{"kind": "serve_journal_record", "vers')  # crash debris
        with AdmissionJournal(tmp_path) as fresh:
            scan = fresh.scan()
            assert [r.type for r in scan.records] == ["admission"]
            assert scan.torn == 1
            # sequence numbering continues after the intact prefix
            assert fresh.log_admission("ci", []) == 2

    def test_torn_write_fault_tears_the_append(self, tmp_path):
        plan = FaultPlan(
            (FaultSpec(task="journal:admission:2", kind="torn-write", attempt=0),)
        )
        with AdmissionJournal(tmp_path, fault_plan=plan) as journal:
            journal.log_admission("ci", [])
            journal.log_batch_complete(1, "ok")
            journal.log_admission("ci", [{"id": "a", "release": 0, "runtime": 1}])
        raw = (tmp_path / JOURNAL_FILENAME).read_text()
        assert not raw.endswith("\n")  # the torn append never completed
        scan = AdmissionJournal(tmp_path).scan()
        assert scan.torn == 1
        assert [r.type for r in scan.records] == ["admission", "batch_complete"]
        # the torn admission was never fsync'd, hence never acknowledged:
        # recovery correctly has nothing to replay
        assert scan.incomplete() == []

    def test_compact_keeps_only_given_records(self, tmp_path):
        with AdmissionJournal(tmp_path) as journal:
            journal.log_admission("ci", [])
            journal.log_batch_complete(1, "ok")
            journal.log_admission("ci", [{"id": "x", "release": 0, "runtime": 1}])
            scan = journal.scan()
            journal.compact(scan.incomplete())
            # post-compact appends land behind the kept records
            journal.log_batch_complete(2, "ok")
        scan = AdmissionJournal(tmp_path).scan()
        assert [(r.type, r.batch) for r in scan.records] == [
            ("admission", 2),
            ("batch_complete", 2),
        ]

    def test_compact_fsyncs_before_replace(self, tmp_path, monkeypatch):
        # The rewritten journal is durable before it replaces the old one:
        # a crash between the two must leave one complete journal.
        with AdmissionJournal(tmp_path) as journal:
            journal.log_admission("ci", [{"id": "x", "release": 0, "runtime": 1}])
            keep = journal.scan().incomplete()
            events = []
            real_fsync, real_replace = os.fsync, Path.replace

            def spy_fsync(fd):
                events.append("fsync")
                real_fsync(fd)

            def spy_replace(self, target):
                events.append("replace")
                return real_replace(self, target)

            monkeypatch.setattr(os, "fsync", spy_fsync)
            monkeypatch.setattr(Path, "replace", spy_replace)
            journal.compact(keep)
        assert events == ["fsync", "replace"]
        assert [r.batch for r in AdmissionJournal(tmp_path).scan().records] == [1]


# -- fail closed: no journal bytes crash a scan -------------------------------------

#: A batch number that parses as a float infinity.
OVERFLOW_RECORD = (
    b'{"kind":"serve_journal_record","version":1,"type":"admission","batch":1e400}'
)

journal_records = st.one_of(
    st.builds(
        JournalRecord,
        type=st.just("admission"),
        batch=st.integers(1, 10**6),
        client=st.text(max_size=8),
        jobs=st.lists(
            st.fixed_dictionaries(
                {
                    "id": st.text(max_size=4),
                    "release": st.floats(0.0, 1e6),
                    "runtime": st.floats(0.1, 10.0),
                }
            ),
            max_size=3,
        ).map(tuple),
    ),
    st.builds(
        JournalRecord,
        type=st.just("shard_complete"),
        batch=st.integers(1, 10**6),
        shard_index=st.integers(0, 100),
        shard_digest=st.text("0123456789abcdef", min_size=64, max_size=64),
    ),
    st.builds(
        JournalRecord,
        type=st.just("batch_complete"),
        batch=st.integers(1, 10**6),
        status=st.sampled_from(["ok", "error"]),
    ),
)

#: One line of anything but a newline: random bytes or a cut record.
junk_lines = st.one_of(
    st.binary(max_size=48),
    st.tuples(journal_records, st.integers(0, 200)).map(
        lambda pair: pair[0].encode().encode()[: pair[1]][:-1]
    ),
).map(lambda line: line.replace(b"\n", b""))


def non_blank_lines(data: bytes) -> int:
    return sum(1 for line in data.split(b"\n") if line.strip())


class TestJournalFailsClosed:
    """A journal file of any bytes scans without raising: each non-blank
    line is a record or a torn line, and no valid record is lost."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.binary(max_size=400))
    @example(data=OVERFLOW_RECORD + b"\n")
    @example(data=b"\xff\n")
    @example(data=OVERFLOW_RECORD.replace(b"1e400", b"true") + b"\n")
    @example(data=OVERFLOW_RECORD.replace(b"1e400", b"1") + b"\n\xc3\n")
    def test_arbitrary_bytes_scan_as_records_or_torn(self, tmp_path, data):
        journal_path(tmp_path).parent.mkdir(exist_ok=True)
        journal_path(tmp_path).write_bytes(data)
        with AdmissionJournal(tmp_path / "journal") as journal:
            scan = journal.scan()
        assert len(scan.records) + scan.torn == non_blank_lines(data)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        lines=st.lists(
            st.one_of(journal_records, junk_lines), max_size=8
        ),
        tail=junk_lines,
    )
    def test_valid_records_survive_interleaved_junk(self, tmp_path, lines, tail):
        data = b"".join(
            (line.encode().encode() if isinstance(line, JournalRecord) else line)
            + b"\n"
            for line in lines
        ) + tail
        journal_path(tmp_path).parent.mkdir(exist_ok=True)
        journal_path(tmp_path).write_bytes(data)
        with AdmissionJournal(tmp_path / "journal") as journal:
            scan = journal.scan()
        assert len(scan.records) + scan.torn == non_blank_lines(data)
        recovered = iter(scan.records)
        for record in lines:
            if isinstance(record, JournalRecord):
                # in order: every valid line is among the records
                assert any(record == got for got in recovered), record

    def test_overflowing_batch_is_torn_and_the_daemon_recovers(self, tmp_path):
        """The reproducer: ``"batch": 1e400`` used to kill qbss-serve
        with an OverflowError before it served anything."""
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir()
        (journal_dir / JOURNAL_FILENAME).write_bytes(
            OVERFLOW_RECORD + b"\n" + b"\xff\xfe\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        env.pop(FAULT_PLAN_ENV, None)
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.serve.cli",
                "--stdin", "--journal", str(journal_dir), "--no-cache",
            ],
            input='{"release": 0, "runtime": 1}\n',
            env=env,
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "2 torn record(s) dropped" in proc.stderr
        assert '"kind":"shard_result"' in proc.stdout


# -- the server integration (inline, no HTTP) ---------------------------------------


class TestServerJournal:
    def test_serve_once_journals_admission_and_completion(self, tmp_path):
        server = QbssServer(journal_config(tmp_path))
        code, _ = server.serve_once(job_lines(10))
        server.drain()
        assert code == 0
        scan = AdmissionJournal(tmp_path / "journal").scan()
        types = [r.type for r in scan.records]
        assert types[0] == "admission"
        assert types[-1] == "batch_complete"
        assert "shard_complete" in types
        assert scan.incomplete() == []
        (complete,) = [r for r in scan.records if r.type == "batch_complete"]
        assert complete.status == "ok"

    def test_queue_rejection_retires_the_journal_entry(self, tmp_path):
        # No scheduler running, so admitted batches stay queued.
        server = QbssServer(journal_config(tmp_path, queue_limit=5))
        server.submit_payload(job_lines(4), "a")
        with pytest.raises(ServeError):
            server.submit_payload(job_lines(3), "a")
        scan = server.journal.scan()
        # the rejected batch is closed out: recovery must not replay it
        assert [r.batch for r in scan.incomplete()] == [1]
        statuses = {
            r.batch: r.status for r in scan.records if r.type == "batch_complete"
        }
        assert statuses == {2: "rejected"}
        server.journal.close()

    def test_recover_replays_incomplete_batch(self, tmp_path):
        crashed = QbssServer(journal_config(tmp_path))
        crashed.submit_payload(job_lines(8), "ci")  # admitted, never evaluated
        crashed.journal.close()  # what the crash does to its file handle

        server = QbssServer(journal_config(tmp_path))
        report = server.recover()
        assert isinstance(report, RecoveryReport)
        assert report.batches == 1 and report.jobs == 8
        assert "1 incomplete batch(es) / 8 job(s)" in report.summary_line()
        code, _ = server.serve_once(job_lines(2))  # drains recovered work first
        server.drain()
        assert code == 0
        samples = parse_prometheus_text(server.metrics_text())
        assert samples[("qbss_serve_recovered_batches_total", ())] == 1.0
        assert samples[("qbss_serve_recovered_jobs_total", ())] == 8.0
        # 8 recovered + 2 fresh jobs all completed
        assert samples[("qbss_serve_jobs_completed_total", ())] == 10.0
        scan = AdmissionJournal(tmp_path / "journal").scan()
        assert scan.incomplete() == []

    def test_recover_without_journal_is_none(self, tmp_path):
        server = QbssServer(small_config(tmp_path))
        assert server.recover() is None

    def test_recover_after_start_is_an_error(self, tmp_path):
        server = QbssServer(journal_config(tmp_path, port=0))
        server.start()
        try:
            with pytest.raises(RuntimeError):
                server.recover()
        finally:
            server.begin_drain()
            server.drain()
            server.stop()

    def test_recovery_output_is_byte_identical_to_cold_run(self, tmp_path):
        """The in-process chaos pin: admit, 'crash' before evaluation,
        recover on a fresh server, and require the recovered stream to be
        byte-identical to a server that never crashed."""
        cold = QbssServer(small_config(tmp_path / "cold"))
        code, cold_text = cold.serve_once(job_lines(30))
        cold.drain()
        assert code == 0

        crashed = QbssServer(journal_config(tmp_path))
        crashed.submit_payload(job_lines(30), "ci")  # journaled, never run
        crashed.journal.close()  # what the crash does to its file handle

        survivor = QbssServer(journal_config(tmp_path))
        report = survivor.recover()
        assert report.jobs == 30
        code, warm_text = survivor.serve_once(job_lines(30))
        survivor.drain()
        assert code == 0
        assert warm_text == cold_text

    def test_healthz_surfaces_journal_path(self, tmp_path):
        server = QbssServer(journal_config(tmp_path))
        assert server.health()["journal"] == str(journal_path(tmp_path))
        bare = QbssServer(small_config(tmp_path / "bare"))
        assert bare.health()["journal"] is None


# -- the chaos pin: kill -9 a live daemon, restart, diff ----------------------------


def _wait_for_port_file(path, proc, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon died during startup ({proc.returncode})")
        if path.exists() and path.read_text().strip():
            host, _, port = path.read_text().strip().rpartition(":")
            return host, int(port)
        time.sleep(0.05)
    raise RuntimeError("daemon did not write its port file in time")


class TestChaosPin:
    N_JOBS = 30
    WINDOW = 20.0  # releases 0..58 -> shards 0..2

    def _daemon(self, tmp_path, name, env_extra=None):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        env.pop(FAULT_PLAN_ENV, None)
        env.update(env_extra or {})
        port_file = tmp_path / f"{name}.port"
        # The daemon writes through its own copy of the descriptor.
        with open(tmp_path / f"{name}.log", "w") as log:
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.serve.cli",
                    "--bind", "127.0.0.1:0",
                    "--port-file", str(port_file),
                    "--shard-window", str(self.WINDOW),
                    "--seed", "3",
                    "--jobs", "1",
                    "--cache-dir", str(tmp_path / "cache"),
                    "--journal", str(tmp_path / "journal"),
                ],
                env=env,
                cwd=REPO_ROOT,
                stderr=log,
            )
        return proc, port_file

    def _jobs(self):
        return [
            {
                "id": f"c{i}",
                "release": i * 2.0,
                "deadline": i * 2.0 + 30.0,
                "runtime": 1.0 + (i % 5) * 0.5,
            }
            for i in range(self.N_JOBS)
        ]

    def test_sigkill_mid_batch_recovers_byte_identical(self, tmp_path):
        plan = FaultPlan((FaultSpec(task="shard:1", kind="kill", attempt=0),))
        proc, port_file = self._daemon(
            tmp_path, "victim", {FAULT_PLAN_ENV: plan.to_json()}
        )
        try:
            host, port = _wait_for_port_file(port_file, proc)
            with pytest.raises((ServeClientError, OSError)):
                Client(host, port, client_id="chaos").submit(self._jobs())
            assert proc.wait(timeout=60.0) == -signal.SIGKILL
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert (tmp_path / "journal" / JOURNAL_FILENAME).exists()

        proc, port_file = self._daemon(tmp_path, "survivor")
        try:
            host, port = _wait_for_port_file(port_file, proc)
            client = Client(host, port, client_id="chaos")
            deadline = time.monotonic() + 60.0
            completed = 0.0
            while time.monotonic() < deadline:
                try:
                    samples = client.metrics()
                except (ServeClientError, OSError):
                    samples = {}
                completed = samples.get(
                    ("qbss_serve_jobs_completed_total", ()), 0.0
                )
                if completed >= self.N_JOBS:
                    break
                time.sleep(0.2)
            assert completed >= self.N_JOBS, "recovered batch never completed"
            assert (
                samples[("qbss_serve_recovered_jobs_total", ())] == self.N_JOBS
            )
            warm = client.submit(self._jobs())
            assert warm.ok
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                proc.wait(timeout=60.0)

        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        env.pop(FAULT_PLAN_ENV, None)
        payload = "".join(
            json.dumps(j, sort_keys=True) + "\n" for j in self._jobs()
        )
        cold = subprocess.run(
            [
                sys.executable, "-m", "repro.serve.cli",
                "--stdin",
                "--shard-window", str(self.WINDOW),
                "--seed", "3",
                "--jobs", "1",
                "--no-cache",
            ],
            env=env,
            cwd=REPO_ROOT,
            input=payload,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert cold.returncode == 0, cold.stderr
        cold_shards = [
            json.loads(line)["shard"]
            for line in cold.stdout.splitlines()
            if line.strip() and json.loads(line)["kind"] == "shard_result"
        ]
        assert json.dumps(warm.shards, sort_keys=True) == json.dumps(
            cold_shards, sort_keys=True
        ), "recovered output diverged from the uninterrupted cold run"
