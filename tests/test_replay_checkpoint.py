"""Checkpointed replay: ``--checkpoint``/``--resume`` and crash-resume.

The unit layer pins the :class:`ReplayCheckpoint` file format (tolerant
torn-tail loading, fsync-per-record appends); the integration layer pins
that ``replay_jobs`` skips exactly the checkpointed shards and that a
replay SIGKILLed mid-run resumes to a byte-identical report.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import io as rio
from repro.cli import replay_main
from repro.engine import ExecutionSession
from repro.engine.faults import FAULT_PLAN_ENV, FaultPlan, FaultSpec
from repro.traces.checkpoint import CHECKPOINT_KIND, ReplayCheckpoint
from repro.traces.records import TraceRecord
from repro.traces.replay import replay_jobs
from repro.traces.synthesize import synthesize_jobs

DATA = Path(__file__).parent / "data"
SAMPLE_CSV = str(DATA / "sample_trace.csv")
REPO_ROOT = Path(__file__).resolve().parent.parent


def job_stream(n=12):
    records = (
        TraceRecord(
            index=i,
            id=f"t{i}",
            release=i * 2.0,
            runtime=1.0 + i % 3,
            deadline=i * 2.0 + 8.0,
        )
        for i in range(n)
    )
    return synthesize_jobs(records, seed=0)


def run_replay(checkpoint=None, *, cache=False, cache_dir=None):
    # releases 0..22, window 8 -> shards 0..2
    return replay_jobs(
        job_stream(),
        algorithms=("avrq",),
        shard_window=8.0,
        session=ExecutionSession(jobs=1, cache=cache, cache_dir=cache_dir),
        checkpoint=checkpoint,
    )


class TestReplayCheckpoint:
    def test_record_and_resume_round_trip(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with ReplayCheckpoint(path) as ck:
            ck.record("k1", {"rows": [1]})
            ck.record("k2", {"rows": [2]})
            assert ck.completed == 2
        with ReplayCheckpoint(path, resume=True) as ck:
            assert ck.completed == 2
            assert ck.get("k1") == {"rows": [1]}
            assert ck.get("missing") is None
        doc = json.loads(path.read_text().splitlines()[0])
        assert doc["kind"] == CHECKPOINT_KIND and doc["version"] == 1

    def test_fresh_open_truncates(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with ReplayCheckpoint(path) as ck:
            ck.record("k1", {"rows": []})
        with ReplayCheckpoint(path) as ck:  # resume=False starts over
            assert ck.completed == 0
        assert path.read_text() == ""

    def test_torn_tail_dropped_and_counted(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with ReplayCheckpoint(path) as ck:
            ck.record("k1", {"rows": [1]})
            ck.record("k2", {"rows": [2]}, torn=True)  # crash mid-append
        with ReplayCheckpoint(path, resume=True) as ck:
            assert ck.torn == 1
            assert ck.completed == 1
            assert ck.get("k2") is None  # that shard simply re-runs

    def test_foreign_records_are_tolerated(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text('{"kind": "something_else", "version": 9}\n')
        with ReplayCheckpoint(path, resume=True) as ck:
            assert ck.completed == 0 and ck.torn == 1

    def test_appends_are_fsynced(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        with ReplayCheckpoint(tmp_path / "ck.jsonl") as ck:
            ck.record("k1", {"rows": []})
        assert len(synced) == 1

    def test_record_after_close_raises(self, tmp_path):
        ck = ReplayCheckpoint(tmp_path / "ck.jsonl")
        ck.close()
        with pytest.raises(ValueError):
            ck.record("k1", {})

    def test_get_returns_copies(self, tmp_path):
        with ReplayCheckpoint(tmp_path / "ck.jsonl") as ck:
            ck.record("k1", {"rows": [1]})
            ck.get("k1")["rows"].append(99)
            assert ck.get("k1") == {"rows": [1]}


# -- fail closed: no checkpoint bytes crash a resume --------------------------------

#: A well-formed line whose payload is not an object.
LIST_PAYLOAD_ENTRY = (
    b'{"kind":"replay_checkpoint_entry","version":1,"key":"k","payload":[1,2]}'
)

checkpoint_entries = st.tuples(
    st.text(min_size=1, max_size=12),
    st.dictionaries(
        st.text(max_size=5),
        st.one_of(
            st.integers(),
            st.text(max_size=5),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        max_size=3,
    ),
)


def entry_line(key, payload) -> bytes:
    return json.dumps(
        {
            "kind": CHECKPOINT_KIND,
            "version": 1,
            "key": key,
            "payload": payload,
        },
        sort_keys=True,
    ).encode()


#: One line of anything but a newline: random bytes or a cut entry.
junk_lines = st.one_of(
    st.binary(max_size=48),
    st.tuples(checkpoint_entries, st.integers(0, 120)).map(
        lambda pair: entry_line(*pair[0])[: pair[1]][:-1]
    ),
).map(lambda line: line.replace(b"\n", b""))


def non_blank_lines(data: bytes) -> int:
    return sum(1 for line in data.split(b"\n") if line.strip())


class TestCheckpointFailsClosed:
    """A checkpoint of any bytes resumes without raising: each non-blank
    line is an entry or a torn line, and no valid entry is lost."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.binary(max_size=400))
    @example(data=LIST_PAYLOAD_ENTRY + b"\n")
    @example(data=b"\xff\n")
    @example(data=LIST_PAYLOAD_ENTRY.replace(b'"k"', b"7") + b"\n")
    def test_arbitrary_bytes_resume_as_entries_or_torn(self, tmp_path, data):
        path = tmp_path / "ck.jsonl"
        path.write_bytes(data)
        with ReplayCheckpoint(path, resume=True) as ck:
            assert ck.completed + ck.torn == non_blank_lines(data)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        lines=st.lists(
            st.one_of(checkpoint_entries, junk_lines),
            max_size=8,
            unique_by=lambda line: line[0] if isinstance(line, tuple) else line,
        ),
        tail=junk_lines,
    )
    def test_valid_entries_survive_interleaved_junk(self, tmp_path, lines, tail):
        data = b"".join(
            (entry_line(*line) if isinstance(line, tuple) else line) + b"\n"
            for line in lines
        ) + tail
        path = tmp_path / "ck.jsonl"
        path.write_bytes(data)
        entries = [line for line in lines if isinstance(line, tuple)]
        with ReplayCheckpoint(path, resume=True) as ck:
            assert ck.completed + ck.torn == non_blank_lines(data)
            for key, payload in entries:
                assert ck.get(key) == payload
            ck.record("appended after resume", {"ok": True})
        # an entry appended after a torn tail survives the next resume
        with ReplayCheckpoint(path, resume=True) as again:
            assert again.get("appended after resume") == {"ok": True}
            for key, payload in entries:
                assert again.get(key) == payload

    def test_malformed_lines_resume_through_the_cli(self, tmp_path, capsys):
        """The reproducers: a list payload (a TypeError) and a non-UTF-8
        byte (a UnicodeDecodeError) used to abort ``--resume``."""
        argv = [SAMPLE_CSV, "--shard-window", "100", "--no-cache", "--jobs", "1"]
        assert replay_main(argv) == 0
        clean = capsys.readouterr().out
        ck = tmp_path / "ck.jsonl"
        ck.write_bytes(LIST_PAYLOAD_ENTRY + b"\n\xff\xfe\n")
        assert replay_main([*argv, "--checkpoint", str(ck), "--resume"]) == 0
        resumed = capsys.readouterr()
        assert resumed.out == clean
        assert "0 shards already completed (2 torn entries dropped)" in resumed.err


class TestReplayJobsCheckpoint:
    def test_first_run_checkpoints_every_shard(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with ReplayCheckpoint(path) as ck:
            report, metrics = run_replay(checkpoint=ck)
            assert metrics.resumed == 0
            assert ck.completed == metrics.shards == 3
        assert report.n_jobs == 12

    def test_resume_skips_every_completed_shard(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with ReplayCheckpoint(path) as ck:
            cold, _ = run_replay(checkpoint=ck)
        with ReplayCheckpoint(path, resume=True) as ck:
            warm, metrics = run_replay(checkpoint=ck)
        assert metrics.resumed == 3
        # the resumed report is byte-identical: payloads came from the
        # checkpoint, not from re-evaluation (cache=False throughout)
        assert json.dumps(warm.to_dict(), sort_keys=True) == json.dumps(
            cold.to_dict(), sort_keys=True
        )

    def test_partial_checkpoint_resumes_exactly_the_missing_shards(
        self, tmp_path
    ):
        path = tmp_path / "ck.jsonl"
        with ReplayCheckpoint(path) as ck:
            cold, _ = run_replay(checkpoint=ck)
        # keep only the first completed shard, as a crash would have
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0])
        with ReplayCheckpoint(path, resume=True) as ck:
            assert ck.completed == 1
            warm, metrics = run_replay(checkpoint=ck)
            assert metrics.resumed == 1
            assert metrics.shards == 3
            # the two re-run shards were checkpointed again
            assert ck.completed == 3
        assert json.dumps(warm.to_dict(), sort_keys=True) == json.dumps(
            cold.to_dict(), sort_keys=True
        )

    def test_cache_hits_backfill_the_checkpoint(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_replay(cache=True, cache_dir=cache_dir)  # warm the cache only
        with ReplayCheckpoint(tmp_path / "ck.jsonl") as ck:
            _, metrics = run_replay(cache=True, cache_dir=cache_dir, checkpoint=ck)
            assert metrics.hits == 3
            assert ck.completed == 3  # hits recorded, resumable without cache
        with ReplayCheckpoint(tmp_path / "ck.jsonl", resume=True) as ck:
            _, metrics = run_replay(checkpoint=ck)  # cache off
            assert metrics.resumed == 3


class TestReplayCliCheckpoint:
    def _argv(self, tmp_path, *extra):
        return [
            SAMPLE_CSV,
            "--shard-window", "100",
            "--no-cache",
            "--jobs", "1",
            *extra,
        ]

    def test_resume_requires_checkpoint(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            replay_main(self._argv(tmp_path, "--resume"))
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_checkpoint_then_resume_is_byte_identical(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.jsonl")
        assert replay_main(self._argv(tmp_path, "--checkpoint", ck)) == 0
        cold = capsys.readouterr()
        assert "resuming from" not in cold.err
        assert replay_main(
            self._argv(tmp_path, "--checkpoint", ck, "--resume")
        ) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert f"resuming from {ck}" in warm.err
        assert "resumed: 5 shards from checkpoint" in warm.err

    def test_manifest_records_recovery(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.jsonl")
        manifest_path = tmp_path / "manifest.json"
        assert replay_main(
            self._argv(
                tmp_path, "--checkpoint", ck,
                "--manifest-out", str(manifest_path),
            )
        ) == 0
        manifest = rio.load(manifest_path)
        assert manifest.recovery == {"checkpoint": ck, "resumed_shards": 0}
        assert replay_main(
            self._argv(
                tmp_path, "--checkpoint", ck, "--resume",
                "--manifest-out", str(manifest_path),
            )
        ) == 0
        capsys.readouterr()
        manifest = rio.load(manifest_path)
        assert manifest.recovery == {"checkpoint": ck, "resumed_shards": 5}

    def test_manifest_without_checkpoint_has_no_recovery(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        assert replay_main(
            self._argv(tmp_path, "--manifest-out", str(manifest_path))
        ) == 0
        capsys.readouterr()
        assert rio.load(manifest_path).recovery is None


class TestCrashResume:
    """kill -9 a checkpointing replay mid-run; resume must complete it."""

    def _run(self, tmp_path, *extra, fault_plan=None):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        env.pop(FAULT_PLAN_ENV, None)
        if fault_plan is not None:
            env[FAULT_PLAN_ENV] = fault_plan.to_json()
        return subprocess.run(
            [
                sys.executable, "-c",
                "import sys; from repro.cli import replay_main; "
                "sys.exit(replay_main(sys.argv[1:]))",
                SAMPLE_CSV,
                "--shard-window", "100",
                "--no-cache",
                "--jobs", "1",
                *extra,
            ],
            env=env,
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_sigkilled_replay_resumes_byte_identical(self, tmp_path):
        clean = self._run(tmp_path)
        assert clean.returncode == 0, clean.stderr

        ck = str(tmp_path / "ck.jsonl")
        plan = FaultPlan((FaultSpec(task="shard:1", kind="kill", attempt=0),))
        killed = self._run(
            tmp_path, "--checkpoint", ck, fault_plan=plan
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        # shard 0 completed and was durably checkpointed before the kill
        with ReplayCheckpoint(ck, resume=True) as loaded:
            assert loaded.completed == 1

        resumed = self._run(tmp_path, "--checkpoint", ck, "--resume")
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming from" in resumed.stderr
        assert "resumed: 1 shards from checkpoint" in resumed.stderr
        assert resumed.stdout == clean.stdout
