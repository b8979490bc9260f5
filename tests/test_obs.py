"""repro.obs: span tracing, metrics export, run manifests, the CLI flags,
and the trace-vs-footer cross-check under fault injection."""

import io
import json
import pathlib
import warnings

import pytest

from repro import io as rio
from repro.cli import main, replay_main
from repro.engine import (
    ExecutionSession,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    run_experiments,
)
from repro.obs import (
    EVENT_BEGIN,
    EVENT_END,
    EVENT_POINT,
    MetricsRegistry,
    RunManifest,
    Tracer,
    parse_prometheus_text,
    read_trace,
    span_tree,
    write_metrics,
)
from repro.traces.replay import replay_jobs
from repro.traces.synthesize import synthesize_jobs
from repro.traces.records import TraceRecord

DATA = pathlib.Path(__file__).parent / "data"
SAMPLE_CSV = str(DATA / "sample_trace.csv")

#: Quick retries so fault tests don't sleep through real backoff.
QUICK = RetryPolicy(max_attempts=3, backoff_base=0.001, backoff_cap=0.01)


def run_quiet(names, **session_fields):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_experiments(
            names, session=ExecutionSession(retry=QUICK, **session_fields)
        )


def _stream(n=8):
    records = (
        TraceRecord(
            index=i,
            id=f"t{i}",
            release=i * 40.0,
            runtime=5.0 + i % 3,
            deadline=i * 40.0 + 80.0,
        )
        for i in range(n)
    )
    return synthesize_jobs(records, model="multiplicative", seed=0)


# -- Tracer -------------------------------------------------------------------------


class TestTracer:
    def test_span_nesting_reconstructs(self):
        buf = io.StringIO()
        t = Tracer(buf)
        batch = t.begin("batch", experiments=2)
        task = t.begin("task", batch, task="rho")
        attempt = t.begin("attempt", task, attempt=0)
        t.event("retry", task, kind="crash")
        t.end(attempt, status="ok")
        t.end(task, status="ok")
        t.end(batch)
        events = read_trace(buf.getvalue())
        assert [e["ev"] for e in events] == ["B", "B", "B", "P", "E", "E", "E"]
        tree = span_tree(events)
        assert [e["name"] for e in tree[None]] == ["batch"]
        batch_id = tree[None][0]["span"]
        assert [e["name"] for e in tree[batch_id]] == ["task"]
        task_id = tree[batch_id][0]["span"]
        assert [e["name"] for e in tree[task_id]] == ["attempt"]
        point = [e for e in events if e["ev"] == EVENT_POINT]
        assert point[0]["parent"] == task_id and point[0]["kind"] == "crash"
        ends = [e for e in events if e["ev"] == EVENT_END]
        assert all("dur" in e and e["dur"] >= 0 for e in ends)

    def test_counts_tally_event_names(self):
        t = Tracer(io.StringIO())
        sp = t.begin("batch")
        t.event("retry", sp)
        t.event("retry", sp)
        t.end(sp)
        assert t.counts == {"batch": 1, "retry": 2}

    def test_reserved_attribute_keys_rejected(self):
        t = Tracer(io.StringIO())
        with pytest.raises(ValueError, match="reserved"):
            t.begin("batch", span=3)
        sp = t.begin("batch")
        with pytest.raises(ValueError, match="reserved"):
            t.event("retry", sp, dur=1.0)

    def test_span_context_manager_closes_on_error(self):
        buf = io.StringIO()
        t = Tracer(buf)
        with pytest.raises(RuntimeError):
            with t.span("batch"):
                raise RuntimeError("boom")
        events = read_trace(buf.getvalue())
        assert [e["ev"] for e in events] == [EVENT_BEGIN, EVENT_END]

    def test_close_is_idempotent(self, tmp_path):
        t = Tracer.to_path(tmp_path / "t.jsonl")
        t.event("retry")
        t.close()
        t.close()  # second close must not raise on the closed sink
        assert len(read_trace(tmp_path / "t.jsonl")) == 1

    def test_serial_engine_trace_is_byte_deterministic(self, tmp_path):
        """jobs=1 with an injected clock -> the exact same trace bytes."""
        texts = []
        for run in range(2):
            buf = io.StringIO()
            tracer = Tracer(buf, clock=lambda: 0.0)
            run_experiments(
                ["rho", "lemma42"],
                session=ExecutionSession(
                    jobs=1, cache_dir=tmp_path / f"cache{run}", tracer=tracer
                ),
            )
            texts.append(buf.getvalue())
        assert texts[0] == texts[1]
        names = [e["name"] for e in read_trace(texts[0]) if e["ev"] == "B"]
        assert names == [
            "batch",
            "cache-lookup",
            "cache-lookup",
            "task",
            "attempt",
            "task",
            "attempt",
        ]


# -- MetricsRegistry ----------------------------------------------------------------


class TestMetrics:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("qbss_cache_lookups_total", "Lookups.", result="hit").inc(3)
        reg.counter("qbss_cache_lookups_total", result="miss").inc()
        reg.gauge("qbss_degraded", "Degraded flag.").set(1.0)
        h = reg.histogram("qbss_task_wall_seconds", "Wall.", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(100.0)
        return reg

    def test_json_round_trip(self):
        reg = self._populated()
        clone = MetricsRegistry.from_dict(json.loads(reg.to_json()))
        assert clone.to_prometheus() == reg.to_prometheus()
        assert clone.value("qbss_cache_lookups_total", result="hit") == 3.0

    def test_prometheus_round_trip(self):
        samples = parse_prometheus_text(self._populated().to_prometheus())
        assert samples[("qbss_cache_lookups_total", (("result", "hit"),))] == 3.0
        assert samples[("qbss_degraded", ())] == 1.0
        # cumulative bucket semantics, +Inf capping everything
        assert samples[("qbss_task_wall_seconds_bucket", (("le", "0.1"),))] == 1.0
        assert samples[("qbss_task_wall_seconds_bucket", (("le", "1"),))] == 2.0
        assert samples[("qbss_task_wall_seconds_bucket", (("le", "+Inf"),))] == 3.0
        assert samples[("qbss_task_wall_seconds_count", ())] == 3.0
        assert samples[("qbss_task_wall_seconds_sum", ())] == pytest.approx(100.55)

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("qbss_retries_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("qbss_retries_total")

    def test_counters_only_go_up(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("qbss_retries_total").inc(-1)

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("ok_name", **{"bad-label": "x"})

    def test_write_metrics_format_follows_extension(self, tmp_path):
        reg = self._populated()
        assert write_metrics(reg, tmp_path / "m.prom") == "prometheus"
        assert write_metrics(reg, tmp_path / "m.json") == "json"
        assert parse_prometheus_text((tmp_path / "m.prom").read_text())
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["kind"] == "metrics_snapshot"


# -- RunManifest --------------------------------------------------------------------


class TestManifest:
    def test_round_trips_through_repro_io(self, tmp_path):
        plan = FaultPlan((FaultSpec(task="rho", kind="crash", attempt=1),))
        manifest = RunManifest.create(
            "qbss-report",
            {"experiment": "rho", "jobs": "2"},
            seed=7,
            cache_dir=tmp_path / "cache",
            fault_plan=plan,
            now=1234.5,
        )
        path = tmp_path / "run.manifest.json"
        rio.save(manifest, path)
        loaded = rio.load(path)
        assert loaded == manifest
        assert loaded.tool == "qbss-report"
        assert loaded.seed == 7
        assert loaded.created_at == 1234.5
        assert loaded.fault_plan["faults"][0]["task"] == "rho"
        assert loaded.python_version and loaded.package_version

    def test_bad_documents_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RunManifest.from_dict({"kind": "nope"})
        with pytest.raises(ValueError):
            RunManifest.from_dict(
                {"kind": "run_manifest", "version": 99, "tool": "x"}
            )
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "run_manifest", "version": 99}))
        with pytest.raises(rio.FormatError):
            rio.load(bad)


# -- engine + replay integration ----------------------------------------------------


class TestEngineObservability:
    def test_cache_lookup_spans_and_live_cache_series(self, tmp_path):
        reg = MetricsRegistry()
        buf = io.StringIO()
        run_experiments(
            ["rho"],
            session=ExecutionSession(
                jobs=1, cache_dir=tmp_path, tracer=Tracer(buf), metrics=reg
            ),
        )
        assert reg.value("qbss_cache_lookups_total", result="miss") == 1.0
        assert reg.value("qbss_cache_writes_total") == 1.0
        assert reg.value("qbss_experiments_total", status="ok") == 1.0
        lookups = [
            e
            for e in read_trace(buf.getvalue())
            if e["name"] == "cache-lookup" and e["ev"] == EVENT_END
        ]
        assert [e["result"] for e in lookups] == ["miss"]

        reg2 = MetricsRegistry()
        buf2 = io.StringIO()
        run_experiments(
            ["rho"],
            session=ExecutionSession(
                jobs=1, cache_dir=tmp_path, tracer=Tracer(buf2), metrics=reg2
            ),
        )
        assert reg2.value("qbss_cache_lookups_total", result="hit") == 1.0
        lookups = [
            e
            for e in read_trace(buf2.getvalue())
            if e["name"] == "cache-lookup" and e["ev"] == EVENT_END
        ]
        assert [e["result"] for e in lookups] == ["hit"]

    def test_trace_event_counts_match_engine_counters(self, tmp_path):
        """The acceptance cross-check: every retry/timeout/pool-rebuild/
        quarantine the footer reports appears as exactly one trace event."""
        plan = FaultPlan(
            (
                FaultSpec(task="lemma42", kind="raise", attempt=1, transient=True),
                FaultSpec(task="lemma43", kind="hang", attempt=0, seconds=30.0),
                FaultSpec(task="lemma41", kind="corrupt-cache"),
            )
        )
        tracer = Tracer(io.StringIO())
        res = run_quiet(
            ["lemma41", "lemma42", "lemma43", "rho"],
            jobs=2,
            cache_dir=tmp_path,
            task_timeout=3.0,
            fault_plan=plan,
            tracer=tracer,
        )
        assert res.timeouts == 1 and res.retries >= 1
        assert tracer.counts.get("retry", 0) == res.retries
        assert tracer.counts.get("timeout", 0) == res.timeouts
        assert tracer.counts.get("pool_rebuild", 0) == res.pool_rebuilds
        assert tracer.counts.get("cache_quarantine", 0) == res.quarantined == 0

        # lemma41's cache entry was corrupted post-write: the warm rerun
        # quarantines it, and the trace says so the same number of times.
        tracer2 = Tracer(io.StringIO())
        res2 = run_quiet(
            ["lemma41", "rho"], jobs=1, cache_dir=tmp_path, tracer=tracer2
        )
        assert res2.quarantined == 1
        assert tracer2.counts.get("cache_quarantine", 0) == 1
        assert tracer2.counts.get("retry", 0) == res2.retries

    def test_task_span_statuses(self, tmp_path):
        plan = FaultPlan((FaultSpec(task="lemma42", kind="raise", attempt=0),))
        buf = io.StringIO()
        run_quiet(
            ["lemma42", "rho"],
            jobs=1,
            cache=False,
            fault_plan=plan,
            tracer=Tracer(buf),
        )
        events = read_trace(buf.getvalue())
        task_by_span = {
            e["span"]: e["task"]
            for e in events
            if e["name"] == "task" and e["ev"] == EVENT_BEGIN
        }
        ends = {
            task_by_span[e["span"]]: e["status"]
            for e in events
            if e["name"] == "task" and e["ev"] == EVENT_END
        }
        assert ends == {"lemma42": "error", "rho": "ok"}


class TestReplayObservability:
    def test_replay_spans_and_published_series(self, tmp_path):
        reg = MetricsRegistry()
        buf = io.StringIO()
        report, metrics = replay_jobs(
            _stream(),
            algorithms=("avrq",),
            shard_window=100.0,
            session=ExecutionSession(
                jobs=1, cache_dir=tmp_path, tracer=Tracer(buf), metrics=reg
            ),
        )
        events = read_trace(buf.getvalue())
        roots = span_tree(events)[None]
        assert [e["name"] for e in roots] == ["batch"]
        assert roots[0]["kind"] == "replay"
        assert reg.value("qbss_replay_shards_total", status="ok") == len(
            report.shards
        )
        assert reg.value("qbss_replay_trace_jobs_total") == metrics.jobs
        assert reg.value("qbss_cache_lookups_total", result="miss") == len(
            report.shards
        )

        reg2 = MetricsRegistry()
        replay_jobs(
            _stream(),
            algorithms=("avrq",),
            shard_window=100.0,
            session=ExecutionSession(jobs=1, cache_dir=tmp_path, metrics=reg2),
        )
        assert reg2.value("qbss_cache_lookups_total", result="hit") == len(
            report.shards
        )


# -- CLI flags ----------------------------------------------------------------------


class TestCLIObservability:
    def test_report_cli_writes_all_three_outputs(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.jsonl"
        mets = tmp_path / "run.metrics.json"
        manifest = tmp_path / "run.manifest.json"
        rc = main(
            [
                "rho",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--trace-out",
                str(trace),
                "--metrics-out",
                str(mets),
                "--manifest-out",
                str(manifest),
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        for path in (trace, mets, manifest):
            assert path.exists()
            assert f"written to {path}" in err
        events = read_trace(trace)
        assert {"batch", "task", "attempt"} <= {e["name"] for e in events}
        reg = MetricsRegistry.from_dict(json.loads(mets.read_text()))
        assert reg.value("qbss_experiments_total", status="ok") == 1.0
        doc = rio.load(manifest)
        assert doc.tool == "qbss-report"
        assert doc.args["experiment"] == "rho"
        assert doc.cache_dir == str(tmp_path / "cache")
        assert doc.created_at is not None

    def test_report_stdout_byte_identical_with_tracing(self, tmp_path, capsys):
        rc = main(["rho", "--no-cache"])
        assert rc == 0
        plain = capsys.readouterr().out
        rc = main(
            ["rho", "--no-cache", "--trace-out", str(tmp_path / "t.jsonl")]
        )
        assert rc == 0
        traced = capsys.readouterr().out
        assert traced == plain

    def test_replay_cli_writes_all_three_outputs(self, tmp_path, capsys):
        trace = tmp_path / "replay.trace.jsonl"
        mets = tmp_path / "replay.metrics.prom"
        manifest = tmp_path / "replay.manifest.json"
        rc = replay_main(
            [
                SAMPLE_CSV,
                "--shard-window",
                "100",
                "--jobs",
                "1",
                "--seed",
                "3",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--trace-out",
                str(trace),
                "--metrics-out",
                str(mets),
                "--manifest-out",
                str(manifest),
            ]
        )
        assert rc == 0
        samples = parse_prometheus_text(mets.read_text())
        shard_total = sum(
            v
            for (name, _), v in samples.items()
            if name == "qbss_replay_shards_total"
        )
        assert shard_total >= 1
        events = read_trace(trace)
        assert span_tree(events)[None][0]["kind"] == "replay"
        doc = rio.load(manifest)
        assert doc.tool == "qbss-replay" and doc.seed == 3

    def test_replay_stdout_byte_identical_with_tracing(self, tmp_path, capsys):
        base = [SAMPLE_CSV, "--shard-window", "100", "--jobs", "1", "--no-cache"]
        assert replay_main(base) == 0
        plain = capsys.readouterr().out
        assert (
            replay_main(base + ["--trace-out", str(tmp_path / "t.jsonl")]) == 0
        )
        assert capsys.readouterr().out == plain
