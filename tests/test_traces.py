"""The trace subsystem: parsers, synthesis, sharding and streaming replay.

Covers the contracts ``docs/traces.md`` promises: strict per-line error
reporting, lazy iteration (bounded memory), deterministic synthesis, and
the replay determinism guarantee — serial, parallel and cached runs
serialize byte-identically.
"""

import itertools
import json
import math
import pathlib

import pytest

from repro import io as rio
from repro.core.constants import PHI
from repro.core.qjob import QJob
from repro.engine import ExecutionSession
from repro.traces import (
    NOISE_MODELS,
    ParseStats,
    ReplayReport,
    TraceOrderError,
    TraceParseError,
    TraceRecord,
    detect_format,
    get_noise_model,
    iter_shards,
    parse_csv,
    parse_jsonl,
    parse_swf,
    replay_jobs,
    replay_trace,
    synthesize_job,
    synthesize_jobs,
    validate_replay_algorithms,
)

DATA = pathlib.Path(__file__).parent / "data"
SAMPLE_SWF = DATA / "sample.swf"
SAMPLE_CSV = DATA / "sample_trace.csv"
SAMPLE_JSONL = DATA / "sample_trace.jsonl"


# -- SWF parser ---------------------------------------------------------------------


def test_swf_sample_parses_with_skip_tallies():
    stats = ParseStats()
    records = list(parse_swf(SAMPLE_SWF, stats))
    assert len(records) == 10
    assert stats.emitted == 10
    assert stats.skipped == 2
    assert stats.skip_reasons == {
        "non-positive runtime": 1,
        "negative submit time": 1,
    }
    first = records[0]
    assert first.id == "swf-1"
    assert first.release == 0.0
    assert first.runtime == 30.5
    assert first.requested == 60.0
    assert first.deadline is None  # SWF has no deadlines
    # indices are contiguous over *emitted* records despite the skips
    assert [r.index for r in records] == list(range(10))


def test_swf_requested_minus_one_becomes_none():
    records = list(parse_swf(SAMPLE_SWF))
    by_id = {r.id: r for r in records}
    assert by_id["swf-6"].requested is None


def test_swf_is_lazy():
    stats = ParseStats()
    taken = list(itertools.islice(parse_swf(SAMPLE_SWF, stats), 3))
    assert len(taken) == 3
    # only what was pulled got parsed — the generator did not run ahead
    # (the tally for the last pulled record lands on the *next* pull)
    assert stats.emitted <= 3


def test_swf_short_line_is_located(tmp_path):
    bad = tmp_path / "short.swf"
    bad.write_text("; header\n1 0 -1 5 1 -1\n")
    with pytest.raises(TraceParseError) as err:
        list(parse_swf(bad))
    assert err.value.source == str(bad)
    assert err.value.line == 2
    assert "6 fields" in str(err.value)
    assert str(bad) + ":2:" in str(err.value)


def test_swf_non_numeric_field_is_located(tmp_path):
    bad = tmp_path / "nan.swf"
    line = "1 zero -1 5 1 -1 -1 1 10 -1 1 -1 -1 -1 1 -1 -1 -1\n"
    bad.write_text(line)
    with pytest.raises(TraceParseError, match="non-numeric"):
        list(parse_swf(bad))


# -- tabular parsers ----------------------------------------------------------------


@pytest.mark.parametrize(
    "parser,path",
    [(parse_csv, SAMPLE_CSV), (parse_jsonl, SAMPLE_JSONL)],
    ids=["csv", "jsonl"],
)
def test_tabular_sample_parses(parser, path):
    records = list(parser(path))
    assert len(records) == 10
    first = records[0]
    assert first.release == 0.0
    assert first.deadline == 90.0
    assert first.runtime == 30.5
    assert first.query_cost == 5.0
    assert first.id == "t0"  # generated when no id column


def test_csv_and_jsonl_samples_agree():
    csv_records = list(parse_csv(SAMPLE_CSV))
    jsonl_records = list(parse_jsonl(SAMPLE_JSONL))
    assert csv_records == jsonl_records


def test_csv_missing_column_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("release,runtime\n0,1\n")
    with pytest.raises(TraceParseError, match="missing required columns"):
        list(parse_csv(bad))


def test_csv_unknown_column_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("release,deadline,runtime,color\n0,2,1,red\n")
    with pytest.raises(TraceParseError, match="unknown columns"):
        list(parse_csv(bad))


def test_csv_empty_file_rejected(tmp_path):
    bad = tmp_path / "empty.csv"
    bad.write_text("")
    with pytest.raises(TraceParseError, match="empty CSV trace"):
        list(parse_csv(bad))


@pytest.mark.parametrize(
    "row,reason",
    [
        ("-1,2,1,1", "release must be >= 0"),
        ("0,2,0,1", "runtime must be > 0"),
        ("5,5,1,1", "deadline"),
        ("0,2,nope,1", "not a number"),
        ("0,inf,1,1", "finite"),
        ("0,2,1,0", "query_cost must be > 0"),
        ("0,2,1", "expected 4 cells, got 3"),
    ],
)
def test_csv_invalid_values_located_at_line_2(tmp_path, row, reason):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"release,deadline,runtime,query_cost\n{row}\n")
    with pytest.raises(TraceParseError, match=reason) as err:
        list(parse_csv(bad))
    assert err.value.line == 2


def test_jsonl_invalid_json_located(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"release": 0, "deadline": 2, "runtime": 1}\n{not json}\n'
    )
    with pytest.raises(TraceParseError, match="invalid JSON") as err:
        list(parse_jsonl(bad))
    assert err.value.line == 2


def test_jsonl_non_object_rejected(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("[1, 2, 3]\n")
    with pytest.raises(TraceParseError, match="expected a JSON object"):
        list(parse_jsonl(bad))


def test_jsonl_unknown_key_rejected(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"release": 0, "deadline": 2, "runtime": 1, "x": 9}\n')
    with pytest.raises(TraceParseError, match="unknown keys"):
        list(parse_jsonl(bad))


# -- uncertainty synthesis ----------------------------------------------------------


def test_noise_model_registry():
    assert set(NOISE_MODELS) == {"multiplicative", "lognormal", "adversarial"}
    assert get_noise_model("lognormal").name == "lognormal"
    with pytest.raises(KeyError, match="registered"):
        get_noise_model("gaussian")


def _record(index=0, runtime=10.0, **kw):
    defaults = dict(id=f"t{index}", release=float(index), runtime=runtime)
    defaults.update(kw)
    return TraceRecord(index=index, **defaults)


@pytest.mark.parametrize("name", sorted(NOISE_MODELS))
def test_synthesized_job_invariants(name):
    model = get_noise_model(name)
    for i in range(50):
        job = synthesize_job(_record(index=i, runtime=1.0 + i * 0.7), model)
        assert isinstance(job, QJob)
        assert 0.0 < job.query_cost <= job.work_upper
        assert job.work_true <= job.work_upper
        assert job.release < job.deadline
        assert job.work_true == 1.0 + i * 0.7  # w* is the observed runtime


def test_synthesis_is_seed_deterministic():
    model = get_noise_model("multiplicative")
    rec = _record(index=7)
    a = synthesize_job(rec, model, seed=42)
    b = synthesize_job(rec, model, seed=42)
    c = synthesize_job(rec, model, seed=43)
    assert a == b
    assert a != c


def test_synthesis_depends_on_index_not_stream_position():
    """The per-record (seed, index) RNG makes chunking irrelevant."""
    model = get_noise_model("multiplicative")
    recs = [_record(index=i) for i in range(6)]
    whole = list(synthesize_jobs(iter(recs), seed=1))
    # synthesize the back half alone — same draws as in the full stream
    back = list(synthesize_jobs(iter(recs[3:]), seed=1))
    assert whole[3:] == back


def test_adversarial_model_sits_on_golden_boundary():
    model = get_noise_model("adversarial")
    assert model.deterministic
    job = synthesize_job(_record(runtime=5.0), model)
    assert job.query_cost == pytest.approx(5.0 / PHI)
    assert job.work_upper == pytest.approx(PHI * (job.query_cost + 5.0))


def test_explicit_query_cost_is_honoured_and_clipped():
    model = get_noise_model("multiplicative")
    honoured = synthesize_job(_record(query_cost=0.5), model)
    assert honoured.query_cost == 0.5
    # a query cost larger than the drawn upper bound is clipped to w
    clipped = synthesize_job(_record(query_cost=1e9), model)
    assert clipped.query_cost == clipped.work_upper


def test_swf_deadline_from_slack_over_requested():
    model = get_noise_model("multiplicative")
    job = synthesize_job(
        _record(release=100.0, runtime=10.0, requested=40.0),
        model,
        deadline_slack=2.0,
    )
    assert job.deadline == pytest.approx(100.0 + 2.0 * 40.0)
    # without a requested time the observed runtime seeds the window
    job = synthesize_job(
        _record(release=100.0, runtime=10.0), model, deadline_slack=3.0
    )
    assert job.deadline == pytest.approx(100.0 + 3.0 * 10.0)


def test_synthesize_rejects_bad_inputs():
    model = get_noise_model("multiplicative")
    with pytest.raises(ValueError, match="deadline_slack"):
        synthesize_job(_record(), model, deadline_slack=0.0)
    with pytest.raises(KeyError):
        list(synthesize_jobs([_record()], model="nope"))


# -- sharding -----------------------------------------------------------------------


def _qjob(release, span=10.0, i=0):
    return QJob(release, release + span, 0.5, 2.0, 1.0, f"j{i}")


def test_iter_shards_grid_alignment_and_gaps():
    jobs = [_qjob(1.0, i=0), _qjob(2.0, i=1), _qjob(25.0, i=2)]
    shards = list(iter_shards(iter(jobs), window=10.0))
    assert [(s.index, s.start, s.end) for s in shards] == [
        (0, 0.0, 10.0),
        (2, 20.0, 30.0),  # the empty [10, 20) window is skipped
    ]
    assert [len(s.jobs) for s in shards] == [2, 1]


def test_iter_shards_rejects_unsorted_stream():
    jobs = [_qjob(50.0, i=0), _qjob(1.0, i=1)]
    with pytest.raises(TraceOrderError, match="release order"):
        list(iter_shards(iter(jobs), window=10.0))


def test_iter_shards_rejects_bad_window():
    with pytest.raises(ValueError, match="window"):
        list(iter_shards(iter([]), window=0.0))


def test_validate_replay_algorithms():
    assert validate_replay_algorithms(["avrq", "bkpq"]) == ("avrq", "bkpq")
    with pytest.raises(ValueError, match="at least one"):
        validate_replay_algorithms([])
    with pytest.raises(KeyError):
        validate_replay_algorithms(["nope"])
    with pytest.raises(ValueError, match="online"):
        validate_replay_algorithms(["crcd"])  # offline common-deadline


def test_detect_format():
    assert detect_format("a/b/log.swf") == "swf"
    assert detect_format("x.CSV") == "csv"
    assert detect_format("x.jsonl") == "jsonl"
    with pytest.raises(ValueError, match="--format"):
        detect_format("trace.log")


# -- streaming replay ---------------------------------------------------------------


def _replay_sample(path, tmp_path, *, jobs=1, cache=True, **kw):
    kw.setdefault("shard_window", 100.0)
    session = ExecutionSession(jobs=jobs, cache=cache, cache_dir=tmp_path / "cache")
    return replay_trace(path, session=session, **kw)


def _canon(report):
    return json.dumps(report.to_dict(), sort_keys=True)


def test_replay_swf_end_to_end(tmp_path):
    report, metrics = _replay_sample(SAMPLE_SWF, tmp_path)
    assert report.trace_format == "swf"
    assert report.n_jobs == 10
    assert report.skipped == 2
    assert metrics.shards == len(report.shards) > 1
    assert metrics.misses == len(report.shards)
    for shard in report.shards:
        assert {row["algorithm"] for row in shard["rows"]} == {"avrq", "bkpq"}
        for row in shard["rows"]:
            assert row["energy_ratio"] >= 1.0 - 1e-9
            assert row["max_speed_ratio"] >= 1.0 - 1e-9


@pytest.mark.parametrize("path", [SAMPLE_SWF, SAMPLE_CSV], ids=["swf", "csv"])
def test_replay_respects_paper_bounds_on_every_shard(path, tmp_path):
    """Acceptance criterion: per-shard ratios within the proven bounds."""
    report, _ = _replay_sample(path, tmp_path, alpha=3.0)
    assert report.shards
    for shard in report.shards:
        for row in shard["rows"]:
            assert row["paper_bound"] is not None
            assert row["within_bound"] is True, (shard["index"], row)


def test_replay_parallel_and_cached_are_byte_identical(tmp_path):
    """Acceptance criterion: jobs=4 and warm-cache output == serial output."""
    serial, _ = _replay_sample(SAMPLE_CSV, tmp_path / "a", cache=False, jobs=1)
    parallel, _ = _replay_sample(SAMPLE_CSV, tmp_path / "b", cache=False, jobs=4)
    cold, m_cold = _replay_sample(SAMPLE_CSV, tmp_path, jobs=2)
    warm, m_warm = _replay_sample(SAMPLE_CSV, tmp_path, jobs=2)
    assert _canon(serial) == _canon(parallel) == _canon(cold) == _canon(warm)
    assert serial.render() == parallel.render() == warm.render()
    assert m_cold.misses == len(cold.shards) and m_cold.hits == 0
    assert m_warm.hits == len(warm.shards) and m_warm.misses == 0


def test_replay_streaming_is_bounded(tmp_path):
    """The replayer never materializes the trace: peak resident jobs is
    the largest shard, not the job count."""
    report, metrics = _replay_sample(SAMPLE_SWF, tmp_path, cache=False)
    largest = max(s["n_jobs"] for s in report.shards)
    assert metrics.peak_resident_jobs == largest < report.n_jobs


def test_replay_consumes_stream_lazily():
    """Shard evaluation interleaves with parsing — by the time the first
    shard's jobs are resident, the stream has not been drained."""
    pulled = []

    def stream():
        for i in range(100):
            pulled.append(i)
            yield _qjob(float(i), i=i)

    report, metrics = replay_jobs(
        stream(),
        shard_window=10.0,
        session=ExecutionSession(cache=False),
        algorithms=["avrq"],
    )
    assert len(pulled) == 100  # fully consumed by the end...
    assert metrics.peak_resident_jobs <= 11  # ...but never all at once


def test_replay_limit(tmp_path):
    report, _ = _replay_sample(SAMPLE_CSV, tmp_path, cache=False, limit=4)
    assert report.n_jobs == 4


def test_replay_seed_changes_results(tmp_path):
    a, _ = _replay_sample(SAMPLE_SWF, tmp_path, cache=False, seed=0)
    b, _ = _replay_sample(SAMPLE_SWF, tmp_path, cache=False, seed=9)
    assert _canon(a) != _canon(b)


def test_replay_cache_key_covers_alpha(tmp_path):
    _, m1 = _replay_sample(SAMPLE_CSV, tmp_path, alpha=3.0)
    _, m2 = _replay_sample(SAMPLE_CSV, tmp_path, alpha=2.5)
    assert m2.hits == 0  # alpha change must miss


def test_replay_report_summary_and_render():
    shards = [
        {
            "index": 0,
            "start": 0.0,
            "end": 10.0,
            "n_jobs": 2,
            "rows": [
                {
                    "algorithm": "avrq",
                    "energy": 4.0,
                    "optimal_energy": 2.0,
                    "energy_ratio": 2.0,
                    "max_speed": 1.0,
                    "optimal_max_speed": 1.0,
                    "max_speed_ratio": 1.0,
                    "paper_bound": 100.0,
                    "within_bound": True,
                }
            ],
        },
        {
            "index": 1,
            "start": 10.0,
            "end": 20.0,
            "n_jobs": 1,
            "rows": [
                {
                    "algorithm": "avrq",
                    "energy": 8.0,
                    "optimal_energy": 2.0,
                    "energy_ratio": 4.0,
                    "max_speed": 1.0,
                    "optimal_max_speed": 1.0,
                    "max_speed_ratio": 1.0,
                    "paper_bound": 100.0,
                    "within_bound": True,
                }
            ],
        },
    ]
    report = ReplayReport(
        source="synthetic",
        trace_format="csv",
        noise_model="multiplicative",
        seed=0,
        deadline_slack=2.0,
        alpha=3.0,
        shard_window=10.0,
        algorithms=["avrq"],
        shards=shards,
    )
    (row,) = report.summary_rows()
    name, n, mean, p50, p90, p99, mx, bound, within = row
    assert (name, n, bound, within) == ("avrq", 2, 100.0, True)
    assert mean == pytest.approx(3.0)
    assert p50 == pytest.approx(3.0)  # linear interpolation between 2 and 4
    assert p90 == pytest.approx(3.8)
    assert mx == 4.0
    text = report.render(max_shard_rows=1)
    assert "[REPLAY] synthetic" in text
    assert "1 more shards not shown" in text


def test_replay_report_io_round_trip(tmp_path):
    report, _ = _replay_sample(SAMPLE_CSV, tmp_path, cache=False)
    out = tmp_path / "replay.json"
    rio.save(report, out)
    loaded = rio.load(out)
    assert isinstance(loaded, ReplayReport)
    assert _canon(loaded) == _canon(report)
    assert loaded.render() == report.render()


def test_replay_unsorted_tabular_trace_raises(tmp_path):
    bad = tmp_path / "unsorted.csv"
    bad.write_text(
        "release,deadline,runtime\n100,200,5\n0,50,5\n"
    )
    with pytest.raises(TraceOrderError, match="sort the trace"):
        replay_trace(bad, session=ExecutionSession(cache=False))


def test_percentile_math():
    from repro.traces.replay import _percentile

    values = [1.0, 2.0, 3.0, 4.0]
    assert _percentile(values, 0.0) == 1.0
    assert _percentile(values, 100.0) == 4.0
    assert _percentile(values, 50.0) == pytest.approx(2.5)
    assert _percentile([7.0], 90.0) == 7.0
    with pytest.raises(ValueError):
        _percentile([], 50.0)
    assert not math.isnan(_percentile(values, 33.0))
