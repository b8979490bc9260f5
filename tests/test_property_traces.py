"""Property-based suite for the trace layer.

Every record the synthesizer touches must come out as a model-legal QBSS
job — ``0 < c <= w``, ``w* <= w``, ``r < d`` — for any noise model, any
seed, and any explicit query cost the trace supplies.  Sharding must
partition without loss and be invariant to how the stream was chunked.
"""

import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.qjob import QJob
from repro.traces import (
    NOISE_MODELS,
    ParseStats,
    TraceParseError,
    TraceRecord,
    get_noise_model,
    iter_shards,
    parse_csv,
    parse_jsonl,
    parse_swf,
    synthesize_job,
    synthesize_jobs,
)

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def trace_records(draw, index=0):
    release = draw(st.floats(min_value=0.0, max_value=1e6, **finite))
    runtime = draw(st.floats(min_value=1e-6, max_value=1e5, **finite))
    deadline = None
    if draw(st.booleans()):
        deadline = release + draw(
            st.floats(min_value=1e-6, max_value=1e6, **finite)
        )
    requested = None
    if draw(st.booleans()):
        requested = draw(st.floats(min_value=1e-6, max_value=1e6, **finite))
    query_cost = None
    if draw(st.booleans()):
        query_cost = draw(st.floats(min_value=1e-9, max_value=1e9, **finite))
    return TraceRecord(
        index=index,
        id=f"h{index}",
        release=release,
        runtime=runtime,
        deadline=deadline,
        requested=requested,
        query_cost=query_cost,
    )


@settings(max_examples=120, deadline=None)
@given(
    record=trace_records(),
    model=st.sampled_from(sorted(NOISE_MODELS)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    slack=st.floats(min_value=0.1, max_value=10.0, **finite),
)
def test_every_synthesized_job_is_model_legal(record, model, seed, slack):
    job = synthesize_job(
        record, get_noise_model(model), seed=seed, deadline_slack=slack
    )
    assert isinstance(job, QJob)
    assert 0.0 < job.query_cost <= job.work_upper
    assert job.work_true <= job.work_upper
    assert job.release < job.deadline
    assert job.work_true == record.runtime
    assert job.release == record.release
    for value in (job.query_cost, job.work_upper, job.deadline):
        assert math.isfinite(value)


@settings(max_examples=60, deadline=None)
@given(
    record=trace_records(),
    model=st.sampled_from(sorted(NOISE_MODELS)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_synthesis_is_a_pure_function_of_seed_and_record(record, model, seed):
    noise = get_noise_model(model)
    assert synthesize_job(record, noise, seed=seed) == synthesize_job(
        record, noise, seed=seed
    )


@st.composite
def sorted_release_streams(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=50.0, **finite),
            min_size=n,
            max_size=n,
        )
    )
    releases = []
    t = 0.0
    for g in gaps:
        t += g
        releases.append(t)
    return [
        TraceRecord(index=i, id=f"s{i}", release=r, runtime=1.0 + (i % 5))
        for i, r in enumerate(releases)
    ]


@settings(max_examples=60, deadline=None)
@given(
    records=sorted_release_streams(),
    seed=st.integers(min_value=0, max_value=100),
    window=st.floats(min_value=0.5, max_value=200.0, **finite),
)
def test_sharding_partitions_the_stream_without_loss(records, seed, window):
    jobs = list(synthesize_jobs(iter(records), seed=seed))
    shards = list(iter_shards(iter(jobs), window=window))
    flattened = [job for shard in shards for job in shard.jobs]
    assert flattened == jobs  # order-preserving, nothing dropped
    assert [s.index for s in shards] == sorted(
        {s.index for s in shards}
    )  # strictly increasing shard grid
    for shard in shards:
        assert shard.end - shard.start > 0
        for job in shard.jobs:
            assert shard.start <= job.release or math.isclose(
                shard.start, job.release
            )
            assert job.release < shard.end or math.isclose(
                job.release, shard.end
            )


@settings(max_examples=40, deadline=None)
@given(
    records=sorted_release_streams(),
    seed=st.integers(min_value=0, max_value=100),
    split=st.integers(min_value=0, max_value=30),
)
def test_synthesis_invariant_under_chunking(records, seed, split):
    """Splitting the record stream anywhere yields the same jobs —
    the property the parallel replayer's determinism rests on."""
    split = min(split, len(records))
    whole = list(synthesize_jobs(iter(records), seed=seed))
    front = list(synthesize_jobs(iter(records[:split]), seed=seed))
    back = list(synthesize_jobs(iter(records[split:]), seed=seed))
    assert front + back == whole


# -- SWF parser: untrusted lines fail closed ------------------------------------------

#: One SWF field: numbers, non-finite spellings, overflow, or junk.
SWF_TOKENS = st.sampled_from(
    ["0", "1", "-1", "3.5", "nan", "NaN", "inf", "-inf", "Infinity", "1e999", "x"]
) | st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Zs", "Cc", "Zl", "Zp")),
    min_size=1,
    max_size=6,
)


#: Data lines only: a line whose first field starts with ``;`` is a comment.
SWF_DATA_LINES = st.lists(SWF_TOKENS, min_size=1, max_size=20).filter(
    lambda fields: not fields[0].startswith(";")
)


@settings(max_examples=200, deadline=None)
@given(SWF_DATA_LINES)
@example(["1", "nan"] + ["1"] * 16)
@example(["1", "0", "-1", "inf"] + ["1"] * 14)
@example(["1", "0", "-1", "10", "1", "1", "1", "1", "-inf"] + ["1"] * 9)
def test_swf_line_fails_closed_or_is_finite(fields):
    """Any data line raises a located TraceParseError, is skipped, or
    yields a record with a finite release and runtime."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.swf"
        path.write_text("; header\n" + " ".join(fields) + "\n", encoding="utf-8")
        stats = ParseStats()
        try:
            records = list(parse_swf(path, stats))
        except TraceParseError as exc:
            assert f"{path}:2" in str(exc)
            return
    assert len(records) + stats.skipped == 1
    for record in records:
        assert math.isfinite(record.release) and math.isfinite(record.runtime)
        assert record.requested is None or math.isfinite(record.requested)


# -- JSONL parser: untrusted lines fail closed ----------------------------------------

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(10**300, 10**400)  # too large for a float
    | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
TRACE_KEYS = st.sampled_from(["release", "deadline", "runtime", "query_cost", "id"])
#: One JSONL line: an object over the schema's keys (and strays), any JSON
#: value, junk text without line breaks, or hostile nesting and digits.
JSONL_LINES = (
    st.dictionaries(TRACE_KEYS | st.text(max_size=3), JSON_VALUES, max_size=6).map(
        json.dumps
    )
    | JSON_VALUES.map(json.dumps)
    | st.text(
        alphabet=st.characters(
            blacklist_categories=("Cs",), blacklist_characters="\r\n"
        ),
        max_size=12,
    )
    | st.sampled_from(["[" * 100_000, "{" * 3000, '{"release": ' + "9" * 5000 + "}"])
).map(str.encode)
#: Arbitrary bytes on one line: UTF-8 or not.
RAW_LINE = st.binary(max_size=12).map(
    lambda b: b.replace(b"\n", b"").replace(b"\r", b"")
)


NUMERIC_KEYS = ("release", "deadline", "runtime", "query_cost")


def holds_a_boolean(line: bytes) -> bool:
    """Whether ``line`` decodes to an object with a JSON boolean under a
    numeric key (``float(True)`` is 1.0, so only a type check stops it)."""
    try:
        row = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError):
        return False
    return isinstance(row, dict) and any(
        isinstance(row.get(key), bool) for key in NUMERIC_KEYS
    )


@settings(max_examples=200, deadline=None)
@given(JSONL_LINES | RAW_LINE)
@example(b"[" * 100_000)
@example(b'{"release": 1' + b"0" * 400 + b', "deadline": 2, "runtime": 1}')
@example(b'{"release": 0, "deadline": 2, "runtime": 1, "query_cost": NaN}')
@example(b'{"release": 0, "deadline": 2, "runtime": true}')
@example(b'{"release": 0, "deadline": 2, "runtime": 1, "id": "\xff"}')
def test_jsonl_line_fails_closed_or_is_finite(line):
    """Any line, UTF-8 or not, raises a located TraceParseError, is blank,
    or yields one record whose numbers are all finite; a boolean number
    always raises."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.jsonl"
        path.write_bytes(line + b"\n")
        try:
            records = list(parse_jsonl(path))
        except TraceParseError as exc:
            assert f"{path}:1:" in str(exc)
            return
    assert not holds_a_boolean(line)
    assert len(records) == (1 if line.strip() else 0)
    for record in records:
        numbers = (record.release, record.deadline, record.runtime, record.query_cost)
        assert all(math.isfinite(x) for x in numbers if x is not None)


# -- bytes that are not UTF-8 name their line ----------------------------------------

NEWLINE = b"\n"
CSV_OK = b"release,deadline,runtime,id\n0,2,1,a\n1,3,1,b\n"
JSONL_OK = b'{"release": 0, "deadline": 2, "runtime": 1}\n'


@pytest.mark.parametrize(
    "name, data, line, before",
    [
        ("header.csv", b"release,dead\xffline,runtime\n0,2,1\n", 1, 0),
        ("cell.csv", CSV_OK + b"2,4,1,\xe9t\xe9\n3,5,1,d\n", 4, 2),
        ("multiline.csv", CSV_OK + b'2,4,1,"first\nsec\xc3ond\nthird"\n', 5, 2),
        ("last.csv", CSV_OK + b"2,4,1,\x80", 4, 2),
        ("first.jsonl", b'{"release": 0, "\xff": 2}\n' + JSONL_OK, 1, 0),
        ("value.jsonl", JSONL_OK * 2 + b'{"id": "\xe9", "release": 1}\n', 3, 2),
        ("blank.jsonl", JSONL_OK + b"\n  \xa0\n" + JSONL_OK, 3, 1),
        ("last.jsonl", JSONL_OK + b'{"id": "\xfe"}', 2, 1),
    ],
)
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, name, data, line, before):
    """The records before it are yielded, then a TraceParseError names the
    file and the line holding the byte (in a quoted multi-line cell, the
    cell's own line)."""
    path = tmp_path / name
    path.write_bytes(data)
    parse = parse_csv if name.endswith(".csv") else parse_jsonl
    got = []
    with pytest.raises(TraceParseError, match="invalid UTF-8") as raised:
        for record in parse(path):
            got.append(record)
    assert str(raised.value).startswith(f"{path}:{line}:")
    assert len(got) == before


# -- CSV parser: untrusted rows fail closed -------------------------------------------

CSV_HEADER = ["release", "deadline", "runtime", "query_cost", "id"]
#: Cell text, commas, quotes and line feeds included (csv.writer quotes them).
CSV_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
    max_size=6,
)
CSV_CELLS = st.sampled_from(
    ["0", "1", "-1", "2.5", "nan", "inf", "1e999", "", " ", "x", "true"]
) | CSV_TEXT


@st.composite
def valid_csv_rows(draw):
    """A record that parses; its id may hold a line feed, so it can span lines."""
    release = draw(st.floats(min_value=0.0, max_value=100.0, **finite))
    span = draw(st.floats(min_value=0.5, max_value=10.0, **finite))
    runtime = draw(st.floats(min_value=0.1, max_value=5.0, **finite))
    return [repr(release), repr(release + span), repr(runtime), "", draw(CSV_TEXT)]


@settings(max_examples=200, deadline=None)
@given(
    prefix=st.lists(valid_csv_rows(), max_size=3),
    last=st.lists(CSV_CELLS, max_size=7),
    junk=RAW_LINE,
)
@example(prefix=[], last=["0", "2", "1", "", "x" * 131_073], junk=b"")
@example(prefix=[["0", "2", "1", "", "a\nb"]], last=["x", "2", "1", "", "c"], junk=b"")
@example(prefix=[["0", "2", "1", "", "a\nb"]], last=["0", "2", "1", "", "c"], junk=b"\xff")
def test_csv_line_fails_closed_or_is_finite(prefix, last, junk):
    """After valid records, any last row, with arbitrary bytes at its end,
    raises a TraceParseError located at the file's last line, is blank, or
    yields one more record whose numbers are all finite."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([CSV_HEADER, *prefix, last])
    data = buffer.getvalue().encode("utf-8")[:-1] + junk + b"\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.csv"
        path.write_bytes(data)
        try:
            records = list(parse_csv(path))
        except TraceParseError as exc:
            assert f"{path}:{data.count(NEWLINE)}:" in str(exc)
            return
    assert len(records) in (len(prefix), len(prefix) + 1)
    for record in records:
        numbers = (record.release, record.deadline, record.runtime, record.query_cost)
        assert all(math.isfinite(x) for x in numbers if x is not None)
