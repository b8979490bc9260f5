"""The qbss-replay CLI and the shared --jobs/--cache-prune plumbing."""

import json
import pathlib

import pytest

from repro import io as rio
from repro.cli import main, replay_main
from repro.traces import ReplayReport

DATA = pathlib.Path(__file__).parent / "data"
SAMPLE_SWF = str(DATA / "sample.swf")
SAMPLE_CSV = str(DATA / "sample_trace.csv")


def _replay(tmp_path, *extra):
    return [
        SAMPLE_CSV,
        "--shard-window",
        "100",
        "--cache-dir",
        str(tmp_path / "cache"),
        "--jobs",
        "1",
        *extra,
    ]


def test_replay_cli_end_to_end(tmp_path, capsys):
    assert replay_main(_replay(tmp_path)) == 0
    out = capsys.readouterr()
    assert "[REPLAY]" in out.out
    assert "sample_trace.csv" in out.out
    assert "---- replay" in out.err
    assert "shards/s" in out.err


def test_replay_cli_swf_with_options(tmp_path, capsys):
    argv = [
        SAMPLE_SWF,
        "--format",
        "swf",
        "--noise-model",
        "lognormal",
        "--seed",
        "3",
        "--shard-window",
        "150",
        "--algorithms",
        "avrq",
        "--limit",
        "6",
        "--no-cache",
        "--jobs",
        "auto",
    ]
    assert replay_main(argv) == 0
    out = capsys.readouterr()
    assert "noise=lognormal" in out.out
    assert "bkpq" not in out.out


def test_replay_cli_markdown(tmp_path, capsys):
    assert replay_main(_replay(tmp_path, "--markdown")) == 0
    out = capsys.readouterr().out
    assert out.startswith("# Trace replay")
    assert "## Summary" in out and "## Shards" in out


def test_replay_cli_output_round_trips(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert replay_main(_replay(tmp_path, "--output", str(out_file))) == 0
    capsys.readouterr()
    loaded = rio.load(out_file)
    assert isinstance(loaded, ReplayReport)
    assert loaded.n_jobs == 10
    # the JSON on disk is the repro.io envelope
    doc = json.loads(out_file.read_text())
    assert doc["kind"] == "trace_replay_report"


def test_replay_cli_warm_cache_identical_stdout(tmp_path, capsys):
    assert replay_main(_replay(tmp_path)) == 0
    cold = capsys.readouterr()
    assert replay_main(_replay(tmp_path)) == 0
    warm = capsys.readouterr()
    assert warm.out == cold.out  # report is deterministic across cache states
    assert "0 miss" in warm.err


def test_failed_shard_report_renders_everywhere(tmp_path, capsys):
    """Regression: ratios_for/summary_rows/render indexed s["rows"]
    unconditionally and crashed on any report whose failed shard (or
    externally produced JSON) lacks the key."""
    from repro.analysis.report import replay_report_to_markdown
    from repro.engine import ExecutionSession, FaultPlan, FaultSpec, RetryPolicy
    from repro.traces.replay import replay_jobs
    from repro.traces.records import TraceRecord
    from repro.traces.synthesize import synthesize_jobs

    records = (
        TraceRecord(
            index=i,
            id=f"t{i}",
            release=i * 2.0,
            runtime=1.0 + i % 3,
            deadline=i * 2.0 + 8.0,
        )
        for i in range(12)
    )
    plan = FaultPlan((FaultSpec(task="shard:1", kind="raise", attempt=0),))
    report, metrics = replay_jobs(
        synthesize_jobs(records, seed=0),
        algorithms=("avrq",),
        shard_window=4.0,
        session=ExecutionSession(
            jobs=1, cache=False, retry=RetryPolicy(max_attempts=1), fault_plan=plan
        ),
    )
    assert [s["index"] for s in report.failed_shards] == [1]
    # a report loaded from foreign JSON may omit the keys entirely
    report.shards[1].pop("rows", None)
    report.shards[1].pop("n_jobs", None)
    assert report.ratios_for("avrq")  # surviving shards still counted
    assert report.summary_rows()
    rendered = report.render()
    assert "error" in rendered
    md = replay_report_to_markdown(report)
    assert "## Failed shards" in md and "shard 1" in md
    assert report.n_jobs == sum(s.get("n_jobs", 0) for s in report.shards)


def test_replay_cli_cache_prune_flag(tmp_path, capsys):
    assert replay_main(_replay(tmp_path)) == 0
    capsys.readouterr()
    assert replay_main(_replay(tmp_path, "--cache-prune", "0d")) == 0
    err = capsys.readouterr().err
    assert "cache prune: removed" in err


@pytest.mark.parametrize(
    "argv_tail",
    [
        ["--jobs", "-2"],
        ["--jobs", "many"],
        ["--shard-window", "0"],
        ["--limit", "0"],
        ["--algorithms", "crcd"],  # offline: rejected up front
        ["--algorithms", "nope"],
        ["--noise-model", "gaussian"],
        ["--cache-prune", "wat"],
    ],
)
def test_replay_cli_usage_errors(tmp_path, argv_tail):
    with pytest.raises(SystemExit) as exc:
        replay_main(_replay(tmp_path, *argv_tail))
    assert exc.value.code == 2


def test_replay_cli_missing_file(tmp_path):
    with pytest.raises(SystemExit) as exc:
        replay_main(_replay(tmp_path)[1:] + ["/no/such/trace.csv"])
    assert exc.value.code == 2


def test_replay_cli_parse_error_is_reported(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("release,deadline,runtime\n0,2,-1\n")
    argv = [str(bad), "--no-cache", "--jobs", "1"]
    assert replay_main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert f"{bad}:2:" in err  # file:line locates the bad record


def test_replay_cli_unknown_extension_needs_format(tmp_path, capsys):
    trace = tmp_path / "trace.log"
    trace.write_text("release,deadline,runtime\n0,2,1\n")
    assert replay_main([str(trace), "--no-cache", "--jobs", "1"]) == 1
    assert "--format" in capsys.readouterr().err
    assert (
        replay_main(
            [str(trace), "--format", "csv", "--no-cache", "--jobs", "1"]
        )
        == 0
    )


def test_report_cli_jobs_auto_and_zero(tmp_path, capsys):
    for jobs in ("auto", "0"):
        code = main(
            [
                "lemma42",
                "--jobs",
                jobs,
                "--no-cache",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out


def test_report_cli_standalone_cache_prune(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert replay_main(_replay(tmp_path)) == 0
    capsys.readouterr()
    # no experiment given: prune and exit 0
    assert main(["--cache-prune", "0d", "--cache-dir", cache_dir]) == 0
    err = capsys.readouterr().err
    assert "cache prune: removed" in err


def test_report_cli_bad_jobs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lemma42", "--jobs", "-1"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
