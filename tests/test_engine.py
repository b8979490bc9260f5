"""The parallel cached experiment engine and its CLI surface."""

import json

import pytest

from repro.analysis.experiments import (
    REGISTRY,
    ExperimentReport,
    experiment_params,
    resolve_kwargs,
)
from repro.engine import (
    ExecutionSession,
    ResultCache,
    cache_key,
    run_experiments,
)

FAST = ["lemma42", "rho"]


class TestKwargResolution:
    def test_params_are_json_serializable(self):
        for name in REGISTRY:
            json.dumps(experiment_params(name))  # must not raise

    def test_resolve_merges_and_reports_unused(self):
        call, resolved, unused = resolve_kwargs(
            "lemma42", {"alpha": 2.0, "bogus": 1}
        )
        assert call == {"alpha": 2.0}
        assert resolved["alpha"] == 2.0
        assert unused == ["bogus"]

    def test_explicit_default_resolves_to_same_key(self):
        _, via_default, _ = resolve_kwargs("lemma42")
        _, via_explicit, _ = resolve_kwargs("lemma42", {"alpha": 3.0})
        assert cache_key("lemma42", via_default) == cache_key(
            "lemma42", via_explicit
        )

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            resolve_kwargs("nope")


class TestCache:
    def test_same_key_hit_is_byte_identical(self, tmp_path):
        cold = run_experiments(
            FAST, session=ExecutionSession(jobs=1, cache_dir=tmp_path)
        )
        warm = run_experiments(
            FAST, session=ExecutionSession(jobs=1, cache_dir=tmp_path)
        )
        assert [r.metrics.cache_hit for r in cold.runs] == [False, False]
        assert [r.metrics.cache_hit for r in warm.runs] == [True, True]
        for a, b in zip(cold.reports, warm.reports):
            assert a.render() == b.render()

    def test_changed_kwargs_miss(self, tmp_path):
        run_experiments(
            ["lemma42"], session=ExecutionSession(jobs=1, cache_dir=tmp_path)
        )
        again = run_experiments(
            ["lemma42"],
            {"lemma42": {"alpha": 2.0}},
            session=ExecutionSession(jobs=1, cache_dir=tmp_path),
        )
        assert not again.runs[0].metrics.cache_hit

    def test_bumped_package_version_misses(self, tmp_path):
        run_experiments(
            ["lemma42"],
            session=ExecutionSession(
                jobs=1, cache_dir=tmp_path, package_version="1.0.0"
            ),
        )
        again = run_experiments(
            ["lemma42"],
            session=ExecutionSession(
                jobs=1, cache_dir=tmp_path, package_version="9.9.9"
            ),
        )
        assert not again.runs[0].metrics.cache_hit

    def test_no_cache_bypasses_reads_and_writes(self, tmp_path):
        run_experiments(
            ["lemma42"], session=ExecutionSession(jobs=1, cache_dir=tmp_path)
        )
        store = ResultCache(tmp_path)
        assert len(store) == 1
        off = run_experiments(
            ["lemma42"],
            session=ExecutionSession(jobs=1, cache=False, cache_dir=tmp_path),
        )
        assert not off.runs[0].metrics.cache_hit
        assert len(store) == 1  # nothing new written

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        run_experiments(
            ["lemma42"], session=ExecutionSession(jobs=1, cache_dir=tmp_path)
        )
        store = ResultCache(tmp_path)
        (path,) = list(tmp_path.glob("*/*.json"))
        path.write_text("{not json")
        assert store.get(path.stem) is None
        again = run_experiments(
            ["lemma42"], session=ExecutionSession(jobs=1, cache_dir=tmp_path)
        )
        assert not again.runs[0].metrics.cache_hit

    def test_cached_report_loads_via_io(self, tmp_path):
        from repro import io

        report = REGISTRY["lemma42"]()
        path = tmp_path / "report.json"
        io.save(report, path)
        loaded = io.load(path)
        assert isinstance(loaded, ExperimentReport)
        assert loaded.render() == ExperimentReport.from_dict(report.to_dict()).render()


class TestParallel:
    def test_jobs4_output_equals_serial(self, tmp_path):
        serial = run_experiments(
            FAST + ["lemma43"],
            session=ExecutionSession(jobs=1, cache_dir=tmp_path / "a"),
        )
        parallel = run_experiments(
            FAST + ["lemma43"],
            session=ExecutionSession(jobs=4, cache_dir=tmp_path / "b"),
        )
        assert [r.name for r in serial.runs] == [r.name for r in parallel.runs]
        for a, b in zip(serial.reports, parallel.reports):
            assert a.render() == b.render()

    def test_metrics_are_recorded(self, tmp_path):
        result = run_experiments(
            FAST, session=ExecutionSession(jobs=2, cache_dir=tmp_path)
        )
        for run in result.runs:
            assert run.metrics.wall_time >= 0.0
            assert run.metrics.rows > 0
            assert run.metrics.error is None
        footer = result.footer()
        for name in FAST:
            assert name in footer
        assert "jobs=2" in footer

    def test_failing_experiment_is_isolated(self, tmp_path, monkeypatch):
        def boom():
            raise RuntimeError("kaboom")

        monkeypatch.setitem(REGISTRY, "lemma42", boom)
        result = run_experiments(
            FAST, session=ExecutionSession(jobs=1, cache_dir=tmp_path)
        )
        failed, ok = result.runs
        assert not failed.ok and "kaboom" in failed.metrics.error
        assert ok.ok
        assert result.errors == [failed]


class TestCLI:
    def test_list_flag(self, capsys):
        from repro.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "rho" in out and "table1" in out

    def test_unused_override_warns(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["lemma42", "--n", "5", "--cache-dir", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "ignored" in err and "--n" in err

    def test_failure_gives_nonzero_exit(self, capsys, tmp_path, monkeypatch):
        from repro.cli import main

        def boom(**kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setitem(REGISTRY, "lemma42", boom)
        code = main(["lemma42", "--cache-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "kaboom" in err

    def test_footer_on_stderr_not_stdout(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["lemma42", "--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "engine" in captured.err and "cache" in captured.err
        assert "engine" not in captured.out

    def test_warm_rerun_hits_cache(self, capsys, tmp_path):
        from repro.cli import main

        main(["lemma42", "--cache-dir", str(tmp_path)])
        first = capsys.readouterr()
        main(["lemma42", "--cache-dir", str(tmp_path)])
        second = capsys.readouterr()
        assert first.out == second.out  # byte-identical report
        assert "miss" in first.err and "hit" in second.err

    def test_markdown_through_engine(self, capsys, tmp_path):
        from repro.cli import main

        code = main(
            ["lemma42", "--markdown", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("# QBSS reproduction report")
        assert "L42" in out
