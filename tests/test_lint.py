"""qbss-lint: fixture-based rule tests, suppression/baseline workflow,
JSON schema stability, CLI exit codes, and the live-tree meta-test.

Each rule has a checked-in bad fixture (must fire, with the right ID and
position) and a good fixture (must stay silent) under
``tests/data/lint/<rule>/{bad,good}/repro/...`` — miniature package
trees so the package-scoped rules see realistic module names.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import Baseline, all_rules, lint_paths
from repro.lint.cli import main as lint_main
from repro.lint.engine import render_json
from repro.lint.suppress import Suppressions

FIXTURES = Path(__file__).parent / "data" / "lint"
REPO_ROOT = Path(__file__).resolve().parent.parent

RULE_IDS = [
    "QL001",
    "QL002",
    "QL003",
    "QL004",
    "QL005",
    "QL006",
    "QL007",
    "QL009",
]


def run_fixture(rule: str, flavor: str):
    root = FIXTURES / rule.lower() / flavor
    assert root.exists(), f"missing fixture tree {root}"
    return lint_paths([root], root=root)


def write_tree(base: Path, relpath: str, code: str) -> Path:
    path = base / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    return path


# -- per-rule fixtures --------------------------------------------------------------


@pytest.mark.parametrize("rule", RULE_IDS)
def test_bad_fixture_fires_with_position(rule):
    run = run_fixture(rule, "bad")
    hits = [f for f in run.findings if f.rule == rule]
    assert hits, f"{rule} bad fixture produced no {rule} findings: {run.findings}"
    for f in hits:
        assert f.line >= 1 and f.col >= 1
        assert f.path.endswith(".py")
        assert f.message


@pytest.mark.parametrize("rule", RULE_IDS)
def test_good_fixture_is_clean(rule):
    run = run_fixture(rule, "good")
    hits = [f for f in run.findings if f.rule == rule]
    assert hits == [], f"{rule} good fixture flagged: {hits}"


def test_ql001_flags_each_nondeterminism_source():
    run = run_fixture("QL001", "bad")
    messages = " | ".join(f.message for f in run.findings if f.rule == "QL001")
    assert "time.time" in messages
    assert "random.random" in messages
    assert "numpy.random.rand" in messages


def test_ql002_reports_both_violations():
    run = run_fixture("QL002", "bad")
    messages = [f.message for f in run.findings if f.rule == "QL002"]
    assert any("keyword-only" in m for m in messages)
    assert any("positional defaults" in m for m in messages)
    assert any("accepts `*args`" in m for m in messages)


def test_ql002_follows_module_function_references(tmp_path):
    """The registry names runners by "module:function" string; the rule
    checks the def a reference names, and flags a reference that is not
    that shape or names no def in a linted module."""
    write_tree(
        tmp_path,
        "repro/qbss/runners.py",
        """
        def tidy(qi, *, alpha=2.0):
            return qi


        def crummy(qi, extra):
            return extra
        """,
    )
    write_tree(
        tmp_path,
        "repro/qbss/registry.py",
        """
        ALGORITHMS = {
            spec.name: spec
            for spec in (
                _spec("tidy", "repro.qbss.runners:tidy"),
                _spec("crummy", runner="repro.qbss.runners:crummy"),
                _spec("gone", "repro.qbss.runners:missing"),
                _spec("dotted", "repro.qbss.runners.tidy"),
                _spec("elsewhere", "numpy:sum"),
            )
        }
        """,
    )
    run = lint_paths([tmp_path], root=tmp_path)
    found = sorted((f.path, f.message) for f in run.findings if f.rule == "QL002")
    assert [path for path, _ in found] == [
        "repro/qbss/registry.py",
        "repro/qbss/registry.py",
        "repro/qbss/runners.py",
    ]
    messages = " | ".join(message for _, message in found)
    assert "`crummy` has positional parameters after the instance (extra)" in messages
    assert "names no function `missing` in repro.qbss.runners" in messages
    assert "'repro.qbss.runners.tidy' is not 'module:function'" in messages


def test_ql004_distinguishes_bare_and_swallowed():
    run = run_fixture("QL004", "bad")
    messages = [f.message for f in run.findings if f.rule == "QL004"]
    assert any("bare `except:`" in m for m in messages)
    assert any("without a bare `raise`" in m for m in messages)


def test_ql005_is_conservative_about_name_comparisons(tmp_path):
    # Elementwise numpy masks (name == name) must not be flagged.
    write_tree(
        tmp_path,
        "repro/analysis/stats.py",
        """
        def win_rate(c, b):
            return float((c < b).mean() + 0.5 * (c == b).mean())
        """,
    )
    run = lint_paths([tmp_path], root=tmp_path)
    assert [f for f in run.findings if f.rule == "QL005"] == []


def test_ql007_names_class_attr_and_method():
    run = run_fixture("QL007", "bad")
    messages = [f.message for f in run.findings if f.rule == "QL007"]
    assert any("Tally.count" in m and "`bump`" in m for m in messages)


def test_ql009_flags_each_blocking_shape():
    run = run_fixture("QL009", "bad")
    messages = " | ".join(f.message for f in run.findings if f.rule == "QL009")
    assert "Event.wait()" in messages
    assert "Condition.wait()" in messages
    assert "socket.accept()" in messages


def test_ql009_ignores_worker_only_threads(tmp_path):
    """The same untimed wait is fine off the main thread."""
    write_tree(
        tmp_path,
        "repro/serve/bg.py",
        """
        import threading

        def _loop(done):
            done.wait()

        def main():
            done = threading.Event()
            threading.Thread(target=_loop, args=(done,)).start()
        """,
    )
    run = lint_paths([tmp_path], root=tmp_path)
    assert [f for f in run.findings if f.rule == "QL009"] == []


# -- QL003: no environment read is sanctioned --------------------------------------


def test_ql003_flags_the_fault_plan_env_read(tmp_path):
    """The fault plan reaches worker bodies as an argument, so reading
    ``QBSS_FAULT_PLAN`` in one is as impure as any other environment read."""
    write_tree(
        tmp_path,
        "repro/engine/workers.py",
        """
        import os

        from .faults import FAULT_PLAN_ENV


        def _worker(task, attempt):
            os.environ.get(FAULT_PLAN_ENV)
            return task


        def run(tasks, execute_hardened):
            return execute_hardened(tasks, worker=_worker)
        """,
    )
    run = lint_paths([tmp_path], root=tmp_path)
    hits = [f for f in run.findings if f.rule == "QL003"]
    assert len(hits) == 1
    assert "`_worker` reads os.environ" in hits[0].message


def test_ql003_roots_include_session_execute(tmp_path):
    """Engine and replay hand their worker bodies to ``session.execute``;
    a body reached only that way is still checked."""
    write_tree(
        tmp_path,
        "repro/runner.py",
        """
        import os


        def _body(task, attempt):
            return os.environ["HOME"]


        def run(session, tasks):
            return session.execute(tasks, worker=_body, payload=None)
        """,
    )
    run = lint_paths([tmp_path], root=tmp_path)
    hits = [f for f in run.findings if f.rule == "QL003"]
    assert len(hits) == 1
    assert "`_body`" in hits[0].message


# -- planted violations (acceptance criterion) --------------------------------------


def test_planted_violations_fail_with_correct_ids(tmp_path, capsys):
    scratch = write_tree(
        tmp_path,
        "repro/qbss/_scratch.py",
        """
        import os
        import random
        import time


        def bad_algo(qi, extra, alpha=2.0):
            return extra


        ALGORITHMS = {"bad": bad_algo}


        def _bad_worker(task, attempt):
            os.environ.get("HOME")
            try:
                return time.time(), random.random()
            except:
                return None


        def run(tasks, execute_hardened):
            return execute_hardened(tasks, worker=_bad_worker)
        """,
    )
    write_tree(
        tmp_path,
        "repro/bounds/_scratch.py",
        """
        def verdict(ratio):
            doc = {"kind": "qbss", "ratio": ratio}
            return ratio == 1.0 / 3.0, doc
        """,
    )
    write_tree(
        tmp_path,
        "repro/serve/_scratch.py",
        """
        import socket
        import threading


        class Gauge:
            def __init__(self):
                self._lock = threading.Lock()
                self.total = 0

            def bump(self):
                self.total += 1


        def _feed(gauge: Gauge) -> None:
            gauge.bump()


        def main():
            gauge = Gauge()
            threading.Thread(target=_feed, args=(gauge,)).start()
            gauge.bump()
            done = threading.Event()
            done.wait()
            conn = socket.create_connection(("localhost", 1))
            conn.recv(1)
        """,
    )
    code = lint_main([str(tmp_path), "--baseline", "none"])
    out = capsys.readouterr().out
    assert code == 1
    for rule in RULE_IDS:
        assert rule in out, f"{rule} missing from planted-violation output:\n{out}"
    # findings carry file:line:col anchors
    assert f"{scratch}".split("/")[-1].replace(".py", "") or True
    for line in out.splitlines():
        if ": QL" in line:
            location = line.split(": QL")[0]
            parts = location.rsplit(":", 2)
            assert len(parts) == 3 and parts[1].isdigit() and parts[2].isdigit(), line


# -- suppression --------------------------------------------------------------------


def test_trailing_suppression_honored(tmp_path):
    write_tree(
        tmp_path,
        "repro/bounds/v.py",
        """
        def verdict(r):
            return r == 1.0  # qbss-lint: disable=QL005
        """,
    )
    run = lint_paths([tmp_path], root=tmp_path)
    assert run.findings == []
    assert [f.rule for f in run.suppressed] == ["QL005"]


def test_standalone_suppression_applies_to_next_line(tmp_path):
    write_tree(
        tmp_path,
        "repro/bounds/v.py",
        """
        def verdict(r):
            # qbss-lint: disable=QL005
            return r == 1.0
        """,
    )
    run = lint_paths([tmp_path], root=tmp_path)
    assert run.findings == []


def test_file_wide_suppression(tmp_path):
    write_tree(
        tmp_path,
        "repro/bounds/v.py",
        """
        # qbss-lint: disable-file=QL005
        def verdict(r):
            return r == 1.0 and r != 2.0
        """,
    )
    run = lint_paths([tmp_path], root=tmp_path)
    assert run.findings == []
    assert len(run.suppressed) == 2


def test_suppression_of_other_rule_does_not_mask(tmp_path):
    write_tree(
        tmp_path,
        "repro/bounds/v.py",
        """
        def verdict(r):
            return r == 1.0  # qbss-lint: disable=QL001
        """,
    )
    run = lint_paths([tmp_path], root=tmp_path)
    assert [f.rule for f in run.findings] == ["QL005"]


def test_directive_inside_string_is_inert(tmp_path):
    write_tree(
        tmp_path,
        "repro/bounds/v.py",
        '''
        DOC = """how to silence: # qbss-lint: disable-file=QL005"""


        def verdict(r):
            return r == 1.0
        ''',
    )
    run = lint_paths([tmp_path], root=tmp_path)
    assert [f.rule for f in run.findings] == ["QL005"]


def test_suppressions_scanner_shapes():
    supp = Suppressions.scan(
        "x = 1  # qbss-lint: disable=QL001,QL005\n"
        "# qbss-lint: disable=all\n"
        "y = 2\n"
    )
    assert supp.is_suppressed("QL001", 1)
    assert supp.is_suppressed("QL005", 1)
    assert not supp.is_suppressed("QL002", 1)
    assert supp.is_suppressed("QL002", 3)  # "all" on the next code line


# -- baseline -----------------------------------------------------------------------


def test_baseline_roundtrip_and_diffing(tmp_path):
    tree = tmp_path / "case"
    write_tree(
        tree,
        "repro/bounds/v.py",
        """
        def verdict(r):
            return r == 1.0
        """,
    )
    run = lint_paths([tree], root=tree)
    assert len(run.findings) == 1

    baseline_path = tmp_path / "baseline.json"
    Baseline.write(baseline_path, run.findings, justification="grandfathered")
    baseline = Baseline.load(baseline_path)
    new, old = run.partition(baseline)
    assert new == [] and len(old) == 1

    # A *different* finding in the same file is still new.
    write_tree(
        tree,
        "repro/bounds/v.py",
        """
        def verdict(r):
            return r == 1.0


        def verdict2(r):
            return r != 2.5
        """,
    )
    run2 = lint_paths([tree], root=tree)
    new2, old2 = run2.partition(baseline)
    assert len(old2) == 1 and len(new2) == 1


def test_baseline_fingerprint_survives_line_drift(tmp_path):
    tree = tmp_path / "case"
    write_tree(
        tree,
        "repro/bounds/v.py",
        """
        def verdict(r):
            return r == 1.0
        """,
    )
    run = lint_paths([tree], root=tree)
    baseline_path = tmp_path / "baseline.json"
    Baseline.write(baseline_path, run.findings)
    write_tree(
        tree,
        "repro/bounds/v.py",
        """
        # a new leading comment shifts every line number
        # by three lines, but the offending line is unchanged
        # so the fingerprint must survive.
        def verdict(r):
            return r == 1.0
        """,
    )
    run2 = lint_paths([tree], root=tree)
    new, old = run2.partition(Baseline.load(baseline_path))
    assert new == [] and len(old) == 1


def test_malformed_baseline_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "baseline.json"
    bad.write_text('{"kind": "something_else", "version": 1}')
    write_tree(tmp_path, "repro/bounds/v.py", "x = 1\n")
    code = lint_main([str(tmp_path), "--baseline", str(bad)])
    assert code == 2
    assert "baseline" in capsys.readouterr().err


# -- JSON schema stability ----------------------------------------------------------


def test_json_report_schema_is_stable():
    run = run_fixture("QL005", "bad")
    doc = json.loads(render_json(run, run.findings, []))
    assert sorted(doc) == ["findings", "kind", "rules", "summary", "tool", "version"]
    assert doc["kind"] == "qbss_lint_report"
    assert doc["version"] == 1
    assert sorted(doc["summary"]) == ["baselined", "files", "new", "suppressed"]
    for finding in doc["findings"]:
        assert sorted(finding) == [
            "col",
            "fingerprint",
            "line",
            "message",
            "path",
            "rule",
            "severity",
            "status",
        ]
        assert finding["status"] in ("new", "baselined", "suppressed")
    rule_meta = doc["rules"]["QL005"]
    assert sorted(rule_meta) == ["rationale", "severity", "title"]


def test_rule_catalog_is_complete_and_stable():
    rules = all_rules()
    assert [r.rule_id for r in rules] == RULE_IDS
    for rule in rules:
        assert rule.title and rule.rationale
        assert rule.severity in ("error", "warning")


# -- CLI ----------------------------------------------------------------------------


def test_cli_exit_zero_on_clean_tree(tmp_path, capsys):
    write_tree(tmp_path, "repro/bounds/clean.py", "X = 1\n")
    assert lint_main([str(tmp_path), "--baseline", "none"]) == 0
    assert "0 new" in capsys.readouterr().out


def test_cli_exit_one_on_new_finding(tmp_path, capsys):
    write_tree(
        tmp_path,
        "repro/bounds/v.py",
        """
        def verdict(r):
            return r == 1.0
        """,
    )
    assert lint_main([str(tmp_path), "--baseline", "none"]) == 1
    assert "QL005" in capsys.readouterr().out


def test_cli_write_baseline_then_clean(tmp_path, capsys):
    write_tree(
        tmp_path,
        "repro/bounds/v.py",
        """
        def verdict(r):
            return r == 1.0
        """,
    )
    baseline = tmp_path / "b.json"
    assert lint_main([str(tmp_path), "--baseline", str(baseline), "--write-baseline"]) == 0
    assert baseline.exists()
    capsys.readouterr()
    assert lint_main([str(tmp_path), "--baseline", str(baseline)]) == 0
    assert "1 baselined" in capsys.readouterr().out


def test_cli_select_and_ignore(tmp_path, capsys):
    write_tree(
        tmp_path,
        "repro/bounds/v.py",
        """
        def verdict(r):
            return r == 1.0
        """,
    )
    assert lint_main([str(tmp_path), "--baseline", "none", "--select", "QL001"]) == 0
    capsys.readouterr()
    assert lint_main([str(tmp_path), "--baseline", "none", "--ignore", "QL005"]) == 0
    capsys.readouterr()
    assert lint_main([str(tmp_path), "--baseline", "none", "--select", "QL999"]) == 2


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    assert lint_main([str(tmp_path / "nope.py"), "--baseline", "none"]) == 2


def test_cli_json_output_to_file(tmp_path):
    write_tree(tmp_path, "repro/bounds/clean.py", "X = 1\n")
    out = tmp_path / "report.json"
    code = lint_main(
        [str(tmp_path), "--baseline", "none", "--format", "json", "--output", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "qbss_lint_report"


def test_cli_sarif_output_schema(tmp_path):
    write_tree(
        tmp_path,
        "repro/bounds/v.py",
        """
        def verdict(r):
            return r == 1.0
        """,
    )
    out = tmp_path / "report.sarif"
    code = lint_main(
        [str(tmp_path), "--baseline", "none", "--format", "sarif", "--output", str(out)]
    )
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["version"] == "2.1.0"
    assert "sarif-2.1.0" in doc["$schema"]
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "qbss-lint"
    rule_ids = [r["id"] for r in driver["rules"]]
    assert rule_ids == RULE_IDS
    result = next(r for r in run["results"] if r["ruleId"] == "QL005")
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("v.py")
    assert location["region"]["startLine"] >= 1
    assert "qbssLintFingerprint/v1" in result["partialFingerprints"]
    assert "suppressions" not in result


def test_cli_sarif_marks_baselined_as_suppressed(tmp_path):
    write_tree(
        tmp_path,
        "repro/bounds/v.py",
        """
        def verdict(r):
            return r == 1.0
        """,
    )
    baseline = tmp_path / "b.json"
    assert lint_main([str(tmp_path), "--baseline", str(baseline), "--write-baseline"]) == 0
    out = tmp_path / "report.sarif"
    code = lint_main(
        [
            str(tmp_path),
            "--baseline",
            str(baseline),
            "--format",
            "sarif",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    result = next(
        r for r in doc["runs"][0]["results"] if r["ruleId"] == "QL005"
    )
    assert result["suppressions"] == [{"kind": "external"}]


def _git(tmp_path, *args):
    subprocess.run(
        ["git", *args],
        cwd=tmp_path,
        check=True,
        capture_output=True,
        env={
            "PATH": "/usr/bin:/bin",
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(tmp_path),
        },
    )


def test_cli_changed_scopes_report_to_touched_files(tmp_path, monkeypatch, capsys):
    bad = """
    def verdict(r):
        return r == 1.0
    """
    write_tree(tmp_path, "repro/bounds/old.py", bad)
    write_tree(tmp_path, "repro/bounds/stale.py", bad)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "seed")
    # One tracked file modified, one brand-new untracked file; stale.py
    # is untouched and must stay out of the report.
    write_tree(tmp_path, "repro/bounds/old.py", bad + "\nX = 1\n")
    write_tree(tmp_path, "repro/bounds/fresh.py", bad)
    monkeypatch.chdir(tmp_path)
    code = lint_main(["repro", "--baseline", "none", "--changed", "HEAD"])
    out = capsys.readouterr().out
    assert code == 1
    assert "old.py" in out
    assert "fresh.py" in out
    assert "stale.py" not in out


def test_cli_changed_with_bad_ref_is_usage_error(tmp_path, monkeypatch, capsys):
    write_tree(tmp_path, "repro/bounds/clean.py", "X = 1\n")
    _git(tmp_path, "init", "-q")
    monkeypatch.chdir(tmp_path)
    assert (
        lint_main(["repro", "--baseline", "none", "--changed", "no-such-ref"])
        == 2
    )


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULE_IDS:
        assert rule in out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint.cli", "--list-rules"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "QL001" in proc.stdout


def test_syntax_error_becomes_ql000(tmp_path):
    write_tree(tmp_path, "repro/broken.py", "def oops(:\n")
    run = lint_paths([tmp_path], root=tmp_path)
    assert [f.rule for f in run.findings] == ["QL000"]


# -- live-tree meta-test (acceptance criterion) -------------------------------------


def test_live_tree_is_lint_clean_modulo_baseline():
    """`qbss-lint src/repro` has no new findings on the committed tree."""
    src = REPO_ROOT / "src" / "repro"
    baseline_path = REPO_ROOT / ".qbss-lint-baseline.json"
    run = lint_paths([src], root=REPO_ROOT)
    baseline = Baseline.load(baseline_path)
    new, baselined = run.partition(baseline)
    assert new == [], "new lint findings in the live tree:\n" + "\n".join(
        f.render() for f in new
    )
    # The baseline stays short and every entry is justified.
    assert len(baseline.entries) <= 5
    for entry in baseline.entries.values():
        assert entry.justification.strip(), f"unjustified baseline entry {entry}"


def test_live_baseline_entries_all_still_exist():
    """Baseline entries must die with the finding they grandfather."""
    src = REPO_ROOT / "src" / "repro"
    run = lint_paths([src], root=REPO_ROOT)
    live = {f.fingerprint for f in run.findings}
    baseline = Baseline.load(REPO_ROOT / ".qbss-lint-baseline.json")
    stale = set(baseline.entries) - live
    assert not stale, f"baseline entries no longer needed: {stale}"
