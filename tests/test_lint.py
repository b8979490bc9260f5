"""qbss-lint: fixture-based rule tests, inline suppressions, fingerprints,
JSON/SARIF schema stability, CLI exit codes, and the live-tree meta-test.

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

from repro.lint import all_rules, lint_paths
from repro.lint.cli import main as lint_main
from repro.lint.engine import render_json
from repro.lint.suppress import Suppressions

FIXTURES = Path(__file__).parent / "data" / "lint"
REPO_ROOT = Path(__file__).resolve().parent.parent

RULE_IDS = ["QL003", "QL005", "QL007", "QL009"]

#: Retired rule IDs: reserved, never reused, and a usage error to select.
RETIRED_IDS = ["QL001", "QL002", "QL004", "QL006", "QL008", "QL010", "QL011"]


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
    write_tree(
        tmp_path,
        "repro/qbss/_scratch.py",
        """
        import os


        def _bad_worker(task, attempt):
            return os.environ.get("HOME")


        def run(tasks, execute_hardened):
            return execute_hardened(tasks, worker=_bad_worker)
        """,
    )
    write_tree(
        tmp_path,
        "repro/bounds/_scratch.py",
        """
        def verdict(ratio):
            return ratio == 1.0 / 3.0
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
    code = lint_main([str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    for rule in RULE_IDS:
        assert rule in out, f"{rule} missing from planted-violation output:\n{out}"
    # findings carry file:line:col anchors
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
            return r == 1.0  # qbss-lint: disable=QL009
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
        "x = 1  # qbss-lint: disable=QL003,QL005\n"
        "# qbss-lint: disable=all\n"
        "y = 2\n"
    )
    assert supp.is_suppressed("QL003", 1)
    assert supp.is_suppressed("QL005", 1)
    assert not supp.is_suppressed("QL007", 1)
    assert supp.is_suppressed("QL007", 3)  # "all" on the next code line


# -- fingerprints -------------------------------------------------------------------


def test_fingerprint_survives_line_drift(tmp_path):
    """SARIF alert identity keys on the fingerprint: shifting a finding's
    line keeps it, and a second finding on an identical line gets its own."""
    write_tree(
        tmp_path,
        "repro/bounds/v.py",
        """
        def verdict(r):
            return r == 1.0
        """,
    )
    (before,) = lint_paths([tmp_path], root=tmp_path).findings
    write_tree(
        tmp_path,
        "repro/bounds/v.py",
        """
        # a new leading comment shifts every line number
        # by three lines, but the offending line is unchanged
        # so the fingerprint must survive.
        def verdict(r):
            return r == 1.0


        def verdict2(r):
            return r == 1.0
        """,
    )
    after = lint_paths([tmp_path], root=tmp_path).findings
    assert [f.line for f in after] == [before.line + 3, before.line + 7]
    assert after[0].fingerprint == before.fingerprint
    assert after[1].fingerprint != before.fingerprint


# -- JSON schema stability ----------------------------------------------------------


def test_json_report_schema_is_stable():
    run = run_fixture("QL005", "bad")
    doc = json.loads(render_json(run))
    assert sorted(doc) == ["findings", "kind", "rules", "summary", "tool", "version"]
    assert doc["kind"] == "qbss_lint_report"
    assert doc["version"] == 2
    assert sorted(doc["summary"]) == ["files", "new", "suppressed"]
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
        assert finding["status"] in ("new", "suppressed")
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
    assert lint_main([str(tmp_path)]) == 0
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
    assert lint_main([str(tmp_path)]) == 1
    assert "QL005" in capsys.readouterr().out


def test_cli_select_and_ignore(tmp_path, capsys):
    write_tree(
        tmp_path,
        "repro/bounds/v.py",
        """
        def verdict(r):
            return r == 1.0
        """,
    )
    assert lint_main([str(tmp_path), "--select", "QL009"]) == 0
    capsys.readouterr()
    assert lint_main([str(tmp_path), "--ignore", "QL005"]) == 0
    capsys.readouterr()
    assert lint_main([str(tmp_path), "--select", "QL999"]) == 2
    for rule in RETIRED_IDS:
        assert lint_main([str(tmp_path), "--select", rule]) == 2, rule
        assert f"unknown rule ids: {rule}" in capsys.readouterr().err


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    assert lint_main([str(tmp_path / "nope.py")]) == 2


def test_cli_json_output_to_file(tmp_path):
    write_tree(tmp_path, "repro/bounds/clean.py", "X = 1\n")
    out = tmp_path / "report.json"
    code = lint_main(
        [str(tmp_path), "--format", "json", "--output", str(out)]
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
        [str(tmp_path), "--format", "sarif", "--output", str(out)]
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


def test_cli_sarif_marks_inline_suppressed_in_source(tmp_path):
    write_tree(
        tmp_path,
        "repro/bounds/v.py",
        """
        def verdict(r):
            return r == 1.0  # qbss-lint: disable=QL005
        """,
    )
    out = tmp_path / "report.sarif"
    code = lint_main(
        [
            str(tmp_path),
            "--show-suppressed",
            "--format",
            "sarif",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    (result,) = doc["runs"][0]["results"]
    assert result["ruleId"] == "QL005"
    assert result["suppressions"] == [{"kind": "inSource"}]


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
    code = lint_main(["repro", "--changed", "HEAD"])
    out = capsys.readouterr().out
    assert code == 1
    assert "old.py" in out
    assert "fresh.py" in out
    assert "stale.py" not in out


def test_cli_changed_with_bad_ref_is_usage_error(tmp_path, monkeypatch, capsys):
    write_tree(tmp_path, "repro/bounds/clean.py", "X = 1\n")
    _git(tmp_path, "init", "-q")
    monkeypatch.chdir(tmp_path)
    assert lint_main(["repro", "--changed", "no-such-ref"]) == 2


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
    assert "QL003" in proc.stdout


def test_syntax_error_becomes_ql000(tmp_path):
    write_tree(tmp_path, "repro/broken.py", "def oops(:\n")
    run = lint_paths([tmp_path], root=tmp_path)
    assert [f.rule for f in run.findings] == ["QL000"]


# -- live-tree meta-test (acceptance criterion) -------------------------------------


def test_live_tree_is_lint_clean():
    """`qbss-lint src/repro` has no findings on the committed tree."""
    run = lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
    assert run.findings == [], "lint findings in the live tree:\n" + "\n".join(
        f.render() for f in run.findings
    )
