"""The benchmark's own tests: every workload, every output check and the
traced run, on tiny inputs, in seconds.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_names_units_and_checks(workload: str, trace: str) -> None:
    """The metric names and units printed are exactly BENCHMARK.json's,
    and every output check passes."""
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--tiny")
    result = result_line(proc)
    section = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    assert result["correct"], proc.stderr[-2000:]
    for name, unit in expected.items():
        assert f"{name} " in proc.stdout and unit in proc.stdout
    if trace == "0":
        assert all(result["metrics"][m]["value"] > 0 for m in expected)
    if workload != "serve":
        assert result["failed"] == 0


def test_replay_workloads_print_identical_reports() -> None:
    """Re-running the replay workloads on one seed compares their reports
    with the digest the first run recorded; all must agree."""
    for workload in ("replay_cold", "replay_warm", "replay_remote"):
        proc = bench("--workload", workload, "--seed", "11", "--seconds", "1",
                     "--trace", "0", "--tiny")
        assert result_line(proc)["correct"], proc.stderr[-2000:]


def test_serve_counts_the_old_log_failures() -> None:
    """The old-log submissions fail (the known defect) and are counted."""
    proc = bench("--workload", "serve", "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--tiny")
    result = result_line(proc)
    assert result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert result["metrics"]["success_ratio"]["value"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command fails without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "replay_cold", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
