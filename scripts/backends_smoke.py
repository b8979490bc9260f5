#!/usr/bin/env python
"""End-to-end smoke of the remote execution backend.

Starts two real ``qbss-worker`` processes (port-file handshake on
127.0.0.1:0), then runs the ``qbss-replay`` console entry point three
times over the same generated trace and asserts

* ``--backend serial`` and ``--backend remote:@w0,@w1`` serialize
  byte-identical replay reports (``--output`` JSON compared as bytes),
* the remote run under a ``QBSS_FAULT_PLAN`` that SIGKILLs the worker
  evaluating shard 1 on its first attempt *still* produces the same
  bytes — the link failure becomes a transient crash outcome and the
  retry lands on the surviving worker,
* exactly one worker actually died under the kill plan (the fault was
  injected remotely, not simulated driver-side).

Worker stderr logs land in ``backends-smoke-artifacts/`` so the CI
``backends`` job can upload them on failure.  Exit code 0 = all
assertions held.  Also runnable locally:
``python scripts/backends_smoke.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine.faults import FAULT_PLAN_ENV, FaultPlan, FaultSpec  # noqa: E402

ARTIFACTS = REPO_ROOT / "backends-smoke-artifacts"
SHARD_WINDOW = 2.0


def write_trace(path: Path) -> None:
    """A release-sorted CSV spanning five 2.0-wide shard windows."""
    lines = ["release,deadline,runtime"]
    for i in range(18):
        release = i * 0.5
        lines.append(f"{release},{release + 4.0},1.25")
    path.write_text("\n".join(lines) + "\n")


def start_worker(name: str, env: dict) -> tuple[subprocess.Popen, Path]:
    port_file = ARTIFACTS / f"{name}.port"
    # A port file an earlier run left behind names a dead worker; the
    # readiness wait below must only see the one this worker writes.
    port_file.unlink(missing_ok=True)
    log = open(ARTIFACTS / f"{name}.log", "w")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.engine.backends.worker",
            "--bind", "127.0.0.1:0",
            "--port-file", str(port_file),
            "--no-cache",
        ],
        env=env,
        cwd=REPO_ROOT,
        stderr=log,
    )
    return proc, port_file


def wait_for_port_file(path: Path, proc: subprocess.Popen, timeout: float = 30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"worker died during startup (exit {proc.returncode})")
        if path.exists() and path.read_text().strip():
            return
        time.sleep(0.05)
    raise RuntimeError("worker did not write its port file in time")


def run_replay(trace: Path, out: Path, backend: str, env: dict) -> None:
    subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.cli import _replay_main; import sys; "
            "sys.exit(_replay_main(sys.argv[1:]))",
            str(trace),
            "--shard-window", str(SHARD_WINDOW),
            "--jobs", "2",
            "--no-cache",
            "--backend", backend,
            "--output", str(out),
        ],
        env=env,
        cwd=REPO_ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
    )


def main() -> int:
    ARTIFACTS.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env.pop(FAULT_PLAN_ENV, None)
    trace = ARTIFACTS / "trace.csv"
    write_trace(trace)

    run_replay(trace, ARTIFACTS / "serial.json", "serial", env)
    serial = (ARTIFACTS / "serial.json").read_bytes()

    workers = [start_worker(f"w{i}", env) for i in range(2)]
    try:
        for proc, port_file in workers:
            wait_for_port_file(port_file, proc)
        spec = "remote:" + ",".join(f"@{pf}" for _, pf in workers)

        run_replay(trace, ARTIFACTS / "remote.json", spec, env)
        assert (ARTIFACTS / "remote.json").read_bytes() == serial, (
            "remote replay diverged from serial"
        )
        print("smoke: serial and remote reports byte-identical")

        # Same run, but the worker that picks up shard 1 is SIGKILLed on
        # its first attempt; the retry must land on the survivor and the
        # report must not change by a byte.
        plan = FaultPlan((FaultSpec(task="shard:1", kind="kill", attempt=1),))
        kill_env = dict(env, **{FAULT_PLAN_ENV: plan.to_json()})
        run_replay(trace, ARTIFACTS / "remote-kill.json", spec, kill_env)
        assert (ARTIFACTS / "remote-kill.json").read_bytes() == serial, (
            "kill-mid-shard remote replay diverged from serial"
        )
        time.sleep(0.2)  # let the SIGKILL'd worker get reaped
        dead = [proc for proc, _ in workers if proc.poll() is not None]
        assert len(dead) == 1, (
            f"expected exactly one killed worker, found {len(dead)} dead"
        )
        print("smoke: kill-mid-shard report byte-identical, one worker down")
        return 0
    finally:
        for proc, _ in workers:
            if proc.poll() is None:
                proc.kill()
        for proc, _ in workers:
            proc.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
