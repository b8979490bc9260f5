"""Shared plumbing of the benchmark: checkout layout, sizes, generated
inputs, program processes and their resource accounting, statistics.

The benchmark observes the program from outside.  Everything here either
builds an input the program receives (a trace file, a stream of job
submissions) or starts, waits for and accounts for a program process.
Nothing is written outside the checkout: every file lives under
``.bench_work/`` and child processes get ``TMPDIR`` pointed there too.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: Bumped whenever a workload, a metric definition or a size changes, so
#: numbers recorded under different definitions are never compared.
DEFINITION_VERSION = 1

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Times each run sets its workload up; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Trace time of one shard window (the CLI and daemon default: an hour).
SHARD_WINDOW = 3600.0

#: Jobs per ``qbss-serve`` submission: a ~20-job slice of a continuing
#: stream is about one shard window at the generator's arrival rate.
SUBMISSION_JOBS = 20

#: Every ``OLD_LOG_EVERY``-th submission is shifted this far into its
#: log.  Past 2**24 s (~194 days) AVRQ fails shards with "EDF infeasible"
#: (see README.md, "Known defect"); the shift keeps that defect visible in
#: ``success_ratio`` instead of hiding it.
OLD_LOG_EVERY = 10
OLD_LOG_OFFSET = 1.7e7

#: Submissions sent to a fresh daemon before timing starts.  Its first
#: evaluation imports the algorithm modules, a cost a long-lived daemon
#: pays once, not per request.
SERVE_WARMUP = 2


@dataclass(frozen=True)
class Sizes:
    """How much input a run generates.  ``tiny`` exists for the tests."""

    trace_jobs: int
    serve_min_submissions: int
    serve_single_submissions: int
    serve_sample_every: int
    import_repeats: int


FULL = Sizes(
    trace_jobs=10_000,
    serve_min_submissions=1_000,
    serve_single_submissions=200,
    serve_sample_every=25,
    import_repeats=3,
)
TINY = Sizes(
    trace_jobs=300,
    serve_min_submissions=20,
    serve_single_submissions=10,
    serve_sample_every=5,
    import_repeats=1,
)

#: Nominal seconds one operation takes on the reference machine
#: (reference.json).  ``--seconds`` sizes a run as a fixed number of
#: operations, ``round(seconds / nominal)``, so the same arguments always do
#: the same work and the counts repeat exactly.
NOMINAL_OP_S = {
    "replay_cold": 7.0,
    "replay_warm": 1.6,
    "serve": 0.01,
    "replay_remote": 7.0,
}


def operations(workload: str, seconds: int, sizes: Sizes) -> int:
    n = max(1, round(seconds / NOMINAL_OP_S[workload]))
    if workload == "serve":
        n = max(n, sizes.serve_min_submissions)
    return n


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed set-up)."""


def check_checkout() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program sources at {SRC / 'repro'}; run from the root of "
            "a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def new_run_dir(tag: str) -> Path:
    path = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    (path / "tmp").mkdir(parents=True)
    return path


def program_env(run_dir: Path) -> dict[str, str]:
    """The environment of every program process.

    The program is imported from the checkout's ``src``.  The fault
    harness and the lock sanitizer are switched off, because the benchmark
    measures a fault-free production run.  BLAS thread settings are left
    exactly as found (see :func:`machine_record`).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(run_dir / "tmp")
    for name in ("QBSS_FAULT_PLAN", "QBSS_LOCKWATCH", "QBSS_CACHE_DIR"):
        env.pop(name, None)
    return env


BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def machine_record() -> dict:
    """Where the numbers come from: CPU, versions, BLAS thread env."""
    import platform

    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        blas_info = config["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        # Without a bytecode cache every CLI start compiles its imports.
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def steal_ticks() -> int:
    """CPU time the hypervisor gave to other guests (``/proc/stat``).

    Reported beside the results, never folded into them: on a shared host
    it explains run-to-run drift the benchmark cannot remove.
    """
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


# -- generated inputs ---------------------------------------------------------------


def write_trace(path: Path, n_jobs: int, seed: int) -> Path:
    """The replay workloads' input: a synthetic SWF log of ``n_jobs``.

    At the generator's default arrival rate 10k jobs span about a week,
    i.e. ~140 one-hour shards of ~70 jobs.
    """
    from repro.workloads.tracegen import write_synthetic_swf

    return write_synthetic_swf(path, n_jobs, seed=seed)


def expected_shards(path: Path) -> tuple[int, int]:
    """(records, distinct shard windows) of a generated SWF, counted
    independently of the program's parser and sharder."""
    records = 0
    windows = set()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith(";") or not line.strip():
                continue
            release = float(line.split()[1])
            records += 1
            windows.add(int(release // SHARD_WINDOW))
    return records, len(windows)


def serve_stream(n_submissions: int, seed: int, run_dir: Path) -> list[list[dict]]:
    """``n_submissions`` consecutive 20-job slices of one synthetic stream.

    Each slice is one submission body's job requests.  Every
    ``OLD_LOG_EVERY``-th slice is moved ``OLD_LOG_OFFSET`` seconds later,
    as if it came from a log older than 2**24 s.
    """
    from repro.traces.swf import parse_swf

    path = write_trace(
        run_dir / "stream.swf", n_submissions * SUBMISSION_JOBS, seed
    )
    records = list(parse_swf(path))
    submissions = []
    for i in range(n_submissions):
        offset = OLD_LOG_OFFSET if i % OLD_LOG_EVERY == OLD_LOG_EVERY - 1 else 0.0
        chunk = records[i * SUBMISSION_JOBS:(i + 1) * SUBMISSION_JOBS]
        submissions.append(
            [
                {
                    "id": r.id,
                    "release": r.release + offset,
                    "runtime": r.runtime,
                    "requested": r.requested,
                }
                for r in chunk
            ]
        )
    return submissions


def submission_body(jobs: list[dict]) -> str:
    """The JSONL body ``serve.Client.submit`` sends for ``jobs``."""
    return "".join(json.dumps(job, sort_keys=True) + "\n" for job in jobs)


# -- program processes --------------------------------------------------------------


REPLAY_ENTRY = (
    "import sys; from repro.cli import replay_main; "
    "sys.exit(replay_main(sys.argv[1:]))"
)


@dataclass
class Finished:
    """One program invocation, waited for with ``wait4``."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: str


def run_program(
    argv: list[str], *, cwd: Path, env: dict[str, str], timeout: float = 170.0
) -> Finished:
    """Run one program invocation to completion.

    ``wait4`` returns the child's own resource usage together with that of
    the descendants it waited for (its pool workers), so CPU time and peak
    resident set cover the whole process tree of the invocation.
    """
    out_path = cwd / f".out{os.getpid()}"
    err_path = cwd / f".err{os.getpid()}"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes()
    stderr = err_path.read_text(errors="replace")
    out_path.unlink()
    err_path.unlink()
    return Finished(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        stderr=stderr,
    )


def replay_argv(trace: str, cache_dir: Path, output: str, *extra: str) -> list[str]:
    """``qbss-replay`` as a user runs it: its console entry point."""
    return [
        sys.executable,
        "-c",
        REPLAY_ENTRY,
        trace,
        "--jobs",
        "2",
        "--cache-dir",
        str(cache_dir),
        "--output",
        output,
        *extra,
    ]


class Daemon:
    """A long-lived program process (``qbss-serve`` or ``qbss-worker``)
    that announces its address through a port file."""

    def __init__(self, argv: list[str], *, port_file: Path, log: Path, env: dict):
        self.port_file = port_file
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            argv, cwd=port_file.parent, env=env,
            stdout=subprocess.DEVNULL, stderr=self._log,
        )

    def wait_ready(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(
                    f"{self.proc.args[2]} exited during start-up "
                    f"(code {self.proc.returncode})"
                )
            if self.port_file.exists():
                text = self.port_file.read_text().strip()
                if text:
                    return text
            time.sleep(0.005)
        raise BenchError("program did not write its port file in time")

    def cpu_s(self) -> float:
        """User+sys CPU of the process and its waited-for children."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        ticks = sum(int(fields[i]) for i in (11, 12, 13, 14))
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (graceful drain), then SIGKILL if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode


def serve_argv(port_file: Path, cache_dir: Path, journal: Path) -> list[str]:
    """``qbss-serve`` with its defaults plus a journal."""
    return [
        sys.executable, "-m", "repro.serve.cli",
        "--bind", "127.0.0.1:0",
        "--port-file", str(port_file),
        "--cache-dir", str(cache_dir),
        "--journal", str(journal),
    ]


def worker_argv(port_file: Path, cache_dir: Path) -> list[str]:
    return [
        sys.executable, "-m", "repro.engine.backends.worker",
        "--bind", "127.0.0.1:0",
        "--port-file", str(port_file),
        "--cache-dir", str(cache_dir),
    ]


def empty_dir(path: Path) -> Path:
    """Remove everything under ``path`` and recreate it empty."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# -- statistics ---------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    pos = (q / 100.0) * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
