"""The four workloads, run untraced, and the checks on their outputs.

Each ``run_*`` function sets its workload up ``SETUP_REPEATS`` times,
performs a fixed number of operations against real program processes and
returns an :class:`Outcome`: the raw measurements the end-to-end metrics
are computed from, plus every output check that failed.  Failed
operations (a shard with status ``error``/``timeout``, a rejected or
partly failed submission) are counted, not treated as check failures.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    OLD_LOG_EVERY,
    SERVE_WARMUP,
    SETUP_REPEATS,
    SRC,
    WORK,
    BenchError,
    Daemon,
    Sizes,
    empty_dir,
    expected_shards,
    percentile,
    program_env,
    replay_argv,
    run_program,
    serve_argv,
    serve_stream,
    submission_body,
    worker_argv,
    write_trace,
)

EVALUATED = ("ok", "degraded")


@dataclass
class Outcome:
    """Raw measurements of one untraced run."""

    setup_s: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    goodput_jobs: int = 0
    attempted: int = 0
    failed: int = 0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)

    def end_to_end(self) -> dict[str, float]:
        if not self.latencies_s:
            raise BenchError(f"no operation succeeded: {self.problems[:3]}")
        goodput = max(self.goodput_jobs, 1)
        return {
            "setup_s": statistics.median(self.setup_s),
            "jobs_per_s": self.goodput_jobs / self.wall_s,
            "latency_p50_ms": statistics.median(self.latencies_s) * 1000.0,
            "success_ratio": 1.0 - self.failed / max(self.attempted, 1),
            "cpu_s_per_kjob": self.cpu_s / (goodput / 1000.0),
            "peak_rss_mb": self.peak_rss_mb,
        }


# -- report checks ------------------------------------------------------------------


def check_report(path: Path, records: int, windows: int) -> tuple[list[dict], list[str]]:
    """Shards of a ``--output`` report, and what is wrong with it.

    Every evaluated shard row must lie within the paper's energy bound;
    the report must cover every generated job and every shard window.
    """
    problems = []
    doc = json.loads(path.read_text())
    shards = doc["shards"]
    n_jobs = sum(int(s.get("n_jobs", 0)) for s in shards)
    if n_jobs != records:
        problems.append(f"{path.name}: {n_jobs} jobs reported, {records} generated")
    if len(shards) != windows:
        problems.append(f"{path.name}: {len(shards)} shards, {windows} windows")
    for shard in shards:
        if shard.get("status", "ok") not in EVALUATED:
            continue
        for row in shard.get("rows") or []:
            if row.get("within_bound") is not True:
                problems.append(
                    f"{path.name}: shard {shard['index']} {row['algorithm']} "
                    f"energy ratio {row['energy_ratio']} outside the paper bound"
                )
    return shards, problems


def source_digest() -> str:
    """Content hash of the program's sources (keys the report registry)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_cross_workload(seed: int, sizes: Sizes, stdout: bytes) -> list[str]:
    """The replay workloads must print byte-identical reports for a seed.

    The first replay run of a seed (any of ``replay_cold``,
    ``replay_warm``, ``replay_remote``) records its report's digest in the
    checkout; every later run of the same seed and program sources must
    print the same bytes.
    """
    registry = WORK / "report-digests"
    registry.mkdir(parents=True, exist_ok=True)
    entry = registry / f"{source_digest()}-{sizes.trace_jobs}-{seed}.sha256"
    digest = hashlib.sha256(stdout).hexdigest()
    if not entry.exists():
        tmp = entry.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(digest)
        tmp.replace(entry)
        return []
    recorded = entry.read_text().strip()
    if recorded != digest:
        return [f"report differs from an earlier replay workload of seed {seed}"]
    return []


_FOOTER = re.compile(r"(\d+) hit / (\d+) miss")


def tally(outcome: Outcome, shards: list[dict], wall: float) -> None:
    outcome.latencies_s.append(wall)
    outcome.wall_s += wall
    outcome.attempted += len(shards)
    for shard in shards:
        if shard.get("status", "ok") in EVALUATED:
            outcome.goodput_jobs += int(shard.get("n_jobs", 0))
        else:
            outcome.failed += 1


def timed_replays(
    outcome: Outcome,
    run_dir: Path,
    caches: list[Path],
    records: int,
    windows: int,
    env: dict,
    *,
    backend: str | None = None,
    workers: list[Daemon] = (),
    warm: bool = False,
) -> list[bytes]:
    """Run one ``qbss-replay`` per cache directory; returns the stdouts."""
    stdouts = []
    for i, cache in enumerate(caches):
        extra = ("--backend", backend) if backend else ()
        before = sum(w.cpu_s() for w in workers)
        done = run_program(
            replay_argv("trace.swf", cache, f"report-{i}.json", *extra),
            cwd=run_dir,
            env=env,
        )
        worker_cpu = sum(w.cpu_s() for w in workers) - before
        if done.code != 0:
            outcome.problems.append(
                f"qbss-replay exited {done.code}: {done.stderr[-400:]}"
            )
            continue
        shards, problems = check_report(run_dir / f"report-{i}.json", records, windows)
        outcome.problems += problems
        footer = _FOOTER.search(done.stderr)
        if warm and footer is not None and int(footer.group(2)) != 0:
            outcome.problems.append(f"warm replay missed the cache: {footer.group(0)}")
        tally(outcome, shards, done.wall_s)
        outcome.cpu_s += done.cpu_s + worker_cpu
        outcome.peak_rss_mb = max(outcome.peak_rss_mb, done.peak_rss_mb)
        stdouts.append(done.stdout)
    for w in workers:
        outcome.peak_rss_mb = max(outcome.peak_rss_mb, w.peak_rss_mb())
    return stdouts


def check_identical(outcome: Outcome, stdouts: list[bytes], seed: int, sizes: Sizes) -> None:
    if not stdouts:
        outcome.problems.append("no replay completed")
        return
    if any(out != stdouts[0] for out in stdouts):
        outcome.problems.append("replay reports differ between invocations")
    outcome.problems += check_cross_workload(seed, sizes, stdouts[0])


# -- replay_cold / replay_warm / replay_remote ---------------------------------------


def run_replay_cold(run_dir: Path, seed: int, n_ops: int, sizes: Sizes) -> Outcome:
    """``n_ops`` cold ``qbss-replay --jobs 2`` runs, each into an empty cache."""
    outcome = Outcome()
    env = program_env(run_dir)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        trace = write_trace(run_dir / "trace.swf", sizes.trace_jobs, seed)
        caches = [empty_dir(run_dir / f"cache-{i}") for i in range(n_ops)]
        outcome.setup_s.append(time.perf_counter() - start)
    records, windows = expected_shards(trace)
    stdouts = timed_replays(outcome, run_dir, caches, records, windows, env)
    check_identical(outcome, stdouts, seed, sizes)
    return outcome


def run_replay_warm(run_dir: Path, seed: int, n_ops: int, sizes: Sizes) -> Outcome:
    """``n_ops`` ``qbss-replay --jobs 2`` runs against a cache that set-up
    primed with one cold run; every shard is a hit."""
    outcome = Outcome()
    env = program_env(run_dir)
    cold = []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        trace = write_trace(run_dir / "trace.swf", sizes.trace_jobs, seed)
        cache = empty_dir(run_dir / f"cache-{k}")
        done = run_program(
            replay_argv("trace.swf", cache, "prime.json"), cwd=run_dir, env=env
        )
        outcome.setup_s.append(time.perf_counter() - start)
        if done.code != 0:
            raise BenchError(f"priming replay exited {done.code}: {done.stderr[-400:]}")
        cold.append(done.stdout)
    records, windows = expected_shards(trace)
    caches = [run_dir / f"cache-{i % SETUP_REPEATS}" for i in range(n_ops)]
    stdouts = timed_replays(outcome, run_dir, caches, records, windows, env, warm=True)
    check_identical(outcome, cold + stdouts, seed, sizes)
    return outcome


def start_workers(run_dir: Path, cache: Path, env: dict) -> list[Daemon]:
    workers = [
        Daemon(
            worker_argv(run_dir / f"w{i}.port", cache),
            port_file=run_dir / f"w{i}.port",
            log=run_dir / f"w{i}.log",
            env=env,
        )
        for i in range(2)
    ]
    try:
        for w in workers:
            w.wait_ready()
    except BenchError:
        for w in workers:
            w.stop()
        raise
    return workers


def run_replay_remote(run_dir: Path, seed: int, n_ops: int, sizes: Sizes) -> Outcome:
    """``n_ops`` cold ``qbss-replay --backend remote`` runs over two local
    ``qbss-worker`` processes sharing the cache directory."""
    outcome = Outcome()
    env = program_env(run_dir)
    workers: list[Daemon] = []
    try:
        for _ in range(SETUP_REPEATS):
            for w in workers:
                w.stop()
            for name in ("w0.port", "w1.port"):
                (run_dir / name).unlink(missing_ok=True)
            start = time.perf_counter()
            trace = write_trace(run_dir / "trace.swf", sizes.trace_jobs, seed)
            cache = empty_dir(run_dir / "cache")
            workers = start_workers(run_dir, cache, env)
            outcome.setup_s.append(time.perf_counter() - start)
        records, windows = expected_shards(trace)
        stdouts = []
        for _ in range(n_ops):
            empty_dir(cache)
            stdouts += timed_replays(
                outcome, run_dir, [cache], records, windows, env,
                backend="remote:@w0.port,@w1.port", workers=workers,
            )
        check_identical(outcome, stdouts, seed, sizes)
    finally:
        for w in workers:
            w.stop()
    return outcome


# -- serve --------------------------------------------------------------------------


@dataclass
class Submission:
    latency_s: float = 0.0
    ok: bool = False
    goodput_jobs: int = 0
    shards: list[dict] | None = None
    error: str | None = None


def start_daemon(run_dir: Path, env: dict, tag: str) -> tuple[Daemon, str, int]:
    port_file = run_dir / f"serve-{tag}.port"
    daemon = Daemon(
        serve_argv(port_file, empty_dir(run_dir / f"serve-cache-{tag}"),
                   run_dir / f"journal-{tag}"),
        port_file=port_file,
        log=run_dir / f"serve-{tag}.log",
        env=env,
    )
    from repro.engine.faults import RetryPolicy
    from repro.serve.client import Client, ServeClientError

    try:
        host, port = daemon.wait_ready().rsplit(":", 1)
        probe = Client(host, int(port), retry=RetryPolicy(
            max_attempts=200, backoff_base=0.005, backoff_cap=0.02))
        probe.healthz()
    except (BenchError, ServeClientError):
        daemon.stop()
        raise
    return daemon, host, int(port)


def drive(
    host: str,
    port: int,
    submissions: list[list[dict]],
    callers: int,
    keep: set[int],
) -> tuple[list[Submission], float]:
    """Closed loop: ``callers`` threads, each submitting its next body only
    after the previous response arrived.  Returns per-submission results
    (in submission order) and the wall time of the whole loop."""
    from repro.engine.faults import RetryPolicy
    from repro.serve.client import Client, ServeClientError
    from repro.serve.protocol import ProtocolError

    results = [Submission() for _ in submissions]
    cursor = iter(range(len(submissions)))
    lock = threading.Lock()

    def caller(cid: int) -> None:
        # Retry budget 1: no retry happens out of sight of failed counts.
        client = Client(host, port, client_id=f"bench-{cid}",
                        retry=RetryPolicy(max_attempts=1))
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            res = results[i]
            start = time.perf_counter()
            try:
                reply = client.submit(submissions[i])
            except (ServeClientError, ProtocolError, OSError) as exc:
                res.latency_s = time.perf_counter() - start
                res.error = f"{type(exc).__name__}: {exc}"
                continue
            res.latency_s = time.perf_counter() - start
            res.ok = reply.ok
            res.goodput_jobs = sum(
                int(s.get("n_jobs", 0))
                for s in reply.shards
                if s.get("status", "ok") in EVALUATED
            )
            if i in keep:
                res.shards = reply.shards

    threads = [threading.Thread(target=caller, args=(c,)) for c in range(callers)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, time.perf_counter() - start


def in_process_shards(jobs: list[dict]) -> list[dict]:
    """The shard payloads an in-process ``replay_jobs`` of the same records
    produces under the daemon's default configuration."""
    from repro.engine.session import ExecutionSession
    from repro.serve.protocol import parse_jobs_payload
    from repro.serve.server import ServeConfig
    from repro.traces.replay import replay_jobs
    from repro.traces.synthesize import synthesize_jobs

    cfg = ServeConfig()
    requests = parse_jobs_payload(submission_body(jobs))
    records = [req.to_record(i) for i, req in enumerate(requests)]
    stream = synthesize_jobs(
        iter(records), model=cfg.noise_model, seed=cfg.seed,
        deadline_slack=cfg.deadline_slack,
    )
    with ExecutionSession(jobs=1, cache=False) as session:
        report, _ = replay_jobs(
            stream, algorithms=cfg.algorithms, alpha=cfg.alpha,
            shard_window=cfg.shard_window, session=session,
        )
    return report.shards


def check_serve_sample(
    submissions: list[list[dict]], results: list[Submission], keep: set[int]
) -> list[str]:
    """Byte-compare evaluated shards of sampled responses with in-process
    replay; shard statuses must agree too (failures are deterministic)."""
    problems = []
    for i in sorted(keep):
        res = results[i]
        if res.shards is None:
            continue  # the submission itself failed; counted, not checked
        expected = in_process_shards(submissions[i])
        got_status = [s.get("status", "ok") for s in res.shards]
        want_status = [s.get("status", "ok") for s in expected]
        if got_status != want_status:
            problems.append(f"submission {i}: statuses {got_status} != {want_status}")
            continue
        for got, want in zip(res.shards, expected):
            if got.get("status", "ok") not in EVALUATED:
                continue
            for row in got.get("rows") or []:
                if row.get("within_bound") is not True:
                    problems.append(f"submission {i}: row outside the paper bound")
            if json.dumps(got, sort_keys=True) != json.dumps(want, sort_keys=True):
                problems.append(f"submission {i}: shard {got.get('index')} differs")
    return problems


def serve_sample(n: int, sizes: Sizes) -> set[int]:
    """Submissions whose responses are checked: every ``sample_every``-th,
    plus an old-log one for each of them."""
    keep = set(range(0, n, sizes.serve_sample_every))
    keep |= {i + OLD_LOG_EVERY - 1 for i in keep if i + OLD_LOG_EVERY - 1 < n}
    return keep


def tally_serve(outcome: Outcome, results: list[Submission], wall: float) -> None:
    outcome.wall_s = wall
    outcome.attempted = len(results)
    outcome.failed = sum(1 for r in results if not r.ok)
    outcome.goodput_jobs = sum(r.goodput_jobs for r in results)
    outcome.latencies_s = [r.latency_s for r in results if r.ok]


def run_serve(run_dir: Path, seed: int, n_ops: int, sizes: Sizes) -> Outcome:
    """One ``qbss-serve`` daemon, two closed-loop callers, ``n_ops``
    submissions of ~20 jobs each."""
    outcome = Outcome()
    env = program_env(run_dir)
    daemon = None
    try:
        for k in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            start = time.perf_counter()
            stream = serve_stream(n_ops + SERVE_WARMUP, seed, run_dir)
            submissions, warmup = stream[:n_ops], stream[n_ops:]
            daemon, host, port = start_daemon(run_dir, env, str(k))
            outcome.setup_s.append(time.perf_counter() - start)
        drive(host, port, warmup, SERVE_WARMUP, set())
        keep = serve_sample(n_ops, sizes)
        cpu_before = daemon.cpu_s()
        results, wall = drive(host, port, submissions, 2, keep)
        outcome.cpu_s = daemon.cpu_s() - cpu_before
        outcome.peak_rss_mb = daemon.peak_rss_mb()
    finally:
        code = daemon.stop() if daemon is not None else 0
    if code != 0:
        outcome.problems.append(f"qbss-serve exited {code} after SIGTERM")
    tally_serve(outcome, results, wall)
    errors = Counter(r.error.split(":")[0] for r in results if r.error)
    if errors:
        print(f"serve: rejected or failed submissions: {dict(errors)}", file=sys.stderr)
    if not outcome.latencies_s:
        raise BenchError("no submission succeeded")
    print(
        "serve: latency p99 (unbounded, see README) "
        f"{percentile(outcome.latencies_s, 99.0) * 1000.0:.2f} ms over "
        f"{len(outcome.latencies_s)} successful submissions",
        file=sys.stderr,
    )
    outcome.problems += check_serve_sample(submissions, results, keep)
    return outcome


RUNNERS = {
    "replay_cold": run_replay_cold,
    "replay_warm": run_replay_warm,
    "serve": run_serve,
    "replay_remote": run_replay_remote,
}
