"""The traced run: per-layer attribution, measured from the benchmark's
own files around calls into each layer's public functions.

Replay workloads are decomposed by a *staged* single-process pass over
the same generated trace: parse -> synthesize -> shard -> encode -> key
-> cache get -> decode -> clairvoyant -> each algorithm -> validate ->
measure -> normalise -> cache put -> render, each call wrapped in a span.
An untraced in-process serial replay of the same trace is the reference
the spans are held against: ``trace.coverage`` is the share of its wall
time the named layers account for, ``trace.overhead`` the extra wall the
staged pass took.  The real CLI runs once beside them with ``--trace-out``
and ``--metrics-out`` for the real backend's dispatch spans and counters.

``serve`` is decomposed by scraping the daemon's ``/metrics`` around a
two-caller pass and a single-caller pass, and by the same staged pass
over the single-caller pass's request bodies (parse, journal append,
evaluation layers, response encode), held against the daemon's own
in-process path ``QbssServer.serve_once`` on those bodies.

Every per-layer time is self time in milliseconds per operation: per
``qbss-replay`` invocation (the whole trace) for the replay workloads,
per submission for ``serve``.  Counts are per operation as well.
"""

from __future__ import annotations

import io
import itertools
import json
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from repro import __version__
from repro import io as rio
from repro.analysis.ratios import RatioMeasurement
from repro.core.instance import QBSSInstance
from repro.core.power import PowerFunction
from repro.engine.backends.remote import recv_frame, send_frame
from repro.engine.cache import ResultCache
from repro.engine.session import ExecutionSession
from repro.qbss import get_algorithm, run_algorithm
from repro.qbss.clairvoyant import clairvoyant_values
from repro.serve import protocol
from repro.serve.client import Client
from repro.serve.journal import AdmissionJournal, shard_payload_digest
from repro.serve.server import QbssServer, ServeConfig
from repro.traces import replay
from repro.traces.records import ParseStats
from repro.traces.replay import (
    ReplayReport,
    iter_shards,
    paper_energy_bound,
    replay_jobs,
    replay_trace,
    shard_cache_key,
)
from repro.traces.swf import parse_swf
from repro.traces.synthesize import synthesize_jobs

from common import (
    SERVE_WARMUP,
    SHARD_WINDOW,
    WORK,
    BenchError,
    Sizes,
    dir_bytes,
    empty_dir,
    expected_shards,
    percentile,
    program_env,
    replay_argv,
    run_program,
    serve_stream,
    submission_body,
    write_trace,
)
from workloads import (
    EVALUATED,
    check_cross_workload,
    check_report,
    drive,
    start_daemon,
    start_workers,
)

#: Span names whose self time is reported (``<name>_ms``) and counted
#: towards ``trace.coverage``.
LAYERS = (
    "traces.parse",
    "traces.synthesize",
    "traces.shard",
    "io.encode",
    "traces.cache_key",
    "engine.cache.get",
    "io.decode",
    "qbss.clairvoyant",
    "qbss.avrq",
    "qbss.bkpq",
    "qbss.validate",
    "qbss.measure",
    "traces.normalise",
    "engine.cache.put",
    "traces.render",
    "serve.parse",
    "serve.journal_append",
    "serve.encode",
)

#: Layers measured without staged spans (real processes, scrapes, frames).
OTHER_TIMES = (
    "serve.latency_p99_ms",
    "serve.evaluate_ms",
    "serve.overhead_ms",
    "serve.queue_wait_ms",
    "engine.dispatch_ms",
    "engine.backends.frame_encode_ms",
    "engine.backends.frame_decode_ms",
)

COUNTS = (
    "engine.backends.frame_bytes",
    "traces.records",
    "traces.shards",
    "traces.peak_resident_jobs",
    "io.shard_doc_bytes",
    "engine.cache.hits",
    "engine.cache.misses",
    "engine.cache.bytes_written",
    "engine.retries",
    "engine.timeouts",
    "qbss.failed_shards",
    "serve.rejected.queue_full",
    "serve.rejected.rate_limited",
    "serve.rejected.draining",
    "serve.rejected.invalid_request",
)

ATTRIBUTION = ("trace.coverage", "trace.overhead", "trace.reference_s")


class Spans:
    """In-memory span recorder: name, start, end, parent, run id.

    Spans nest through a stack; a span's self time is its duration minus
    the time its child spans cover.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.records: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[int] = []
        self._next = 1

    @contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append((sid, parent, name, start, end))

    def self_times(self) -> dict[str, float]:
        child: dict[int, float] = {}
        for _sid, parent, _name, start, end in self.records:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        totals: dict[str, float] = {}
        for sid, _parent, name, start, end in self.records:
            totals[name] = totals.get(name, 0.0) + (end - start) - child.get(sid, 0.0)
        return totals

    def write(self, path: Path) -> None:
        """Write the spans out (once, when the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in sorted(self.records):
                fh.write(json.dumps({
                    "run": self.run_id, "span": sid, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


@dataclass
class Traced:
    metrics: dict[str, float]
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def empty_metrics() -> dict[str, float]:
    names = [f"{layer}_ms" for layer in LAYERS]
    names += [*OTHER_TIMES, *COUNTS, *ATTRIBUTION, "cli.import_s"]
    return dict.fromkeys(names, 0.0)


# -- the staged pass ----------------------------------------------------------------


class StagedPass:
    """Drives one job stream through the program's layers, span by span.

    Mirrors ``repro.traces.replay`` (``replay_jobs`` and its shard worker
    body) call for call with the evaluation parameters of ``qbss-replay``
    and ``qbss-serve`` defaults.
    """

    def __init__(self, spans: Spans, cache_dir: Path) -> None:
        cfg = ServeConfig()
        self.algorithms = tuple(cfg.algorithms)
        self.alpha = cfg.alpha
        self.noise_model = cfg.noise_model
        self.noise_seed = cfg.seed
        self.deadline_slack = cfg.deadline_slack
        self.spans = spans
        self.store = ResultCache(cache_dir)
        # The JSON round trip every shard payload takes; a program without
        # one does no work in this layer.
        self.normalise = getattr(replay, "_normalise", lambda payload: payload)
        self.errors: list[str] = []
        self.keys: dict[int, str] = {}
        self.eval_s: dict[int, float] = {}
        self.docs: list[dict] = []

    def jobs(self, records: list) -> list:
        with self.spans.span("traces.synthesize"):
            return list(synthesize_jobs(
                iter(records), model=self.noise_model, seed=self.noise_seed,
                deadline_slack=self.deadline_slack,
            ))

    def shards(self, jobs: list) -> list[dict]:
        with self.spans.span("traces.shard"):
            shards = list(iter_shards(jobs, SHARD_WINDOW))
        return [self.shard(s) for s in shards]

    def shard(self, shard) -> dict:
        span = self.spans.span
        with span("io.encode"):
            doc = {
                "index": shard.index,
                "start": shard.start,
                "end": shard.end,
                "instance": rio.qbss_instance_to_dict(QBSSInstance(shard.jobs)),
            }
        self.docs.append(doc)
        with span("traces.cache_key"):
            key = shard_cache_key(doc, self.algorithms, self.alpha)
        self.keys[doc["index"]] = key
        with span("engine.cache.get"):
            entry = self.store.get(key)
        if entry is not None:
            with span("traces.normalise"):
                payload = self.normalise(entry["report"])
            payload.setdefault("status", "ok")
            return payload
        start = time.perf_counter()
        try:
            payload = self.evaluate(doc)
        except Exception as exc:
            # Shard failures are outcomes (status "error"), as in replay.
            self.errors.append(f"shard {doc['index']}: {type(exc).__name__}: {exc}")
            return {"index": doc["index"], "start": doc["start"], "end": doc["end"],
                    "n_jobs": len(doc["instance"]["jobs"]), "rows": [],
                    "status": "error"}
        wall = time.perf_counter() - start
        self.eval_s[doc["index"]] = wall
        with span("traces.normalise"):
            payload = self.normalise(payload)
        with span("engine.cache.put"):
            self.store.put(key, "trace-shard",
                           {"algorithms": list(self.algorithms), "alpha": self.alpha},
                           dict(payload, status="ok"), wall)
        payload["status"] = "ok"
        return payload

    def evaluate(self, doc: dict) -> dict:
        span = self.spans.span
        alpha = self.alpha
        with span("io.decode"):
            qi = rio.qbss_instance_from_dict(doc["instance"])
        with span("qbss.clairvoyant"):
            base = clairvoyant_values(qi, alpha=alpha)
        rows = []
        for name in self.algorithms:
            takes_alpha = "alpha" in get_algorithm(name).accepts
            with span(f"qbss.{name}"):
                result = run_algorithm(name, qi, alpha=alpha if takes_alpha else None)
            with span("qbss.validate"):
                result.validate().raise_if_infeasible()
            with span("qbss.measure"):
                m = RatioMeasurement(
                    algorithm=result.algorithm or name,
                    energy=result.energy(PowerFunction(alpha)),
                    optimal_energy=base.energy_value,
                    max_speed=result.max_speed(),
                    optimal_max_speed=base.max_speed_value,
                    feasible=True,
                    exact_baseline=base.exact,
                )
                bound = paper_energy_bound(name, alpha)
                rows.append({
                    "algorithm": name,
                    "energy": m.energy,
                    "optimal_energy": m.optimal_energy,
                    "energy_ratio": m.energy_ratio,
                    "max_speed": m.max_speed,
                    "optimal_max_speed": m.optimal_max_speed,
                    "max_speed_ratio": m.max_speed_ratio,
                    "paper_bound": bound,
                    "within_bound": (
                        None if bound is None else m.energy_ratio <= bound * (1 + 1e-9)
                    ),
                })
        return {"index": doc["index"], "start": doc["start"], "end": doc["end"],
                "n_jobs": len(doc["instance"]["jobs"]), "rows": rows}

    def count_doc_bytes(self) -> int:
        return sum(len(json.dumps(d["instance"])) for d in self.docs)


def staged_replay(spans: Spans, trace: Path, cache_dir: Path) -> tuple[StagedPass, list[dict], str]:
    """The staged pass over a trace file; returns the shard payloads and
    the rendered report, as ``qbss-replay trace.swf`` prints it."""
    staged = StagedPass(spans, cache_dir)
    stats = ParseStats()
    with spans.span("pass"):
        with spans.span("traces.parse"):
            records = list(parse_swf(trace, stats))
        payloads = staged.shards(staged.jobs(records))
        with spans.span("traces.render"):
            text = ReplayReport(
                source=trace.name, trace_format="swf",
                noise_model=staged.noise_model, seed=staged.noise_seed,
                deadline_slack=staged.deadline_slack, alpha=staged.alpha,
                shard_window=SHARD_WINDOW, algorithms=list(staged.algorithms),
                shards=payloads, skipped=stats.skipped,
            ).render()
    return staged, payloads, text + "\n"


def untraced_replay(trace: Path, cache_dir: Path) -> float:
    """Wall time of the in-process serial replay + render of ``trace``."""
    start = time.perf_counter()
    with ExecutionSession(jobs=1, cache_dir=cache_dir) as session:
        report, _ = replay_trace(trace, session=session)
        report.render()
    return time.perf_counter() - start


def warm_up(trace: Path) -> None:
    """Pay lazy imports and first-call costs before anything is timed."""
    stream = synthesize_jobs(itertools.islice(parse_swf(trace), 40))
    with ExecutionSession(jobs=1, cache=False) as session:
        replay_jobs(stream, session=session)


# -- real-process layers ------------------------------------------------------------


def import_seconds(module: str, name: str, env: dict, repeats: int) -> float:
    """Median time a fresh interpreter takes to import an entry point."""
    code = (
        "import time; t = time.perf_counter(); "
        f"from {module} import {name}; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def cli_spans(path: Path) -> dict[str, float]:
    """Attempt durations per task key from a ``--trace-out`` file."""
    begun: dict[int, str] = {}
    durations: dict[str, float] = {}
    for line in path.read_text().splitlines():
        event = json.loads(line)
        if event.get("name") != "attempt":
            continue
        if event["ev"] == "B":
            begun[event["span"]] = event["task"]
        elif event["ev"] == "E" and event["span"] in begun:
            task = begun[event["span"]]
            durations[task] = durations.get(task, 0.0) + event["dur"]
    return durations


def metric_sample(snapshot: dict, name: str, **labels: str) -> float:
    for series in snapshot["series"]:
        if series["name"] == name and series["labels"] == labels:
            return float(series["state"])
    return 0.0


def frame_layer(staged: StagedPass, payloads: list[dict]) -> dict[str, float]:
    """Encode/decode every task and result frame of the workload through
    the public ``send_frame``/``recv_frame`` over a socket pair."""
    by_index = {p["index"]: p for p in payloads}
    frames = []
    for n, doc in enumerate(staged.docs, start=1):
        task = f"shard:{doc['index']}"
        frames.append({
            "kind": "task", "id": n,
            "fn": "repro.traces.replay:_evaluate_shard_task",
            "args": (doc, staged.algorithms, staged.alpha, task, 1),
            "fault_plan": None,
            "publish": {"key": staged.keys[doc["index"]], "experiment": "trace-shard",
                        "params": {"algorithms": list(staged.algorithms),
                                   "alpha": staged.alpha},
                        "package_version": __version__, "wrap_status": True},
        })
        payload = dict(by_index[doc["index"]])
        payload.pop("status", None)
        frames.append({"kind": "result", "id": n,
                       "outcome": {"ok": True, "payload": payload,
                                   "wall": staged.eval_s.get(doc["index"], 0.0)}})
    left, right = socket.socketpair()
    received = bytearray()

    def drain() -> None:
        while chunk := right.recv(1 << 16):
            received.extend(chunk)

    reader = threading.Thread(target=drain)
    reader.start()
    encode = 0.0
    try:
        for frame in frames:
            start = time.perf_counter()
            send_frame(left, frame)
            encode += time.perf_counter() - start
    finally:
        left.close()
        reader.join(60)
        right.close()
    stream = io.BufferedReader(io.BytesIO(bytes(received)))
    decode = 0.0
    for _ in frames:
        start = time.perf_counter()
        recv_frame(stream)
        decode += time.perf_counter() - start
    return {
        "engine.backends.frame_bytes": float(len(received)),
        "engine.backends.frame_encode_ms": encode * 1000.0,
        "engine.backends.frame_decode_ms": decode * 1000.0,
    }


# -- traced replay workloads --------------------------------------------------------


def paired_passes(untraced, staged, rounds: int = 3) -> dict:
    """Alternate untraced and staged passes, ``rounds`` times.

    On a shared host the machine's speed drifts over tens of seconds, so
    each staged pass is held against the untraced pass just before it and
    the median of those ratios is reported: one disturbed pass moves
    neither coverage nor overhead.  Per-layer times come from the fastest
    staged pass, the least disturbed one; its spans are written out.
    """
    refs, coverages, overheads, best = [], [], [], None
    for _ in range(rounds):
        ref = untraced()
        wall, spans, result = staged()
        selfs = spans.self_times()
        refs.append(ref)
        coverages.append(sum(selfs.get(layer, 0.0) for layer in LAYERS) / ref)
        overheads.append(wall / ref - 1.0)
        if best is None or wall < best[0]:
            best = (wall, spans, result)
    best[1].write(WORK / "spans" / f"{best[1].run_id}.jsonl")
    return {
        "reference": statistics.median(refs),
        "coverage": statistics.median(coverages),
        "overhead": statistics.median(overheads),
        "selfs": best[1].self_times(),
        "result": best[2],
    }


def traced_replay(
    run_dir: Path, seed: int, n_ops: int, sizes: Sizes, *, warm: bool, remote: bool
) -> Traced:
    """One traced replay workload; ``n_ops`` is unused (one invocation)."""
    env = program_env(run_dir)
    result = Traced(empty_metrics())
    m = result.metrics
    trace = write_trace(run_dir / "trace.swf", sizes.trace_jobs, seed)
    records, windows = expected_shards(trace)
    caches = {name: empty_dir(run_dir / f"cache-{name}") for name in ("u", "s", "cli")}
    workers = []
    try:
        if warm:
            done = run_program(replay_argv("trace.swf", caches["cli"], "prime.json"),
                               cwd=run_dir, env=env)
            if done.code != 0:
                raise BenchError(f"priming replay exited {done.code}")
            for name in ("u", "s"):
                shutil.rmtree(caches[name])
                shutil.copytree(caches["cli"], caches[name])
        if remote:
            workers = start_workers(run_dir, caches["cli"], env)
        m["cli.import_s"] = import_seconds("repro.cli", "replay_main", env,
                                           sizes.import_repeats)
        warm_up(trace)

        def untraced() -> float:
            if not warm:
                empty_dir(caches["u"])
            return untraced_replay(trace, caches["u"])

        def staged() -> tuple[float, Spans, tuple]:
            if not warm:
                empty_dir(caches["s"])
            spans = Spans(run_dir.name)
            start = time.perf_counter()
            result = staged_replay(spans, trace, caches["s"])
            return time.perf_counter() - start, spans, result

        passes = paired_passes(untraced, staged)
        staged, payloads, text = passes["result"]
        extra = ["--trace-out", "spans.jsonl", "--metrics-out", "metrics.json"]
        if remote:
            extra += ["--backend", "remote:@w0.port,@w1.port"]
        before = dir_bytes(caches["cli"])
        done = run_program(replay_argv("trace.swf", caches["cli"], "traced.json", *extra),
                           cwd=run_dir, env=env)
        written = dir_bytes(caches["cli"]) - before
    finally:
        for w in workers:
            w.stop()
    if done.code != 0:
        raise BenchError(f"traced qbss-replay exited {done.code}: {done.stderr[-400:]}")
    shards, problems = check_report(run_dir / "traced.json", records, windows)
    result.problems += problems
    result.problems += check_cross_workload(seed, sizes, done.stdout)
    if text.encode() != done.stdout:
        result.problems.append("staged pass rendered a different report than qbss-replay")
    staged_shards = json.dumps(payloads, sort_keys=True)
    if staged_shards != json.dumps(shards, sort_keys=True):
        result.problems.append(
            "staged pass computed different shard payloads "
            f"({'; '.join(staged.errors[:1]) or 'no staged errors'})"
        )

    for layer in LAYERS:
        m[f"{layer}_ms"] = passes["selfs"].get(layer, 0.0) * 1000.0
    m["trace.reference_s"] = passes["reference"]
    m["trace.coverage"] = passes["coverage"]
    m["trace.overhead"] = passes["overhead"]

    snapshot = json.loads((run_dir / "metrics.json").read_text())
    attempts = cli_spans(run_dir / "spans.jsonl")
    m["engine.dispatch_ms"] = 1000.0 * sum(
        max(0.0, dur - staged.eval_s.get(int(task.split(":")[1]), 0.0))
        for task, dur in attempts.items()
    )
    if remote:
        m.update(frame_layer(staged, payloads))
    m["traces.records"] = float(records)
    m["traces.shards"] = float(len(shards))
    m["traces.peak_resident_jobs"] = metric_sample(snapshot, "qbss_replay_peak_resident_jobs")
    m["io.shard_doc_bytes"] = float(staged.count_doc_bytes())
    m["engine.cache.hits"] = metric_sample(snapshot, "qbss_cache_lookups_total", result="hit")
    m["engine.cache.misses"] = metric_sample(snapshot, "qbss_cache_lookups_total", result="miss")
    m["engine.cache.bytes_written"] = float(written)
    m["engine.retries"] = metric_sample(snapshot, "qbss_retries_total")
    m["engine.timeouts"] = metric_sample(snapshot, "qbss_timeouts_total")
    failed = sum(1 for s in shards if s.get("status", "ok") not in EVALUATED)
    m["qbss.failed_shards"] = float(failed)
    result.attempted, result.failed = len(shards), failed
    return result


# -- traced serve -------------------------------------------------------------------


def scrape(host: str, port: int) -> dict:
    return Client(host, port).metrics()


def delta(after: dict, before: dict, name: str, **labels: str) -> float:
    key = (name, tuple(sorted(labels.items())))
    return after.get(key, 0.0) - before.get(key, 0.0)


def staged_serve(spans: Spans, bodies: list[str], run_dir: Path) -> StagedPass:
    """The staged pass over submission bodies, as the daemon handles one."""
    staged = StagedPass(spans, empty_dir(run_dir / "cache-staged"))
    journal = AdmissionJournal(empty_dir(run_dir / "journal-staged"))
    try:
        with spans.span("pass"):
            for body in bodies:
                with spans.span("serve.parse"):
                    requests = protocol.parse_jobs_payload(body, source="client:bench")
                with spans.span("serve.journal_append"):
                    seq = journal.log_admission("bench", [r.to_dict() for r in requests])
                payloads = staged.shards(
                    staged.jobs([r.to_record(i) for i, r in enumerate(requests)])
                )
                with spans.span("serve.journal_append"):
                    for shard in payloads:
                        journal.log_shard_complete(seq, shard["index"],
                                                   shard_payload_digest(shard))
                    journal.log_batch_complete(seq, "ok")
                with spans.span("serve.encode"):
                    envelopes = [protocol.shard_envelope(p) for p in payloads]
                    envelopes.append(protocol.summary_envelope(
                        n_jobs=sum(p["n_jobs"] for p in payloads),
                        n_shards=len(payloads),
                        failed_shards=sum(1 for p in payloads if p["status"] == "error"),
                        algorithms=list(staged.algorithms), alpha=staged.alpha,
                        shard_window=SHARD_WINDOW, noise_model=staged.noise_model,
                        seed=staged.noise_seed, deadline_slack=staged.deadline_slack,
                    ))
                    protocol.encode_jsonl(envelopes)
    finally:
        journal.close()
    return staged


def untraced_serve(bodies: list[str], run_dir: Path) -> float:
    """Wall time of the daemon's own in-process path on the same bodies."""
    server = QbssServer(ServeConfig(
        cache_dir=empty_dir(run_dir / "cache-inproc"),
        journal_dir=empty_dir(run_dir / "journal-inproc"),
    ))
    start = time.perf_counter()
    try:
        for body in bodies:
            server.serve_once(body, client="bench")
    finally:
        wall = time.perf_counter() - start
        server.begin_drain()
        server.drain()
    return wall


def traced_serve(run_dir: Path, seed: int, n_ops: int, sizes: Sizes) -> Traced:
    env = program_env(run_dir)
    result = Traced(empty_metrics())
    m = result.metrics
    n_single = sizes.serve_single_submissions
    stream = serve_stream(n_ops + n_single + SERVE_WARMUP, seed, run_dir)
    two, single = stream[:n_ops], stream[n_ops:n_ops + n_single]
    warmup = stream[n_ops + n_single:]
    m["cli.import_s"] = import_seconds("repro.serve.cli", "main", env, sizes.import_repeats)
    daemon, host, port = start_daemon(run_dir, env, "traced")
    cache = run_dir / "serve-cache-traced"
    try:
        drive(host, port, warmup, SERVE_WARMUP, set())
        s0 = scrape(host, port)
        bytes0 = dir_bytes(cache)
        two_results, _ = drive(host, port, two, 2, set())
        s1 = scrape(host, port)
        one_results, _ = drive(host, port, single, 1, set())
        s2 = scrape(host, port)
        written = dir_bytes(cache) - bytes0
    finally:
        code = daemon.stop()
    if code != 0:
        result.problems.append(f"qbss-serve exited {code} after SIGTERM")
    everything = two_results + one_results
    result.attempted = len(everything)
    result.failed = sum(1 for r in everything if not r.ok)

    def mean_latency(results: list) -> float:
        return statistics.fmean(r.latency_s for r in results) * 1000.0

    evaluated = delta(s2, s1, "qbss_serve_shard_latency_seconds_sum")
    m["serve.evaluate_ms"] = evaluated * 1000.0 / len(single)
    m["serve.overhead_ms"] = mean_latency(one_results) - m["serve.evaluate_ms"]
    m["serve.queue_wait_ms"] = mean_latency(two_results) - mean_latency(one_results)
    m["serve.latency_p99_ms"] = 1000.0 * percentile(
        [r.latency_s for r in two_results if r.ok], 99.0)
    bodies = [submission_body(jobs) for jobs in single]
    staged_serve(Spans("warm-up"), bodies[:2], run_dir)

    def staged() -> tuple[float, Spans, StagedPass]:
        spans = Spans(run_dir.name)
        start = time.perf_counter()
        result = staged_serve(spans, bodies, run_dir)
        return time.perf_counter() - start, spans, result

    passes = paired_passes(lambda: untraced_serve(bodies, run_dir), staged)
    staged_pass = passes["result"]
    for layer in LAYERS:
        m[f"{layer}_ms"] = passes["selfs"].get(layer, 0.0) * 1000.0 / len(bodies)
    m["trace.reference_s"] = passes["reference"] / len(bodies)
    m["trace.coverage"] = passes["coverage"]
    m["trace.overhead"] = passes["overhead"]

    n = len(everything)
    m["traces.records"] = float(sum(len(jobs) for jobs in two + single)) / n
    m["traces.shards"] = delta(s2, s0, "qbss_serve_shard_latency_seconds_count") / n
    m["traces.peak_resident_jobs"] = s2.get(("qbss_replay_peak_resident_jobs", ()), 0.0)
    m["io.shard_doc_bytes"] = float(staged_pass.count_doc_bytes()) / len(bodies)
    m["engine.cache.hits"] = delta(s2, s0, "qbss_cache_lookups_total", result="hit") / n
    m["engine.cache.misses"] = delta(s2, s0, "qbss_cache_lookups_total", result="miss") / n
    m["engine.cache.bytes_written"] = written / n
    m["engine.retries"] = delta(s2, s0, "qbss_retries_total") / n
    m["engine.timeouts"] = delta(s2, s0, "qbss_timeouts_total") / n
    m["qbss.failed_shards"] = delta(s2, s0, "qbss_replay_shards_total", status="error") / n
    for reason in ("queue_full", "rate_limited", "draining", "invalid_request"):
        m[f"serve.rejected.{reason}"] = delta(
            s2, s0, "qbss_serve_jobs_rejected_total", reason=reason)
    return result


TRACED = {
    "replay_cold": partial(traced_replay, warm=False, remote=False),
    "replay_warm": partial(traced_replay, warm=True, remote=False),
    "serve": traced_serve,
    "replay_remote": partial(traced_replay, warm=False, remote=True),
}
