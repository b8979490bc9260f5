"""Sharded streaming replay of a QBSS job stream through the engine.

The replayer consumes a *lazy* stream of :class:`~repro.core.qjob.QJob`
(usually a parser piped through the synthesizer), partitions it into
time-window shards by release time, evaluates each shard's competitive
ratios against the clairvoyant optimum, and aggregates everything into a
:class:`ReplayReport` with percentile summaries.

Memory contract: the full trace is **never** materialized.  Resident at
any moment are the shard being assembled plus the shards in flight on the
worker pool (bounded by ``2 x jobs``); :class:`ReplayMetrics` records the
observed peak so tests can verify the bound.  This requires the stream to
be sorted by release time — the replayer raises
:class:`~repro.traces.records.TraceOrderError` otherwise rather than
silently buffering without bound.

Shard evaluation reuses the engine's content-addressed
:class:`~repro.engine.cache.ResultCache`: the key is the SHA-256 of the
shard's serialized jobs plus the algorithm list, alpha and package
version, so warm replay campaigns skip every shard they have seen before
regardless of which trace file it came from.

Determinism: shard rows are always normalised through their JSON payload,
so a cold serial run, a ``jobs=4`` run and a fully cached run render — and
serialize — byte-identically.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Sequence

from .. import __version__ as PACKAGE_VERSION
from ..analysis.tables import render_table
from ..core.instance import QBSSInstance
from ..core.qjob import QJob
from ..engine.faults import (
    FailureInfo,
    TransientError,
    WorkerCrashError,
    active_fault_plan,
    installed_fault_plan,
)
from ..engine.runner import HardenedTask
from ..engine.session import ExecutionSession
from .checkpoint import ReplayCheckpoint
from ..qbss.registry import get_algorithm
from .records import TraceOrderError

REPLAY_FORMAT_VERSION = 1

#: Shard verdicts: successfully evaluated (any execution mode) = ``ok``;
#: ``degraded`` = valid result recovered in-process after repeated pool
#: crashes; ``error``/``timeout`` = no rows for this shard.
SHARD_STATUSES = ("ok", "degraded", "error", "timeout")

#: Default algorithm line-up: the paper's online algorithms (arbitrary
#: releases and deadlines — the only setting a general trace fits).
DEFAULT_ALGORITHMS = ("avrq", "bkpq")


def paper_energy_bound(algorithm: str, alpha: float) -> float | None:
    """The proven energy-ratio upper bound for ``algorithm``, if any.

    AVRQ and BKPQ carry Theorem 5.2 / 5.4 bounds valid on arbitrary
    instances; OAQ is the paper's open question (no bound claimed), and
    the offline algorithms never appear here (their structural settings
    do not cover general traces).
    """
    from ..bounds import formulas

    bounds = {
        "avrq": formulas.avrq_ub_energy,
        "bkpq": formulas.bkpq_ub_energy,
    }
    fn = bounds.get(algorithm)
    return fn(alpha) if fn is not None else None


def validate_replay_algorithms(algorithms: Sequence[str]) -> tuple[str, ...]:
    """Check every name is a registered *online* algorithm.

    Trace shards have arbitrary releases and deadlines, so the offline
    algorithms (common-release settings) and the multi-machine runners are
    rejected up front with a message naming the valid choices.
    """
    if not algorithms:
        raise ValueError("need at least one algorithm to replay")
    online = sorted(_online_specs())
    chosen = []
    for name in algorithms:
        spec = get_algorithm(name)  # KeyError with the full list on typos
        if spec.setting != "online":
            raise ValueError(
                f"algorithm {name!r} is {spec.setting!r}; trace replay "
                f"needs online algorithms (one of: {', '.join(online)})"
            )
        chosen.append(name)
    return tuple(chosen)


def _online_specs():
    from ..qbss.registry import ALGORITHMS

    return {n: s for n, s in ALGORITHMS.items() if s.setting == "online"}


# -- sharding -----------------------------------------------------------------------


@dataclass(frozen=True)
class Shard:
    """One time-window worth of jobs, [start, end) by release time."""

    index: int
    start: float
    end: float
    jobs: tuple[QJob, ...]


def iter_shards(
    jobs: Iterable[QJob], window: float, origin: float = 0.0
) -> Iterator[Shard]:
    """Group a release-sorted job stream into consecutive time shards.

    Shards are aligned to the absolute grid ``origin + k * window`` and
    empty windows are skipped.  Holding only the current shard in memory
    is what gives replay its bounded footprint, so a release time moving
    backwards raises :class:`TraceOrderError` immediately.
    """
    if window <= 0.0:
        raise ValueError(f"shard window must be > 0, got {window}")
    current: int | None = None
    last_release = -math.inf
    buf: list[QJob] = []
    for job in jobs:
        if job.release < last_release:
            raise TraceOrderError(
                f"job {job.id!r} released at {job.release} after a job "
                f"released at {last_release}; trace replay streams in "
                "release order — sort the trace first"
            )
        last_release = job.release
        k = int(math.floor((job.release - origin) / window))
        if current is None:
            current = k
        if k != current:
            yield Shard(
                current,
                origin + current * window,
                origin + (current + 1) * window,
                tuple(buf),
            )
            buf = []
            current = k
        buf.append(job)
    if buf and current is not None:
        yield Shard(
            current,
            origin + current * window,
            origin + (current + 1) * window,
            tuple(buf),
        )


# -- shard evaluation ---------------------------------------------------------------


def _shard_doc(shard: Shard) -> dict:
    from ..io import qbss_instance_to_dict

    doc = qbss_instance_to_dict(QBSSInstance(shard.jobs))
    return {
        "index": shard.index,
        "start": shard.start,
        "end": shard.end,
        "instance": doc,
    }


def shard_cache_key(
    shard_doc: dict,
    algorithms: Sequence[str],
    alpha: float,
    package_version: str | None = None,
) -> str:
    """Content address of one shard evaluation (SHA-256 hex).

    Keyed by the serialized jobs themselves (not the trace file or its
    noise parameters): two campaigns that synthesize identical shards
    share cache entries, and any change to a job, the algorithm list,
    alpha or the package version misses.
    """
    material = json.dumps(
        {
            "kind": "trace_shard",
            "replay_version": REPLAY_FORMAT_VERSION,
            "jobs": shard_doc["instance"]["jobs"],
            "algorithms": list(algorithms),
            "alpha": alpha,
            "package_version": package_version or PACKAGE_VERSION,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _evaluate_shard(
    shard_doc: dict, algorithms: tuple[str, ...], alpha: float
) -> dict:
    """Worker body: measure every algorithm on one shard.

    Module-level (pickled by name into pool workers); returns a plain-JSON
    payload so cached and fresh results are indistinguishable.
    """
    from ..analysis.ratios import measure
    from ..core.profile_kernel import kernel_enabled
    from ..io import qbss_instance_from_dict
    from ..qbss.clairvoyant import clairvoyant_values

    qi = qbss_instance_from_dict(shard_doc["instance"])
    # One clairvoyant baseline serves every algorithm of the shard (the
    # values are identical per algorithm anyway).  Gated on the kernel flag
    # so pure_python() reproduces the pre-kernel call graph exactly.
    baseline = clairvoyant_values(qi, alpha=alpha) if kernel_enabled() else None
    rows = []
    for name in algorithms:
        m = measure(name, qi, alpha=alpha, baseline=baseline)
        bound = paper_energy_bound(name, alpha)
        rows.append(
            {
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
            }
        )
    return {
        "index": shard_doc["index"],
        "start": shard_doc["start"],
        "end": shard_doc["end"],
        "n_jobs": len(shard_doc["instance"]["jobs"]),
        "rows": rows,
    }


def _evaluate_shard_task(
    shard_doc: dict,
    algorithms: tuple[str, ...],
    alpha: float,
    task: str,
    attempt: int,
) -> dict:
    """Hardened worker body: fault hook + captured exceptions.

    Module-level (pickled by name); reads the ``QBSS_FAULT_PLAN`` env hook,
    then defers to :func:`_evaluate_shard`.  Ordinary exceptions come back
    as a failure outcome so one pathological shard cannot abort the
    replay; ``KeyboardInterrupt``/``SystemExit`` still propagate.
    """
    start = time.perf_counter()
    try:
        plan = active_fault_plan()
        if plan is not None:
            plan.inject(task, attempt)
        payload = _evaluate_shard(shard_doc, algorithms, alpha)
        return {
            "ok": True,
            "payload": payload,
            "wall": time.perf_counter() - start,
        }
    except BaseException as exc:
        if not isinstance(exc, Exception):
            raise
        return {
            "ok": False,
            "error": traceback.format_exc(limit=8),
            "transient": isinstance(exc, TransientError),
            "kind": "crash" if isinstance(exc, WorkerCrashError) else "error",
            "wall": time.perf_counter() - start,
        }


def _normalise(payload: dict) -> dict:
    """Round-trip through JSON so every result path renders identically."""
    return json.loads(json.dumps(payload))


# -- the report ---------------------------------------------------------------------


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile on pre-sorted values (numpy-free
    and bit-deterministic across platforms)."""
    if not sorted_values:
        raise ValueError("no values")
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = (q / 100.0) * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return sorted_values[lo]
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


@dataclass
class ReplayReport:
    """The aggregated outcome of one trace replay.

    ``shards`` holds the per-shard JSON payloads (one row per algorithm);
    the summary statistics are *derived* at render time, so a report that
    round-trips through :meth:`to_dict`/:meth:`from_dict` renders
    byte-identically.
    """

    source: str
    trace_format: str
    noise_model: str
    seed: int
    deadline_slack: float
    alpha: float
    shard_window: float
    algorithms: list[str]
    shards: list[dict]
    skipped: int = 0

    @property
    def n_jobs(self) -> int:
        return sum(s.get("n_jobs", 0) for s in self.shards)

    @property
    def failed_shards(self) -> list[dict]:
        """Shards with a non-result verdict (``error`` or ``timeout``)."""
        return [
            s
            for s in self.shards
            if s.get("status", "ok") in ("error", "timeout")
        ]

    def ratios_for(self, algorithm: str) -> list[float]:
        # failed shards (error/timeout) carry no rows — and a report read
        # from external JSON may omit the key entirely, so never index it
        return [
            row["energy_ratio"]
            for s in self.shards
            for row in s.get("rows") or []
            if row["algorithm"] == algorithm
        ]

    def summary_rows(self) -> list[list]:
        """Per-algorithm percentile summary over the shard energy ratios."""
        rows = []
        for name in self.algorithms:
            ratios = sorted(self.ratios_for(name))
            if not ratios:
                continue
            bound = None
            within = []
            for s in self.shards:
                for row in s.get("rows") or []:
                    if row["algorithm"] == name:
                        bound = row["paper_bound"]
                        within.append(row["within_bound"])
            all_within = (
                None
                if bound is None
                else all(w for w in within if w is not None)
            )
            rows.append(
                [
                    name,
                    len(ratios),
                    sum(ratios) / len(ratios),
                    _percentile(ratios, 50.0),
                    _percentile(ratios, 90.0),
                    _percentile(ratios, 99.0),
                    ratios[-1],
                    bound,
                    all_within,
                ]
            )
        return rows

    def render(self, max_shard_rows: int = 20) -> str:
        title = (
            f"[REPLAY] {self.source} — {self.trace_format} trace, "
            f"{len(self.shards)} shards / {self.n_jobs} jobs "
            f"(noise={self.noise_model}, seed={self.seed}, "
            f"alpha={self.alpha}, window={self.shard_window})"
        )
        out = render_table(
            [
                "algorithm",
                "shards",
                "mean",
                "p50",
                "p90",
                "p99",
                "max",
                "paper UB",
                "within",
            ],
            self.summary_rows(),
            title=title,
        )
        shard_rows = []
        for s in self.shards[:max_shard_rows]:
            status = s.get("status", "ok")
            rows = s.get("rows") or []
            if not rows:
                shard_rows.append(
                    [
                        s["index"],
                        s["start"],
                        s["end"],
                        s.get("n_jobs", 0),
                        "-",
                        status,
                        None,
                        None,
                        None,
                    ]
                )
            for row in rows:
                shard_rows.append(
                    [
                        s["index"],
                        s["start"],
                        s["end"],
                        s["n_jobs"],
                        row["algorithm"],
                        status,
                        row["energy_ratio"],
                        row["max_speed_ratio"],
                        row["within_bound"],
                    ]
                )
        out += "\n\n" + render_table(
            [
                "shard",
                "start",
                "end",
                "jobs",
                "algorithm",
                "status",
                "energy ratio",
                "speed ratio",
                "within",
            ],
            shard_rows,
        )
        if len(self.shards) > max_shard_rows:
            out += (
                f"\n({len(self.shards) - max_shard_rows} more shards not "
                "shown; serialize with --output for the full data)"
            )
        failed = self.failed_shards
        if failed:
            out += (
                f"\nwarning: {len(failed)} shard(s) have no results "
                f"({', '.join(str(s['index']) + ':' + s.get('status', '?') for s in failed)})"
            )
        if self.skipped:
            out += (
                f"\nnote: {self.skipped} trace records skipped "
                "(non-positive runtime or negative release)"
            )
        return out

    def to_dict(self) -> dict:
        return {
            "version": REPLAY_FORMAT_VERSION,
            "kind": "trace_replay_report",
            "source": self.source,
            "trace_format": self.trace_format,
            "noise_model": self.noise_model,
            "seed": self.seed,
            "deadline_slack": self.deadline_slack,
            "alpha": self.alpha,
            "shard_window": self.shard_window,
            "algorithms": list(self.algorithms),
            "skipped": self.skipped,
            "shards": self.shards,
        }

    @classmethod
    def from_dict(cls, data: dict) -> ReplayReport:
        return cls(
            source=str(data["source"]),
            trace_format=str(data["trace_format"]),
            noise_model=str(data["noise_model"]),
            seed=int(data["seed"]),
            deadline_slack=float(data["deadline_slack"]),
            alpha=float(data["alpha"]),
            shard_window=float(data["shard_window"]),
            algorithms=list(data["algorithms"]),
            shards=list(data["shards"]),
            skipped=int(data.get("skipped", 0)),
        )


@dataclass
class ReplayMetrics:
    """Execution metrics of one replay (stderr material, not report data).

    Timing and cache behaviour stay out of :class:`ReplayReport` so report
    output is deterministic; this carries the operational story instead.
    ``peak_resident_jobs`` is the largest number of jobs simultaneously
    held in memory (current shard + in-flight shards) — the number the
    bounded-memory test pins down.
    """

    shards: int = 0
    jobs: int = 0
    hits: int = 0
    misses: int = 0
    resumed: int = 0
    wall_time: float = 0.0
    peak_resident_jobs: int = 0
    cache_dir: str | None = None
    pool_jobs: int = 1
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    degraded: bool = False
    quarantined: int = 0
    failures: list[FailureInfo] = field(default_factory=list)

    def footer(self) -> str:
        rate = self.shards / self.wall_time if self.wall_time > 0 else 0.0
        cache_note = self.cache_dir if self.cache_dir else "disabled"
        out = (
            "---- replay " + "-" * 46 + "\n"
            f"{self.shards} shards / {self.jobs} jobs in "
            f"{self.wall_time:.3f}s ({rate:.2f} shards/s) | "
            f"{self.hits} hit / {self.misses} miss | "
            f"jobs={self.pool_jobs} | peak resident jobs="
            f"{self.peak_resident_jobs} | cache: {cache_note}"
        )
        if self.resumed:
            out += f"\nresumed: {self.resumed} shards from checkpoint"
        if (
            self.retries
            or self.timeouts
            or self.pool_rebuilds
            or self.degraded
            or self.quarantined
        ):
            out += (
                f"\nrecovery: {self.retries} retries | {self.timeouts} "
                f"timeouts | {self.pool_rebuilds} pool rebuilds | "
                f"{self.quarantined} quarantined"
                + (" | DEGRADED to serial" if self.degraded else "")
            )
        for fail in self.failures:
            out += f"\nfailed: {fail.summary_line()}"
        return out


# -- the replayer -------------------------------------------------------------------


class _ShardTask(HardenedTask):
    """One shard awaiting hardened evaluation."""

    __slots__ = ("doc", "key", "njobs")

    def __init__(self, doc: dict, key: str | None):
        super().__init__(f"shard:{doc['index']}")
        self.doc = doc
        self.key = key
        self.njobs = len(doc["instance"]["jobs"])


def replay_jobs(
    jobs_stream: Iterable[QJob],
    *,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    alpha: float = 3.0,
    shard_window: float = 3600.0,
    session: "ExecutionSession | None" = None,
    meta: dict | None = None,
    checkpoint: ReplayCheckpoint | None = None,
) -> tuple[ReplayReport, ReplayMetrics]:
    """Stream a release-sorted QJob iterable through sharded evaluation.

    ``session`` (an :class:`~repro.engine.session.ExecutionSession`)
    carries the whole execution context — pool, cache, hardening,
    observability, backend — and can be shared across replays (one cache
    handle).  ``None`` runs under a default ``ExecutionSession()`` built
    and closed inside the call.

    ``meta`` carries the provenance fields of the report (source, format,
    noise model, seed, deadline_slack, skipped) — :func:`replay_trace`
    fills them; direct callers may omit any.  Evaluation is serial for
    ``jobs <= 1``, else fanned over a process pool with at most
    ``2 * jobs`` shards in flight (the memory bound; with a
    ``task_timeout`` the driver further bounds submissions to free
    workers so queue wait never counts against a shard's deadline).

    Execution is hardened (``docs/robustness.md``): shards running past
    the session's ``task_timeout`` (pool mode) are cancelled and reported
    with verdict ``timeout``; transient failures retry under its ``retry``
    policy (injection coordinates are ``shard:<index>``); a broken pool is
    rebuilt once and then degraded to in-process evaluation; corrupt cache
    entries are quarantined and recomputed; a cache write that keeps
    failing is skipped with a :class:`RuntimeWarning`.  The replay always
    finishes — shards that could not be evaluated carry a
    ``status``/``failure`` record instead of rows.

    Observability (``docs/observability.md``): the session's ``tracer``
    (a :class:`repro.obs.Tracer`) records a ``batch`` span over the replay
    with ``cache-lookup`` / ``task`` / ``attempt`` child spans per shard;
    its ``metrics`` (a :class:`repro.obs.MetricsRegistry`) receives the
    ``qbss_cache_*`` and ``qbss_replay_*`` series.  Both are optional and
    never change report payloads.

    ``checkpoint`` (a :class:`~repro.traces.checkpoint.ReplayCheckpoint`)
    makes the replay restartable: every completed shard is durably
    appended before the replay moves on, and shards the checkpoint
    already holds are served from it (counted in ``metrics.resumed``)
    without touching cache or pool.  Failed shards are never
    checkpointed — they re-run on resume.
    """
    if session is None:
        with ExecutionSession() as owned:
            return replay_jobs(
                jobs_stream,
                algorithms=algorithms,
                alpha=alpha,
                shard_window=shard_window,
                session=owned,
                meta=meta,
                checkpoint=checkpoint,
            )
    jobs = session.pool_jobs
    package_version = session.package_version
    fault_plan = session.fault_plan
    tracer = session.tracer
    algorithms = validate_replay_algorithms(algorithms)
    registry = session.metrics
    store = session.store
    quarantined_before = store.quarantined if store is not None else 0
    meta = dict(meta or {})
    start_wall = time.perf_counter()
    metrics = ReplayMetrics(
        cache_dir=str(store.root) if store is not None else None,
        pool_jobs=max(1, jobs),
    )
    results: dict[int, dict] = {}
    resident = 0
    batch_span = (
        tracer.begin("batch", kind="replay", algorithms=len(algorithms))
        if tracer is not None
        else None
    )

    with installed_fault_plan(fault_plan):
        plan = fault_plan if fault_plan is not None else active_fault_plan()

        def shard_tasks() -> Iterator[_ShardTask]:
            """Shards still needing evaluation; cache hits recorded inline."""
            nonlocal resident
            for shard in iter_shards(jobs_stream, shard_window):
                metrics.shards += 1
                metrics.jobs += len(shard.jobs)
                doc = _shard_doc(shard)
                key = None
                if store is not None or checkpoint is not None:
                    key = shard_cache_key(doc, algorithms, alpha, package_version)
                if checkpoint is not None and key is not None:
                    stored = checkpoint.get(key)
                    if stored is not None:
                        payload = _normalise(stored)
                        payload.setdefault("status", "ok")
                        results[shard.index] = payload
                        metrics.resumed += 1
                        continue
                if store is not None and key is not None:
                    entry, _quarantined = session.cache_lookup(
                        key, task=f"shard:{shard.index}", parent=batch_span
                    )
                    if entry is not None:
                        payload = _normalise(entry["report"])
                        payload.setdefault("status", "ok")
                        results[shard.index] = payload
                        metrics.hits += 1
                        if checkpoint is not None:
                            checkpoint.record(key, dict(payload, status="ok"))
                        continue
                metrics.misses += 1
                task = _ShardTask(doc, key)
                if store is not None and key is not None:
                    # Remote workers publish the shard verdict by digest
                    # before replying — the shared cache is the
                    # coordination point on worker loss.
                    task.publish = {
                        "key": key,
                        "experiment": "trace-shard",
                        "params": {
                            "algorithms": list(algorithms),
                            "alpha": alpha,
                        },
                        "package_version": package_version,
                        "wrap_status": True,
                    }
                resident += task.njobs
                metrics.peak_resident_jobs = max(
                    metrics.peak_resident_jobs, resident
                )
                yield task

        def on_success(task: _ShardTask, outcome: dict, degraded: bool) -> None:
            nonlocal resident
            resident -= task.njobs
            payload = _normalise(outcome["payload"])
            if store is not None and task.key is not None:
                # Cache the mode-independent verdict: a degraded result is
                # still the correct result, so warm replays serve it as ok.
                session.cache_put(
                    task,
                    task.key,
                    "trace-shard",
                    {"algorithms": list(algorithms), "alpha": alpha},
                    dict(payload, status="ok"),
                    outcome["wall"],
                )
            if checkpoint is not None and task.key is not None:
                checkpoint.record(
                    task.key,
                    dict(payload, status="ok"),
                    torn=plan is not None
                    and plan.wants_torn_write(task.task_key, task.attempt),
                )
            payload["status"] = "degraded" if degraded else "ok"
            results[task.doc["index"]] = payload

        def on_failure(task: _ShardTask, kind: str, error: str | None) -> None:
            nonlocal resident
            resident -= task.njobs
            failure = FailureInfo(
                task=task.task_key,
                kind=kind,
                attempts=task.attempt,
                wall_times=list(task.walls),
                traceback=error,
            )
            metrics.failures.append(failure)
            doc = task.doc
            results[doc["index"]] = _normalise(
                {
                    "index": doc["index"],
                    "start": doc["start"],
                    "end": doc["end"],
                    "n_jobs": len(doc["instance"]["jobs"]),
                    "rows": [],
                    "status": "timeout" if kind == "timeout" else "error",
                    "failure": failure.to_dict(),
                }
            )

        stats = session.execute(
            shard_tasks(),
            worker=_evaluate_shard_task,
            payload=lambda t: (t.doc, algorithms, alpha, t.task_key),
            on_success=on_success,
            on_failure=on_failure,
            max_inflight=2 * jobs if jobs > 1 else None,
            trace_parent=batch_span,
        )

    metrics.retries = stats.retries
    metrics.timeouts = stats.timeouts
    metrics.pool_rebuilds = stats.pool_rebuilds
    metrics.degraded = stats.degraded
    metrics.quarantined = (
        store.quarantined - quarantined_before if store is not None else 0
    )
    metrics.wall_time = time.perf_counter() - start_wall
    if tracer is not None:
        tracer.end(
            batch_span,
            status="degraded" if metrics.degraded else "ok",
            shards=metrics.shards,
            failures=len(metrics.failures),
        )
    report = ReplayReport(
        source=str(meta.get("source", "<stream>")),
        trace_format=str(meta.get("trace_format", "jobs")),
        noise_model=str(meta.get("noise_model", "none")),
        seed=int(meta.get("seed", 0)),
        deadline_slack=float(meta.get("deadline_slack", 0.0)),
        alpha=alpha,
        shard_window=shard_window,
        algorithms=list(algorithms),
        shards=[results[i] for i in sorted(results)],
        skipped=int(meta.get("skipped", 0)),
    )
    if registry is not None:
        from ..obs.publish import publish_replay

        publish_replay(registry, report, metrics)
    return report, metrics


TRACE_FORMATS = ("swf", "csv", "jsonl")


def detect_format(path) -> str:
    """Guess the trace format from the file extension."""
    suffix = str(path).rsplit(".", 1)[-1].lower()
    if suffix in TRACE_FORMATS:
        return suffix
    raise ValueError(
        f"cannot detect trace format from {path!r}; "
        f"pass --format (one of: {', '.join(TRACE_FORMATS)})"
    )


def replay_trace(
    path,
    *,
    trace_format: str = "auto",
    noise_model: str = "multiplicative",
    seed: int = 0,
    deadline_slack: float = 2.0,
    limit: int | None = None,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    alpha: float = 3.0,
    shard_window: float = 3600.0,
    session: ExecutionSession | None = None,
    checkpoint: ReplayCheckpoint | None = None,
) -> tuple[ReplayReport, ReplayMetrics]:
    """End-to-end replay: parse ``path``, synthesize uncertainty, shard,
    evaluate, aggregate.  The trace is streamed — bounded memory holds for
    arbitrarily large files.  ``session`` carries the execution context
    and ``checkpoint`` makes the replay restartable, exactly as for
    :func:`replay_jobs`."""
    import itertools

    from .records import ParseStats
    from .swf import parse_swf
    from .synthesize import synthesize_jobs
    from .tabular import parse_csv, parse_jsonl

    fmt = detect_format(path) if trace_format == "auto" else trace_format
    parsers = {"swf": parse_swf, "csv": parse_csv, "jsonl": parse_jsonl}
    if fmt not in parsers:
        raise ValueError(
            f"unknown trace format {fmt!r} (one of: {', '.join(TRACE_FORMATS)})"
        )
    stats = ParseStats()
    records = parsers[fmt](path, stats)
    if limit is not None:
        records = itertools.islice(records, limit)
    stream = synthesize_jobs(
        records, model=noise_model, seed=seed, deadline_slack=deadline_slack
    )
    registry = session.metrics if session is not None else None
    report, metrics = replay_jobs(
        stream,
        algorithms=algorithms,
        alpha=alpha,
        shard_window=shard_window,
        session=session,
        checkpoint=checkpoint,
        meta={
            "source": str(path),
            "trace_format": fmt,
            "noise_model": noise_model,
            "seed": seed,
            "deadline_slack": deadline_slack,
        },
    )
    # the stream is exhausted now, so the parser's tallies are complete
    report.skipped = stats.skipped
    if registry is not None and stats.skipped:
        # replay_jobs published before this tally existed; top it up.
        from ..obs.publish import publish_skipped

        publish_skipped(registry, stats.skipped)
    return report, metrics
