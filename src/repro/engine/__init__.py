"""Parallel, cached, fault-tolerant execution of the experiment registry.

The engine is the execution subsystem behind ``qbss-report``: it fans
:data:`repro.analysis.experiments.REGISTRY` entries out over a process
pool, serves warm re-runs from a content-addressed on-disk cache keyed by
``(experiment, resolved kwargs, package version)``, and reports structured
per-run metrics (wall time, cache hit/miss, row counts).

Execution is hardened (``docs/robustness.md``): per-task deadlines,
deterministic retry of transient failures (:class:`RetryPolicy`),
pool-crash recovery with graceful degradation to serial, quarantine of
corrupt cache entries, and a deterministic fault-injection harness
(:class:`FaultPlan`) for proving every recovery path.

Execution context — pool size, cache, hardening, observability and
backend — travels as one :class:`ExecutionSession`.  Quick start::

    from repro.engine import ExecutionSession, RetryPolicy, run_experiments

    with ExecutionSession(
        jobs=2, task_timeout=300.0, retry=RetryPolicy(max_attempts=3)
    ) as session:
        result = run_experiments(["rho", "lemma42"], session=session)
    for run in result.runs:
        print(run.name, run.metrics.wall_time, run.metrics.cache_hit)
    print(result.footer())
    print(result.summary()["failures"])
"""

from .backends import (
    Backend,
    BackendBroken,
    PoolBackend,
    RemoteBackend,
    create_backend,
    parse_backend_spec,
)
from .cache import (
    CACHE_FORMAT_VERSION,
    QUARANTINE_DIRNAME,
    PruneStats,
    ResultCache,
    cache_key,
    default_cache_dir,
    parse_prune_spec,
)
from .faults import (
    FAULT_PLAN_ENV,
    FailureInfo,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    InjectedTransientFault,
    RetryPolicy,
    TransientError,
    WorkerCrashError,
)
from .runner import (
    EngineResult,
    ExecutionStats,
    ExperimentRun,
    HardenedTask,
    RunMetrics,
    execute_hardened,
    resolve_jobs,
    run_experiments,
)
from .session import ExecutionSession

__all__ = [
    "Backend",
    "BackendBroken",
    "PoolBackend",
    "RemoteBackend",
    "create_backend",
    "parse_backend_spec",
    "CACHE_FORMAT_VERSION",
    "QUARANTINE_DIRNAME",
    "PruneStats",
    "ResultCache",
    "cache_key",
    "default_cache_dir",
    "parse_prune_spec",
    "FAULT_PLAN_ENV",
    "FailureInfo",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedTransientFault",
    "RetryPolicy",
    "TransientError",
    "WorkerCrashError",
    "EngineResult",
    "ExecutionStats",
    "ExperimentRun",
    "HardenedTask",
    "RunMetrics",
    "execute_hardened",
    "resolve_jobs",
    "run_experiments",
    "ExecutionSession",
]
