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

from typing import TYPE_CHECKING

from .. import _lazy

#: Package-level name -> the submodule that defines it (loaded on first use).
_SOURCES = {
    "Backend": "backends",
    "BackendBroken": "backends",
    "PoolBackend": "backends",
    "RemoteBackend": "backends",
    "create_backend": "backends",
    "parse_backend_spec": "backends",
    "CACHE_FORMAT_VERSION": "cache",
    "QUARANTINE_DIRNAME": "cache",
    "PruneStats": "cache",
    "ResultCache": "cache",
    "cache_key": "cache",
    "default_cache_dir": "cache",
    "parse_prune_spec": "cache",
    "FAULT_PLAN_ENV": "faults",
    "FailureInfo": "faults",
    "FaultPlan": "faults",
    "FaultSpec": "faults",
    "InjectedFault": "faults",
    "InjectedTransientFault": "faults",
    "RetryPolicy": "faults",
    "TransientError": "faults",
    "WorkerCrashError": "faults",
    "EngineResult": "runner",
    "ExecutionStats": "runner",
    "ExperimentRun": "runner",
    "HardenedTask": "runner",
    "RunMetrics": "runner",
    "execute_hardened": "runner",
    "resolve_jobs": "runner",
    "run_experiments": "runner",
    "ExecutionSession": "session",
}

__all__ = list(_SOURCES)

__getattr__, __dir__ = _lazy.attach(__name__, _SOURCES)

if TYPE_CHECKING:
    from .backends import (
        Backend as Backend,
        BackendBroken as BackendBroken,
        PoolBackend as PoolBackend,
        RemoteBackend as RemoteBackend,
        create_backend as create_backend,
        parse_backend_spec as parse_backend_spec,
    )
    from .cache import (
        CACHE_FORMAT_VERSION as CACHE_FORMAT_VERSION,
        QUARANTINE_DIRNAME as QUARANTINE_DIRNAME,
        PruneStats as PruneStats,
        ResultCache as ResultCache,
        cache_key as cache_key,
        default_cache_dir as default_cache_dir,
        parse_prune_spec as parse_prune_spec,
    )
    from .faults import (
        FAULT_PLAN_ENV as FAULT_PLAN_ENV,
        FailureInfo as FailureInfo,
        FaultPlan as FaultPlan,
        FaultSpec as FaultSpec,
        InjectedFault as InjectedFault,
        InjectedTransientFault as InjectedTransientFault,
        RetryPolicy as RetryPolicy,
        TransientError as TransientError,
        WorkerCrashError as WorkerCrashError,
    )
    from .runner import (
        EngineResult as EngineResult,
        ExecutionStats as ExecutionStats,
        ExperimentRun as ExperimentRun,
        HardenedTask as HardenedTask,
        RunMetrics as RunMetrics,
        execute_hardened as execute_hardened,
        resolve_jobs as resolve_jobs,
        run_experiments as run_experiments,
    )
    from .session import ExecutionSession as ExecutionSession
