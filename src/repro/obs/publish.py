"""Publishers: one place where engine/replay results become metric series.

The execution layer keeps its own structured result types
(:class:`~repro.engine.runner.EngineResult`,
:class:`~repro.traces.replay.ReplayMetrics`, both extending
:class:`~repro.engine.runner.ExecutionStats`); these helpers map them onto
the registry's name taxonomy so the CLI footers, the JSON/Prometheus
export and the trace stream all describe the same numbers.  Cache
hit/miss/quarantine/prune series are *not* published here — the
:class:`~repro.engine.cache.ResultCache` increments those live when a
registry is threaded into it, so a long campaign can be scraped mid-run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .metrics import MetricsRegistry

if TYPE_CHECKING:  # annotations only: repro.obs never imports the engine
    from ..engine.runner import EngineResult, ExecutionStats
    from ..traces.replay import ReplayMetrics, ReplayReport

#: Wall-time histogram buckets for experiment/shard execution (seconds).
WALL_BUCKETS = (0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0)


def publish_engine_result(registry: MetricsRegistry, result: EngineResult) -> None:
    """Publish an :class:`~repro.engine.runner.EngineResult`."""
    for run in result.runs:
        m = run.metrics
        registry.counter(
            "qbss_experiments_total",
            "Experiments evaluated, by final status.",
            status=m.status,
        ).inc()
        registry.counter(
            "qbss_rows_total", "Report rows produced by evaluated experiments."
        ).inc(m.rows)
        registry.histogram(
            "qbss_task_wall_seconds",
            "Wall time per experiment (all attempts).",
            buckets=WALL_BUCKETS,
        ).observe(m.wall_time)
        registry.counter(
            "qbss_task_attempts_total", "Execution attempts across all tasks."
        ).inc(m.attempts if not m.cache_hit else 0)
    _publish_recovery(registry, result)


def publish_replay(
    registry: MetricsRegistry, report: ReplayReport, metrics: ReplayMetrics
) -> None:
    """Publish a replay's :class:`~repro.traces.replay.ReplayMetrics` +
    per-shard verdicts from the :class:`~repro.traces.replay.ReplayReport`."""
    for shard in report.shards:
        registry.counter(
            "qbss_replay_shards_total",
            "Replay shards evaluated, by final status.",
            status=str(shard.get("status", "ok")),
        ).inc()
    registry.counter(
        "qbss_replay_trace_jobs_total", "Trace jobs streamed through replay."
    ).inc(metrics.jobs)
    registry.gauge(
        "qbss_replay_peak_resident_jobs",
        "Peak jobs simultaneously resident (memory bound witness).",
    ).set(metrics.peak_resident_jobs)
    registry.gauge(
        "qbss_replay_wall_seconds", "Wall time of the whole replay."
    ).set(metrics.wall_time)
    publish_skipped(registry, report.skipped)
    _publish_recovery(registry, metrics)


def publish_skipped(registry: MetricsRegistry, skipped: int) -> None:
    """Count parser-dropped trace records.

    Split out of :func:`publish_replay` because :func:`replay_trace` only
    learns the parser's tally after the inner :func:`replay_jobs` call has
    published — it tops the counter up with the late-arriving amount.
    """
    registry.counter(
        "qbss_replay_records_skipped_total",
        "Trace records dropped by the parser as unusable.",
    ).inc(skipped)


def _publish_recovery(registry: MetricsRegistry, stats: ExecutionStats) -> None:
    """The shared recovery counters of an engine result or replay metrics."""
    registry.counter(
        "qbss_retries_total", "Transient-failure retries issued."
    ).inc(stats.retries)
    registry.counter(
        "qbss_timeouts_total", "Tasks cancelled at their deadline."
    ).inc(stats.timeouts)
    registry.counter(
        "qbss_pool_rebuilds_total", "Process pools replaced (crash or hang)."
    ).inc(stats.pool_rebuilds)
    registry.gauge(
        "qbss_degraded", "1 when execution degraded to in-process serial."
    ).set(1.0 if stats.degraded else 0.0)
