"""Structured observability: run tracing, metrics export, run manifests.

``repro.obs`` is the forensic layer of the engine and replay stacks
(``docs/observability.md``).  Three independent pieces:

* :class:`Tracer` — span-based JSON-lines run traces (``--trace-out``),
  nested batch → task → attempt → cache-lookup, zero-cost when disabled;
* :class:`MetricsRegistry` — counters/gauges/histograms published by the
  cache, the hardened driver and both report paths, exportable as JSON or
  Prometheus text (``--metrics-out``);
* :class:`RunManifest` — the reproducibility record written alongside a
  report (``--manifest-out``), round-tripping through :mod:`repro.io`.

:mod:`repro.obs.lockwatch` is the lock construction seam of the
concurrent components: plain ``threading`` primitives, or watched ones
that record acquisition order while a ``LockWatcher`` is installed (every
test session installs one).  It lives here, not in :mod:`repro.lint`, so
production code never imports the linter.

Quick start::

    from repro.engine import ExecutionSession, run_experiments
    from repro.obs import MetricsRegistry, Tracer

    registry = MetricsRegistry()
    with Tracer.to_path("run.trace.jsonl") as tracer:
        session = ExecutionSession(tracer=tracer, metrics=registry)
        with session:
            result = run_experiments(["rho"], session=session)
    print(registry.to_prometheus())
"""

from .manifest import MANIFEST_FORMAT_VERSION, MANIFEST_KIND, RunManifest
from .metrics import (
    DEFAULT_BUCKETS,
    METRICS_FORMAT_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
    write_metrics,
)
from .publish import publish_engine_result, publish_replay
from .trace import (
    EVENT_BEGIN,
    EVENT_END,
    EVENT_POINT,
    SpanHandle,
    Tracer,
    read_trace,
    span_tree,
)

__all__ = [
    "MANIFEST_FORMAT_VERSION",
    "MANIFEST_KIND",
    "RunManifest",
    "DEFAULT_BUCKETS",
    "METRICS_FORMAT_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus_text",
    "write_metrics",
    "publish_engine_result",
    "publish_replay",
    "EVENT_BEGIN",
    "EVENT_END",
    "EVENT_POINT",
    "SpanHandle",
    "Tracer",
    "read_trace",
    "span_tree",
]
