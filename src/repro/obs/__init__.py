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

from typing import TYPE_CHECKING

from .. import _lazy

#: Package-level name -> the submodule that defines it (loaded on first use).
_SOURCES = {
    "MANIFEST_FORMAT_VERSION": "manifest",
    "MANIFEST_KIND": "manifest",
    "RunManifest": "manifest",
    "DEFAULT_BUCKETS": "metrics",
    "METRICS_FORMAT_VERSION": "metrics",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "parse_prometheus_text": "metrics",
    "write_metrics": "metrics",
    "publish_engine_result": "publish",
    "publish_replay": "publish",
    "EVENT_BEGIN": "trace",
    "EVENT_END": "trace",
    "EVENT_POINT": "trace",
    "SpanHandle": "trace",
    "Tracer": "trace",
    "read_trace": "trace",
    "span_tree": "trace",
}

__all__ = list(_SOURCES)

__getattr__, __dir__ = _lazy.attach(__name__, _SOURCES)

if TYPE_CHECKING:
    from .manifest import (
        MANIFEST_FORMAT_VERSION as MANIFEST_FORMAT_VERSION,
        MANIFEST_KIND as MANIFEST_KIND,
        RunManifest as RunManifest,
    )
    from .metrics import (
        DEFAULT_BUCKETS as DEFAULT_BUCKETS,
        METRICS_FORMAT_VERSION as METRICS_FORMAT_VERSION,
        Counter as Counter,
        Gauge as Gauge,
        Histogram as Histogram,
        MetricsRegistry as MetricsRegistry,
        parse_prometheus_text as parse_prometheus_text,
        write_metrics as write_metrics,
    )
    from .publish import (
        publish_engine_result as publish_engine_result,
        publish_replay as publish_replay,
    )
    from .trace import (
        EVENT_BEGIN as EVENT_BEGIN,
        EVENT_END as EVENT_END,
        EVENT_POINT as EVENT_POINT,
        SpanHandle as SpanHandle,
        Tracer as Tracer,
        read_trace as read_trace,
        span_tree as span_tree,
    )
