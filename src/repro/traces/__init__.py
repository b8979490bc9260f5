"""Workload-trace ingestion, uncertainty synthesis and streaming replay.

The pipeline this package provides::

    trace file  --parse-->  TraceRecord stream  --synthesize-->  QJob stream
                --shard-->  time-window shards  --evaluate-->  ReplayReport

* :mod:`repro.traces.swf` / :mod:`repro.traces.tabular` — lazy, strictly
  validated parsers for SWF cluster logs and the generic
  ``release,deadline,runtime[,query_cost]`` CSV/JSONL schema;
* :mod:`repro.traces.synthesize` — pluggable noise models mapping each
  observed runtime to a QBSS job ``(r, d, c, w, w*)`` with ``w* = runtime``
  and seeded per-record determinism;
* :mod:`repro.traces.replay` — the sharded streaming replayer (bounded
  memory, process-pool fan-out, content-addressed shard cache) and the
  :class:`~repro.traces.replay.ReplayReport` it aggregates.

CLI surface: ``qbss-replay`` (see :mod:`repro.cli`).
"""

from typing import TYPE_CHECKING

from .. import _lazy

#: Package-level name -> the submodule that defines it (loaded on first use).
_SOURCES = {
    "ParseStats": "records",
    "TraceOrderError": "records",
    "TraceParseError": "records",
    "TraceRecord": "records",
    "DEFAULT_ALGORITHMS": "replay",
    "REPLAY_FORMAT_VERSION": "replay",
    "SHARD_STATUSES": "replay",
    "TRACE_FORMATS": "replay",
    "ReplayMetrics": "replay",
    "ReplayReport": "replay",
    "Shard": "replay",
    "detect_format": "replay",
    "iter_shards": "replay",
    "paper_energy_bound": "replay",
    "replay_jobs": "replay",
    "replay_trace": "replay",
    "shard_cache_key": "replay",
    "validate_replay_algorithms": "replay",
    "parse_swf": "swf",
    "NOISE_MODELS": "synthesize",
    "NoiseModel": "synthesize",
    "get_noise_model": "synthesize",
    "synthesize_job": "synthesize",
    "synthesize_jobs": "synthesize",
    "parse_csv": "tabular",
    "parse_jsonl": "tabular",
}

__all__ = list(_SOURCES)

__getattr__, __dir__ = _lazy.attach(__name__, _SOURCES)

if TYPE_CHECKING:
    from .records import (
        ParseStats as ParseStats,
        TraceOrderError as TraceOrderError,
        TraceParseError as TraceParseError,
        TraceRecord as TraceRecord,
    )
    from .replay import (
        DEFAULT_ALGORITHMS as DEFAULT_ALGORITHMS,
        REPLAY_FORMAT_VERSION as REPLAY_FORMAT_VERSION,
        SHARD_STATUSES as SHARD_STATUSES,
        TRACE_FORMATS as TRACE_FORMATS,
        ReplayMetrics as ReplayMetrics,
        ReplayReport as ReplayReport,
        Shard as Shard,
        detect_format as detect_format,
        iter_shards as iter_shards,
        paper_energy_bound as paper_energy_bound,
        replay_jobs as replay_jobs,
        replay_trace as replay_trace,
        shard_cache_key as shard_cache_key,
        validate_replay_algorithms as validate_replay_algorithms,
    )
    from .swf import parse_swf as parse_swf
    from .synthesize import (
        NOISE_MODELS as NOISE_MODELS,
        NoiseModel as NoiseModel,
        get_noise_model as get_noise_model,
        synthesize_job as synthesize_job,
        synthesize_jobs as synthesize_jobs,
    )
    from .tabular import parse_csv as parse_csv, parse_jsonl as parse_jsonl
