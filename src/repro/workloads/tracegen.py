"""Synthetic trace *files* — ground truth for the trace pipeline.

Where :mod:`repro.workloads.generators` builds in-memory instances, this
module writes trace files in the external formats :mod:`repro.traces`
ingests (SWF, CSV, JSONL), so benchmarks and tests can exercise the full
parse → synthesize → shard → evaluate pipeline on traces of any size
without shipping megabytes of archive data.

Arrivals are a Poisson process (exponential inter-arrival times, so the
stream is release-sorted by construction); runtimes are lognormal; the
SWF "requested time" over-estimates the runtime by a uniform factor, as
real users do.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

PathLike = str | Path

#: One SWF record from (job number, submit time, run time, requested time).
#: Fields: 1 job number, 2 submit time, 3 wait time, 4 run time, 5 allocated
#: processors, 6 average CPU time, 7 used memory, 8 requested processors,
#: 9 requested time, 10 requested memory, 11 status, 12 user id, 13 group
#: id, 14 executable number, 15 queue number, 16 partition number, 17
#: preceding job, 18 think time.  The ones the parser ignores carry the
#: conventional ``-1`` placeholders.
_SWF_ROW = "%d %.3f -1 %.3f 1 -1 -1 1 %.3f -1 1 -1 -1 -1 1 -1 -1 -1\n"


def _draw_jobs(n: int, seed: int, arrival_rate: float, runtime_sigma: float):
    rng = np.random.default_rng(seed)
    releases = np.cumsum(rng.exponential(1.0 / arrival_rate, size=n))
    runtimes = rng.lognormal(mean=0.0, sigma=runtime_sigma, size=n)
    requested = runtimes * rng.uniform(1.1, 4.0, size=n)
    return releases, runtimes, requested


def write_synthetic_swf(
    path: PathLike,
    n: int,
    seed: int = 0,
    *,
    arrival_rate: float = 0.02,
    runtime_sigma: float = 1.0,
) -> Path:
    """Write an ``n``-job Standard Workload Format file.

    ``arrival_rate`` is jobs per trace-time unit (the default 0.02 spreads
    10k jobs over ~500k "seconds" — a plausible week of cluster log).
    All 18 SWF fields are emitted; the ones the parser ignores carry the
    conventional ``-1`` placeholders.
    """
    releases, runtimes, requested = _draw_jobs(
        n, seed, arrival_rate, runtime_sigma
    )
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("; Synthetic SWF trace (repro.workloads.tracegen)\n")
        handle.write(f"; MaxJobs: {n}\n")
        handle.write(f"; Note: seed={seed} arrival_rate={arrival_rate}\n")
        handle.writelines(
            _SWF_ROW % row
            for row in zip(
                range(1, n + 1), releases.tolist(), runtimes.tolist(), requested.tolist()
            )
        )
    return path


def write_synthetic_tabular(
    path: PathLike,
    n: int,
    seed: int = 0,
    *,
    fmt: str = "csv",
    arrival_rate: float = 0.02,
    runtime_sigma: float = 1.0,
    deadline_slack: float = 3.0,
    with_query_cost: bool = False,
) -> Path:
    """Write an ``n``-job trace in the generic CSV or JSONL schema.

    Deadlines are ``release + deadline_slack x runtime``; with
    ``with_query_cost`` a ``query_cost`` column of a fraction of the
    runtime is included.
    """
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"fmt must be 'csv' or 'jsonl', got {fmt!r}")
    releases, runtimes, _requested = _draw_jobs(
        n, seed, arrival_rate, runtime_sigma
    )
    rng = np.random.default_rng((seed, 1))
    costs = runtimes * rng.uniform(0.05, 0.5, size=n)
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if fmt == "csv":
            header = "release,deadline,runtime"
            if with_query_cost:
                header += ",query_cost"
            handle.write(header + "\n")
        for i in range(n):
            deadline = releases[i] + deadline_slack * runtimes[i]
            if fmt == "csv":
                cells = [
                    f"{releases[i]:.3f}",
                    f"{deadline:.3f}",
                    f"{runtimes[i]:.3f}",
                ]
                if with_query_cost:
                    cells.append(f"{costs[i]:.3f}")
                handle.write(",".join(cells) + "\n")
            else:
                row = {
                    "release": round(float(releases[i]), 3),
                    "deadline": round(float(deadline), 3),
                    "runtime": round(float(runtimes[i]), 3),
                }
                if with_query_cost:
                    row["query_cost"] = round(float(costs[i]), 3)
                handle.write(json.dumps(row) + "\n")
    return path
