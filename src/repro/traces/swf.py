"""Standard Workload Format (SWF) parser.

SWF is the archive format of the Parallel Workloads Archive: ``;``-prefixed
header comments followed by data lines of 18 whitespace-separated fields.
The fields this layer uses:

====  ====================  =============================================
 #    name                  use here
====  ====================  =============================================
 1    job number            record id
 2    submit time           release ``r`` (seconds from trace start)
 4    run time              observed runtime — the exact load ``w*``
 9    requested time        user's estimate — seeds the upper bound ``w``
====  ====================  =============================================

Parsing is *lazy* (a generator over the open file) and *strict*: a data
line with fewer than 18 fields or a non-numeric field raises
:class:`~repro.traces.records.TraceParseError` with the file and line
number.  Lines the QBSS model cannot represent — runtime ``<= 0`` (SWF
writes ``-1`` for missing, ``0`` for cancelled jobs) or negative submit
time — are skipped and tallied in :class:`~repro.traces.records.ParseStats`.
"""

from __future__ import annotations

import math
from pathlib import Path
from collections.abc import Iterator

from .records import ParseStats, TraceParseError, TraceRecord

PathLike = str | Path

#: SWF data lines carry exactly 18 fields; we accept trailing extras
#: (some archives append site-specific columns) but never fewer.
SWF_FIELDS = 18


def parse_swf(
    path: PathLike, stats: ParseStats | None = None
) -> Iterator[TraceRecord]:
    """Lazily yield :class:`TraceRecord` from an SWF file.

    ``stats``, when given, is updated in place as the iterator is consumed
    (emitted/skipped tallies).  The file is read line by line — a
    million-job log never materializes in memory.
    """
    source = str(path)
    stats = stats if stats is not None else ParseStats()
    with open(path, encoding="utf-8", errors="replace") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith(";"):
                continue
            fields = line.split()
            if len(fields) < SWF_FIELDS:
                raise TraceParseError(
                    source,
                    lineno,
                    f"SWF data line has {len(fields)} fields, "
                    f"expected {SWF_FIELDS} "
                    "(is this really a Standard Workload Format file?)",
                )
            try:
                job_id = fields[0]
                submit = float(fields[1])
                runtime = float(fields[3])
                requested = float(fields[8])
            except ValueError as exc:
                raise TraceParseError(
                    source, lineno, f"non-numeric SWF field: {exc}"
                ) from None
            for name, value in (
                ("submit", submit), ("runtime", runtime), ("requested", requested)
            ):
                if not math.isfinite(value):
                    raise TraceParseError(
                        source, lineno, f"SWF field {name} must be finite, got {value}"
                    )
            if runtime <= 0.0:
                stats.skip("non-positive runtime")
                continue
            if submit < 0.0:
                stats.skip("negative submit time")
                continue
            yield TraceRecord(
                index=stats.emitted,
                id=f"swf-{job_id}",
                release=submit,
                runtime=runtime,
                requested=requested if requested > 0.0 else None,
            )
            stats.emitted += 1
