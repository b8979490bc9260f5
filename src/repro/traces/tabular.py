"""Generic tabular trace parsers: CSV and JSONL.

The schema is ``release,deadline,runtime[,query_cost][,id]`` — the minimal
information needed to build a QBSS job around an observed runtime.  CSV
files carry a header row naming the columns (any order, unknown columns
rejected); JSONL files carry one object per line with the same keys.

Validation is strict and per-line — every violation raises
:class:`~repro.traces.records.TraceParseError` with the file and 1-based
line number:

* every line is UTF-8 (a byte that is not names its own line);
* ``release >= 0`` and finite;
* ``runtime > 0`` and finite (it becomes the exact load ``w*``);
* ``deadline > release`` (the window must be non-empty);
* ``query_cost > 0`` when present.

Unlike SWF (whose archives encode missing data as ``-1``), this schema is
ours, so there is no skip policy: a tabular trace with a bad record is a
bad trace.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from .records import ParseStats, TraceParseError, TraceRecord

if TYPE_CHECKING:
    import _csv

PathLike = str | Path

REQUIRED_COLUMNS = ("release", "deadline", "runtime")
OPTIONAL_COLUMNS = ("query_cost", "id")

#: What ``errors="surrogateescape"`` decodes a byte that is not UTF-8 to.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _utf8_lines(source: str, lines: Iterable[str]) -> Iterator[str]:
    """The lines of a trace opened with ``errors="surrogateescape"``.

    Decoding strictly would raise ``UnicodeDecodeError`` from the text
    decoder, which reads ahead in 8 KiB chunks, so no line number could be
    put on it.  Escaped, every line decodes, and a byte that is not UTF-8
    raises here, with the line it is on.
    """
    for lineno, line in enumerate(lines, start=1):
        bad = _ESCAPED_BYTE.search(line)
        if bad:
            raise TraceParseError(
                source,
                lineno,
                f"invalid UTF-8: byte 0x{ord(bad.group()) - 0xDC00:02x} "
                f"at character {bad.start() + 1}",
            )
        yield line


def _validated_record(
    source: str, lineno: int, row: dict[str, object], index: int
) -> TraceRecord:
    """Build one validated TraceRecord from a parsed row dict."""

    def number(key: str) -> float:
        if isinstance(row[key], bool):  # JSON true/false: float() takes them
            raise TraceParseError(
                source, lineno, f"column {key!r} is not a number: {row[key]!r}"
            )
        try:
            value = float(row[key])  # type: ignore[arg-type]
        except (TypeError, ValueError, OverflowError):
            raise TraceParseError(
                source, lineno, f"column {key!r} is not a number: {row[key]!r}"
            ) from None
        if not math.isfinite(value):
            raise TraceParseError(
                source, lineno, f"column {key!r} must be finite, got {value}"
            )
        return value

    release = number("release")
    deadline = number("deadline")
    runtime = number("runtime")
    if release < 0.0:
        raise TraceParseError(
            source, lineno, f"release must be >= 0, got {release}"
        )
    if runtime <= 0.0:
        raise TraceParseError(
            source, lineno, f"runtime must be > 0, got {runtime}"
        )
    if deadline <= release:
        raise TraceParseError(
            source,
            lineno,
            f"deadline ({deadline}) must exceed release ({release})",
        )
    query_cost: float | None = None
    if row.get("query_cost") not in (None, ""):
        query_cost = number("query_cost")
        if query_cost <= 0.0:
            raise TraceParseError(
                source, lineno, f"query_cost must be > 0, got {query_cost}"
            )
    raw_id = row.get("id")
    job_id = str(raw_id) if raw_id not in (None, "") else f"t{index}"
    return TraceRecord(
        index=index,
        id=job_id,
        release=release,
        runtime=runtime,
        deadline=deadline,
        query_cost=query_cost,
    )


def _csv_records(source: str, reader: _csv.Reader) -> Iterator[list[str]]:
    """``reader``'s records, with its errors located (a cell over the csv
    module's field size limit raises ``csv.Error``)."""
    try:
        yield from reader
    except csv.Error as exc:
        raise TraceParseError(
            source, reader.line_num, f"malformed CSV: {exc}"
        ) from None


def parse_csv(
    path: PathLike, stats: ParseStats | None = None
) -> Iterator[TraceRecord]:
    """Lazily yield records from a CSV trace (header row required)."""
    source = str(path)
    stats = stats if stats is not None else ParseStats()
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as handle:
        reader = csv.reader(_utf8_lines(source, handle))
        records = _csv_records(source, reader)
        try:
            header = next(records)
        except StopIteration:
            raise TraceParseError(source, 1, "empty CSV trace") from None
        columns = [c.strip().lower() for c in header]
        missing = [c for c in REQUIRED_COLUMNS if c not in columns]
        if missing:
            raise TraceParseError(
                source,
                1,
                f"missing required columns {missing}; "
                f"schema is release,deadline,runtime[,query_cost][,id]",
            )
        unknown = [
            c
            for c in columns
            if c not in REQUIRED_COLUMNS + OPTIONAL_COLUMNS
        ]
        if unknown:
            raise TraceParseError(
                source, 1, f"unknown columns {unknown} (strict schema)"
            )
        for cells in records:
            # A quoted cell can span lines: name the line the record ends on.
            lineno = reader.line_num
            if not cells or all(not c.strip() for c in cells):
                continue
            if len(cells) != len(columns):
                raise TraceParseError(
                    source,
                    lineno,
                    f"expected {len(columns)} cells, got {len(cells)}",
                )
            row = dict(zip(columns, (c.strip() for c in cells)))
            yield _validated_record(source, lineno, row, stats.emitted)
            stats.emitted += 1


def parse_jsonl(
    path: PathLike, stats: ParseStats | None = None
) -> Iterator[TraceRecord]:
    """Lazily yield records from a JSONL trace (one object per line)."""
    source = str(path)
    stats = stats if stats is not None else ParseStats()
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(_utf8_lines(source, handle), start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # ValueError also covers an integer over the digit limit;
                # RecursionError is nesting too deep to decode.
                raise TraceParseError(
                    source, lineno, f"invalid JSON: {exc}"
                ) from None
            if not isinstance(row, dict):
                raise TraceParseError(
                    source,
                    lineno,
                    f"expected a JSON object, got {type(row).__name__}",
                )
            missing = [c for c in REQUIRED_COLUMNS if c not in row]
            if missing:
                raise TraceParseError(
                    source, lineno, f"missing required keys {missing}"
                )
            unknown = [
                c
                for c in row
                if c not in REQUIRED_COLUMNS + OPTIONAL_COLUMNS
            ]
            if unknown:
                raise TraceParseError(
                    source, lineno, f"unknown keys {unknown} (strict schema)"
                )
            yield _validated_record(source, lineno, row, stats.emitted)
            stats.emitted += 1
