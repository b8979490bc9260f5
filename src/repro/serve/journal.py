"""The fsync'd write-ahead admission journal of ``qbss-serve``.

A hard crash (OOM kill, power loss, ``kill -9``) must not silently lose
admitted-but-unfinished work.  The journal makes admission durable:

* every admitted submission is appended as a versioned ``repro.io``
  record (kind ``serve_journal_record``, type ``admission``) and
  **fsync'd before the client can ever observe an acknowledgement**;
* as the batch evaluates, per-shard completion marks (type
  ``shard_complete``, carrying the SHA-256 digest of the shard payload)
  and a closing ``batch_complete`` mark are appended;
* on restart, :meth:`AdmissionJournal.scan` tolerantly re-reads the log
  — a torn tail line (a record cut mid-write by the crash itself) is
  dropped and counted, never an error — and every admission without a
  ``batch_complete`` mark is replayed through the exact same
  validation/synthesis path a live submission takes.

Recovery is **at-least-once**: a batch that finished evaluating but
crashed before its completion mark re-runs in full.  That is safe and
byte-identical because shard evaluation is deterministic and the
content-addressed result cache makes re-execution idempotent — shards
computed before the crash are served from the cache, the rest are
computed fresh, and the recovered output is bit-for-bit what an
uninterrupted run would have produced (``docs/serving.md``).

Records deliberately carry **no wall-clock timestamps**: the journal is
part of the determinism surface (recovered runs must replay
byte-identically), and sequence numbers already give a total order.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any

from ..engine.faults import FaultPlan
from ..obs import lockwatch

SERVE_JOURNAL_VERSION = 1
JOURNAL_KIND = "serve_journal_record"
JOURNAL_FILENAME = "journal.jsonl"

#: The record types, in lifecycle order.
RECORD_TYPES = ("admission", "shard_complete", "batch_complete")


def shard_payload_digest(payload: dict[str, Any]) -> str:
    """Content digest of one shard payload (SHA-256 of canonical JSON).

    Written into ``shard_complete`` marks so an operator can diff a
    recovered run against a cold run without holding the payloads.
    """
    material = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JournalRecord:
    """One journal line — a versioned ``repro.io`` document.

    ``type`` selects which optional fields are meaningful:

    ``admission``
        ``client`` and ``jobs`` (the validated request dicts, in
        submission order — enough to rebuild the batch byte-identically).
    ``shard_complete``
        ``shard_index`` and ``shard_digest``.
    ``batch_complete``
        ``status`` (``"ok"`` or ``"error"``).

    Every type carries ``batch``, the admission sequence number.
    """

    type: str
    batch: int
    client: str = "anonymous"
    jobs: tuple[dict[str, Any], ...] = ()
    shard_index: int | None = None
    shard_digest: str | None = None
    status: str | None = None

    def __post_init__(self) -> None:
        if self.type not in RECORD_TYPES:
            raise ValueError(
                f"unknown journal record type {self.type!r} "
                f"(one of: {', '.join(RECORD_TYPES)})"
            )
        if self.batch < 1:
            raise ValueError(f"batch sequence must be >= 1, got {self.batch}")

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "kind": JOURNAL_KIND,
            "version": SERVE_JOURNAL_VERSION,
            "type": self.type,
            "batch": self.batch,
        }
        if self.type == "admission":
            data["client"] = self.client
            data["jobs"] = [dict(j) for j in self.jobs]
        elif self.type == "shard_complete":
            data["shard_index"] = self.shard_index
            data["shard_digest"] = self.shard_digest
        elif self.type == "batch_complete":
            data["status"] = self.status
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> JournalRecord:
        """Decode one record; anything malformed raises :class:`ValueError`."""
        if not isinstance(data, dict) or data.get("kind") != JOURNAL_KIND:
            raise ValueError("not a serve-journal record")
        if data.get("version") != SERVE_JOURNAL_VERSION:
            raise ValueError(
                f"unsupported serve-journal version {data.get('version')!r} "
                f"(this library reads version {SERVE_JOURNAL_VERSION})"
            )
        jobs = data.get("jobs") or ()
        if not isinstance(jobs, (list, tuple)) or not all(
            isinstance(j, dict) for j in jobs
        ):
            raise ValueError("journal 'jobs' must be a list of objects")
        shard_index = data.get("shard_index")
        return cls(
            type=str(data.get("type")),
            batch=_int_field(data.get("batch"), "batch"),
            client=str(data.get("client", "anonymous")),
            jobs=tuple(dict(j) for j in jobs),
            shard_index=(
                None if shard_index is None else _int_field(shard_index, "shard_index")
            ),
            shard_digest=(
                str(data["shard_digest"])
                if data.get("shard_digest") is not None
                else None
            ),
            status=(
                str(data["status"]) if data.get("status") is not None else None
            ),
        )

    def encode(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _int_field(value: Any, name: str) -> int:
    # bool and float are not ints here: ``true`` or ``1e400`` is corruption
    if type(value) is not int:
        raise ValueError(f"journal {name!r} must be an integer, got {value!r}")
    return value


def _decode_record(line: bytes) -> JournalRecord | None:
    """One journal line as a record, or ``None`` when it does not decode,
    parse or validate (a torn or corrupted line)."""
    try:
        return JournalRecord.from_dict(json.loads(line.decode("utf-8")))
    except (ValueError, RecursionError):
        return None


@dataclass
class JournalScan:
    """The tolerant read of one journal file.

    ``torn`` counts trailing lines dropped because they did not parse as
    complete records — exactly what a crash mid-append leaves behind.
    Such a record was by construction never fsync'd, so the submission it
    described was never acknowledged; dropping it is correct.
    """

    records: list[JournalRecord] = field(default_factory=list)
    torn: int = 0

    @property
    def max_batch(self) -> int:
        return max((r.batch for r in self.records), default=0)

    def incomplete(self) -> list[JournalRecord]:
        """Admissions without a ``batch_complete`` mark, in admission order."""
        completed = {
            r.batch for r in self.records if r.type == "batch_complete"
        }
        return [
            r
            for r in self.records
            if r.type == "admission" and r.batch not in completed
        ]


@dataclass
class RecoveryReport:
    """What one journal recovery found and re-enqueued."""

    batches: int = 0
    jobs: int = 0
    torn_records: int = 0
    skipped: int = 0  # unparseable admissions left in place, never dropped

    def to_dict(self) -> dict[str, Any]:
        return {
            "batches": self.batches,
            "jobs": self.jobs,
            "torn_records": self.torn_records,
            "skipped": self.skipped,
        }

    def summary_line(self) -> str:
        out = (
            f"journal recovery: {self.batches} incomplete batch(es) / "
            f"{self.jobs} job(s) replayed"
        )
        if self.torn_records:
            out += f", {self.torn_records} torn record(s) dropped"
        if self.skipped:
            out += f", {self.skipped} unreadable admission(s) skipped"
        return out


class AdmissionJournal:
    """An append-only admission journal in ``directory``.

    Admission appends are fsync'd (durable before the ack); completion
    marks are flushed but not fsync'd — they only *narrow* recovery, so
    losing one to a crash costs an idempotent, byte-identical replay,
    never correctness.  All appends serialize under one lock (HTTP
    handler threads log admissions; the scheduler thread logs completion
    marks).  A
    :class:`~repro.engine.faults.FaultPlan` with ``torn-write`` specs at
    coordinates ``journal:<type>:<batch>`` (attempt 1) makes ``append``
    deliberately write a truncated, un-fsync'd line — the deterministic
    stand-in for a crash mid-append that the recovery tests pin down.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        metrics: Any | None = None,
        tracer: Any | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / JOURNAL_FILENAME
        self.tracer = tracer
        self.fault_plan = fault_plan
        self._lock = lockwatch.new_lock("AdmissionJournal._lock")
        self._fh: IO[str] | None = None
        self._seq = 1
        self._records_counter = None
        self._torn_counter = None
        if metrics is not None:
            self._records_counter = {
                rtype: metrics.counter(
                    "qbss_serve_journal_records_total",
                    "Journal records appended, by record type.",
                    type=rtype,
                )
                for rtype in RECORD_TYPES
            }
            self._torn_counter = metrics.counter(
                "qbss_serve_journal_torn_records_total",
                "Torn journal tail records dropped during recovery scans.",
            )

    # -- reading ---------------------------------------------------------------------

    def scan(self) -> JournalScan:
        """Tolerantly read every record currently in the journal.

        Each newline-terminated line that is not a valid record (it does
        not decode as UTF-8, parse as JSON or validate as a
        :class:`JournalRecord`) counts as ``torn`` and is skipped; valid
        records after it are still kept, and no file content makes this
        raise.  A final fragment with no trailing newline counts as
        ``torn`` too.
        Only a crash mid-append can produce such a tail (every completed
        append ends with a newline), and nothing droppable was ever
        acknowledged: a torn admission was never fsync'd (hence never
        acked), and a torn completion mark only widens the idempotent
        replay.
        """
        scan = JournalScan()
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return scan
        lines = raw.split(b"\n")
        # a journal that ends mid-line has no trailing "\n": its last
        # split element is the torn fragment, not an empty string
        complete, tail = lines[:-1], lines[-1]
        for line in complete:
            if not line.strip():
                continue
            record = _decode_record(line)
            if record is None:
                scan.torn += 1
            else:
                scan.records.append(record)
        if tail.strip():
            scan.torn += 1
        if scan.torn and self._torn_counter is not None:
            with self._lock:
                self._torn_counter.inc(scan.torn)
        self._seq = scan.max_batch + 1
        return scan

    def compact(self, keep: list[JournalRecord]) -> None:
        """Atomically rewrite the journal to exactly ``keep``.

        Called at recovery time with the incomplete admissions: completed
        history and torn fragments are dropped, the batches about to be
        replayed stay journaled (their fresh completion marks append
        behind them), and batch sequence numbers keep monotonically
        increasing across restarts.
        """
        with self._lock:
            self._close_locked()
            tmp = self.path.with_suffix(f".tmp{os.getpid()}")
            with open(tmp, "w") as fh:
                for record in keep:
                    fh.write(record.encode() + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            tmp.replace(self.path)
            self._seq = max(
                self._seq, max((r.batch for r in keep), default=0) + 1
            )

    # -- writing ---------------------------------------------------------------------

    def log_admission(
        self, client: str, jobs: list[dict[str, Any]]
    ) -> int:
        """Durably record one admitted submission; returns its batch seq."""
        with self._lock:
            batch = self._seq
            self._seq += 1
            self._append_locked(
                JournalRecord(
                    type="admission", batch=batch, client=client,
                    jobs=tuple(jobs),
                ),
                coord=f"journal:admission:{batch}",
            )
        return batch

    def log_shard_complete(
        self, batch: int, shard_index: int, shard_digest: str
    ) -> None:
        with self._lock:
            self._append_locked(
                JournalRecord(
                    type="shard_complete",
                    batch=batch,
                    shard_index=shard_index,
                    shard_digest=shard_digest,
                ),
                coord=f"journal:shard:{batch}:{shard_index}",
            )

    def log_batch_complete(self, batch: int, status: str) -> None:
        with self._lock:
            self._append_locked(
                JournalRecord(type="batch_complete", batch=batch, status=status),
                coord=f"journal:complete:{batch}",
            )

    def _append_locked(self, record: JournalRecord, *, coord: str) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a")
        line = record.encode() + "\n"
        if self.fault_plan is not None and self.fault_plan.wants_torn_write(
            coord, 1
        ):
            # deterministic stand-in for a crash mid-append: a prefix of
            # the intended bytes reaches the disk, no newline, no fsync
            self._fh.write(line[: max(1, len(line) // 2)])
            self._fh.flush()
            return
        self._fh.write(line)
        self._fh.flush()
        if record.type == "admission":
            # Only the admission is commit-critical: it must hit the disk
            # before the ack.  Completion marks are flushed but not
            # fsync'd — losing one to a crash merely replays a batch the
            # idempotent cache re-serves byte-identically, and one fsync
            # per submission (instead of one per shard) keeps the journal
            # tax on warm-serve throughput inside the <5% budget.
            os.fsync(self._fh.fileno())
        if self._records_counter is not None:
            self._records_counter[record.type].inc()
        if self.tracer is not None:
            self.tracer.event(
                "journal_append", None, type=record.type, batch=record.batch
            )

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> AdmissionJournal:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
