"""Crash-safe checkpointing for sharded trace replay.

A :class:`ReplayCheckpoint` is an append-only JSONL file recording every
shard a replay has finished: one ``{"kind": "replay_checkpoint_entry",
"version": 1, "key": ..., "payload": ...}`` object per line, flushed and
fsync'd before the replay moves on.  ``qbss-replay --checkpoint FILE``
writes one; ``--resume`` loads it back and skips exactly the shards it
holds — a replay killed mid-run (SIGKILL, OOM, power loss) restarts
where it left off instead of from shard zero.

Entries are keyed by the shard's content-addressed cache key, so a
checkpoint is only ever consulted for byte-identical work: same trace,
same algorithms, same alpha, same package version.  The *payload* (the
normalized shard report) is stored too, not just a completion digest —
resume therefore works even with ``--no-cache``, and the resumed run's
report is complete without re-evaluating anything.

Loading is tolerant the same way the serve journal is: a torn final
line (the crash hit mid-append, before the fsync) is dropped and
counted in :attr:`ReplayCheckpoint.torn` — that shard simply re-runs,
which is safe because shard evaluation is deterministic.  So is any
other line that does not decode, parse or validate as an entry: no file
content makes a resume raise.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Any

CHECKPOINT_FORMAT_VERSION = 1
CHECKPOINT_KIND = "replay_checkpoint_entry"


class ReplayCheckpoint:
    """Append-only completed-shard log with tolerant resume.

    ``resume=False`` starts a fresh checkpoint (truncating any previous
    file at ``path``); ``resume=True`` first loads every intact entry so
    :meth:`get` can serve previously completed shards.
    """

    def __init__(self, path: str | Path, *, resume: bool = False):
        self.path = Path(path)
        self.torn = 0
        self._entries: dict[str, dict[str, Any]] = {}
        raw = self.path.read_bytes() if resume and self.path.exists() else b""
        self._load(raw)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        mode = "a" if resume else "w"
        self._fh: IO[str] | None = open(self.path, mode)
        if raw and not raw.endswith(b"\n"):
            # end the torn tail, or the next entry would extend it
            self._fh.write("\n")

    def _load(self, raw: bytes) -> None:
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                data = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):
                self.torn += 1
                continue
            if (
                not isinstance(data, dict)
                or data.get("kind") != CHECKPOINT_KIND
                or data.get("version") != CHECKPOINT_FORMAT_VERSION
                or not isinstance(data.get("key"), str)
                or not isinstance(data.get("payload"), dict)
            ):
                self.torn += 1
                continue
            self._entries[data["key"]] = data["payload"]

    @property
    def completed(self) -> int:
        """How many distinct shards this checkpoint holds."""
        return len(self._entries)

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored payload for ``key``, or None if not checkpointed.

        Returns a detached deep copy: callers may mutate the result (or
        the payload they passed to :meth:`record`) without corrupting
        the checkpoint's view of what is durably on disk.
        """
        payload = self._entries.get(key)
        if payload is None:
            return None
        return json.loads(json.dumps(payload))

    def record(
        self, key: str, payload: dict[str, Any], *, torn: bool = False
    ) -> None:
        """Durably append one completed shard (write, flush, fsync).

        ``torn=True`` is the fault-injection hook: it writes only a
        prefix of the line and skips the fsync, modelling a crash
        mid-append — the tolerant loader must drop exactly this entry.
        """
        if self._fh is None:
            raise ValueError(f"checkpoint {self.path} is closed")
        line = json.dumps(
            {
                "kind": CHECKPOINT_KIND,
                "version": CHECKPOINT_FORMAT_VERSION,
                "key": key,
                "payload": payload,
            },
            sort_keys=True,
        )
        if torn:
            self._fh.write(line[: max(1, len(line) // 2)])
            self._fh.flush()
            return
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        # re-parse the line just written: the in-memory view is exactly
        # the bytes on disk, detached from the caller's dict
        self._entries[key] = json.loads(line)["payload"]

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> ReplayCheckpoint:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
