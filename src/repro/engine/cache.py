"""Content-addressed on-disk cache for experiment reports.

A cache entry is keyed by the SHA-256 of ``(experiment name, resolved
kwargs, package version)`` — the *resolved* kwargs, i.e. signature defaults
merged with overrides, so explicitly passing a default value hits the same
entry as omitting it.  Entries are versioned JSON documents written
atomically; a corrupt or wrong-version file is treated as a miss, never an
error.

Layout under the cache root (see ``docs/api.md``)::

    <root>/<digest[:2]>/<digest>.json

Each file holds an envelope ``{cache_version, key, experiment, params,
package_version, wall_time, report}`` where ``report`` is the
``experiment_report`` document of :mod:`repro.io`.

A corrupt entry — zero-byte, truncated, non-JSON, or unreadable — is
never silently deleted: it is moved to ``<root>/quarantine/`` for
post-mortem, counted on :attr:`ResultCache.quarantined`, and the lookup
reports a miss so the result is recomputed.  Well-formed entries from
another cache version simply read as misses (they are overwritten in
place on the next write).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .. import __version__ as PACKAGE_VERSION

CACHE_FORMAT_VERSION = 1

#: Subdirectory of the cache root that corrupt entries are moved into.
QUARANTINE_DIRNAME = "quarantine"

PathLike = str | Path


def default_cache_dir() -> Path:
    """``$QBSS_CACHE_DIR``, else ``$XDG_CACHE_HOME/qbss-repro``, else
    ``~/.cache/qbss-repro``."""
    env = os.environ.get("QBSS_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "qbss-repro"


def cache_key(
    experiment: str,
    resolved_kwargs: dict[str, Any],
    package_version: str | None = None,
) -> str:
    """The content address of one experiment evaluation (SHA-256 hex).

    ``resolved_kwargs`` must already be in JSON form (the ``resolved`` dict
    of :func:`repro.analysis.experiments.resolve_kwargs`); any change to the
    experiment name, a parameter value, or the package version changes the
    key, which is what invalidates stale entries across releases.
    """
    material = json.dumps(
        {
            "experiment": experiment,
            "kwargs": resolved_kwargs,
            "package_version": package_version or PACKAGE_VERSION,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


#: A ``put`` interrupted between writing its temp file and the atomic
#: rename leaves ``<digest>.tmp<pid>`` behind; sweeps only touch temp
#: files older than this, so a concurrent writer's live temp survives.
ORPHAN_GRACE_SECONDS = 600.0


@dataclass
class ResultCache:
    """The on-disk store; all methods are safe on a missing/corrupt tree.

    ``metrics`` optionally takes a
    :class:`~repro.obs.metrics.MetricsRegistry`; when set, lookups, writes
    and quarantines increment the ``qbss_cache_*`` series live (see
    ``docs/observability.md``), so long campaigns can be scraped mid-run.
    """

    root: Path

    def __init__(
        self, root: PathLike | None = None, *, metrics: Any | None = None
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.quarantined = 0  # corrupt entries moved aside by this instance
        self.metrics = metrics

    def _count(self, name: str, amount: float = 1.0, **labels: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc(amount)

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIRNAME

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def quarantine(self, path: Path) -> Path | None:
        """Move a corrupt entry into ``<root>/quarantine/`` (never delete).

        Returns the new location, or ``None`` if the move itself failed
        (in which case the entry is left where it was — a later lookup
        will simply try again).
        """
        try:
            qdir = self.quarantine_dir
            qdir.mkdir(parents=True, exist_ok=True)
            target = qdir / path.name
            n = 0
            while target.exists():
                n += 1
                target = qdir / f"{path.stem}.{n}{path.suffix}"
            path.replace(target)
        except OSError:  # pragma: no cover - concurrent cleanup
            return None
        self.quarantined += 1
        self._count("qbss_cache_quarantined_total")
        return target

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored envelope for ``key``, or ``None`` on any miss.

        A file that exists but cannot be parsed — zero-byte, truncated
        mid-write, or otherwise non-JSON — is quarantined (see
        :meth:`quarantine`) and reported as a miss, so callers recompute
        instead of crashing on ``JSONDecodeError``.
        """
        path = self.path_for(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            self._count("qbss_cache_lookups_total", result="miss")
            return None
        except OSError:
            self.quarantine(path)
            self._count("qbss_cache_lookups_total", result="miss")
            return None
        try:
            data = json.loads(text)
        except ValueError:  # includes JSONDecodeError; "" (zero-byte) too
            self.quarantine(path)
            self._count("qbss_cache_lookups_total", result="miss")
            return None
        if not isinstance(data, dict):
            self.quarantine(path)
            self._count("qbss_cache_lookups_total", result="miss")
            return None
        if (
            data.get("cache_version") != CACHE_FORMAT_VERSION
            or data.get("key") != key
        ):
            # Well-formed but stale (older format / foreign key): a plain
            # miss, left in place to be overwritten by the next put.
            self._count("qbss_cache_lookups_total", result="miss")
            return None
        self._count("qbss_cache_lookups_total", result="hit")
        return data

    def put(
        self,
        key: str,
        experiment: str,
        params: dict[str, Any],
        report_doc: dict[str, Any],
        wall_time: float,
        package_version: str | None = None,
    ) -> Path:
        """Atomically store one evaluated report; returns the file path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "cache_version": CACHE_FORMAT_VERSION,
            "key": key,
            "experiment": experiment,
            "params": params,
            "package_version": package_version or PACKAGE_VERSION,
            "wall_time": wall_time,
            "report": report_doc,
        }
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        # flush + fsync *before* the rename: without it, a power loss can
        # persist the rename but not the data, leaving a torn entry at the
        # final path (a crashed process alone cannot — the kernel keeps
        # buffered writes — but the durability contract covers both).
        with open(tmp, "w") as fh:
            fh.write(json.dumps(envelope, indent=2, sort_keys=True))
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(path)
        self._count("qbss_cache_writes_total")
        return path

    def entries(self) -> list[tuple[Path, float, int]]:
        """Every cache file as ``(path, mtime, size)``, oldest first."""
        found = []
        if not self.root.exists():
            return found
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - concurrent cleanup
                continue
            found.append((path, stat.st_mtime, stat.st_size))
        found.sort(key=lambda item: (item[1], str(item[0])))
        return found

    def _entry_paths(self) -> Iterator[Path]:
        """Live entry files — the quarantine directory never counts."""
        for path in self.root.glob("*/*.json"):
            if path.parent.name != QUARANTINE_DIRNAME:
                yield path

    def _orphan_paths(self) -> Iterator[Path]:
        """Leftover ``<digest>.tmp<pid>`` files from interrupted writes.

        A :meth:`put` that dies between ``tmp.write_text`` and
        ``tmp.replace`` strands its temp file, and ``*/*.json`` globs never
        see it — without this sweep the tree silently outgrows any
        ``--cache-prune`` budget.
        """
        for path in self.root.glob("*/*.tmp*"):
            if path.parent.name != QUARANTINE_DIRNAME:
                yield path

    def _sweep_orphans(
        self, now: float | None = None, grace: float = ORPHAN_GRACE_SECONDS
    ) -> tuple[int, int]:
        """Delete stale temp files; returns ``(removed, freed_bytes)``.

        With ``now`` given, only temp files whose mtime is older than
        ``grace`` are removed (a concurrent ``put`` may legitimately own a
        fresh one); ``now=None`` removes unconditionally (``clear``).
        """
        removed = 0
        freed = 0
        for path in self._orphan_paths():
            try:
                stat = path.stat()
                if now is not None and now - stat.st_mtime < grace:
                    continue
                path.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                continue
            removed += 1
            freed += stat.st_size
        return removed, freed

    def total_bytes(self) -> int:
        return sum(size for _, _, size in self.entries())

    def prune(
        self,
        max_age_days: float | None = None,
        max_bytes: int | None = None,
        now: float | None = None,
    ) -> PruneStats:
        """Evict entries by age, then oldest-first down to a size budget.

        Two independent criteria, both optional: entries whose mtime is
        older than ``max_age_days`` are always removed; if the survivors
        still exceed ``max_bytes``, the oldest are removed until the tree
        fits.  Eviction order is strictly oldest-mtime-first (path as a
        deterministic tie-break), so a long replay campaign keeps its
        hottest (most recently written) shards.  ``now`` is injectable for
        tests.

        Every prune also sweeps orphaned ``.tmp*`` files left by writes
        that died mid-:meth:`put` (older than :data:`ORPHAN_GRACE_SECONDS`
        only, so live concurrent writes survive); they are invisible to
        :meth:`entries` and would otherwise accumulate forever, unbounded
        by any size budget.
        """
        now = time.time() if now is None else now
        entries = self.entries()
        scanned = len(entries)
        removed = 0
        freed = 0
        survivors: list[tuple[Path, float, int]] = []
        if max_age_days is not None:
            cutoff = now - max_age_days * 86400.0
            for path, mtime, size in entries:
                if mtime < cutoff:
                    try:
                        path.unlink()
                        removed += 1
                        freed += size
                    except OSError:  # pragma: no cover - concurrent cleanup
                        pass
                else:
                    survivors.append((path, mtime, size))
        else:
            survivors = entries
        if max_bytes is not None:
            total = sum(size for _, _, size in survivors)
            for path, _mtime, size in survivors:
                if total <= max_bytes:
                    break
                try:
                    path.unlink()
                    removed += 1
                    freed += size
                    total -= size
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass
        orphans, orphan_bytes = self._sweep_orphans(now=now)
        return PruneStats(
            scanned=scanned,
            removed=removed,
            kept=scanned - removed,
            freed_bytes=freed + orphan_bytes,
            orphans_removed=orphans,
        )

    def clear(self) -> int:
        """Delete every entry (orphaned temp files included); returns the
        number of files removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self._entry_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
        removed += self._sweep_orphans(now=None)[0]
        return removed

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self._entry_paths())


@dataclass(frozen=True)
class PruneStats:
    """Outcome of one :meth:`ResultCache.prune` pass.

    ``orphans_removed`` counts swept ``.tmp*`` leftovers from interrupted
    writes — they are not cache entries, so they appear in neither
    ``scanned`` nor ``removed``, but their bytes are part of
    ``freed_bytes``.
    """

    scanned: int
    removed: int
    kept: int
    freed_bytes: int
    orphans_removed: int = 0


_SIZE_UNITS = {
    "b": 1,
    "kb": 10**3,
    "mb": 10**6,
    "gb": 10**9,
}


def parse_prune_spec(spec: str) -> tuple[float | None, int | None]:
    """Parse a ``--cache-prune`` spec into ``(max_age_days, max_bytes)``.

    The spec is one or two comma-separated terms: an age like ``30d`` /
    ``12h`` and/or a size budget like ``500mb`` / ``2gb`` / ``1048576``
    (bare numbers are bytes).  Examples: ``"30d"``, ``"500mb"``,
    ``"7d,1gb"``.
    """
    max_age_days: float | None = None
    max_bytes: int | None = None
    for term in spec.split(","):
        term = term.strip().lower()
        if not term:
            continue
        m = re.fullmatch(r"(\d+(?:\.\d+)?)(d|days?|h|hours?)", term)
        if m:
            value = float(m.group(1))
            days = value / 24.0 if m.group(2).startswith("h") else value
            if max_age_days is not None:
                raise ValueError(f"duplicate age term in prune spec {spec!r}")
            max_age_days = days
            continue
        m = re.fullmatch(r"(\d+(?:\.\d+)?)(b|kb|mb|gb)?", term)
        if m:
            unit = _SIZE_UNITS[m.group(2) or "b"]
            if max_bytes is not None:
                raise ValueError(f"duplicate size term in prune spec {spec!r}")
            max_bytes = int(float(m.group(1)) * unit)
            continue
        raise ValueError(
            f"cannot parse prune term {term!r} "
            "(expected an age like '30d'/'12h' or a size like '500mb')"
        )
    if max_age_days is None and max_bytes is None:
        raise ValueError(f"empty prune spec {spec!r}")
    return max_age_days, max_bytes
