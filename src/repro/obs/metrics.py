"""A small metrics registry: counters, gauges, histograms; JSON + Prometheus.

The engine and replay stacks publish their operational story here —
cache hits/misses/quarantines/prunes, retries, timeouts, pool rebuilds,
degradation, per-task wall times — and the registry exports it in two
machine-readable shapes:

* :meth:`MetricsRegistry.to_dict` — versioned plain JSON, round-trips
  through :meth:`MetricsRegistry.from_dict`;
* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` / samples), parseable back with
  :func:`parse_prometheus_text` for round-trip tests and scrapers.

Metric names follow Prometheus conventions (``qbss_*``, ``_total`` for
counters, ``_seconds`` / ``_bytes`` units); the full name taxonomy lives
in ``docs/observability.md``.  Labels are plain string pairs; a metric
identity is ``(name, sorted(labels))``.

Nothing here is threaded; the registry lives in the parent process and is
written to once per run (plus cheap increments on the cache path), so a
plain dict is all the machinery needed.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterable, Iterator
from typing import Any

METRICS_FORMAT_VERSION = 1

#: Default histogram bucket upper bounds (seconds-flavoured).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")

LabelItems = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(items: LabelItems) -> str:
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class Counter:
    """Monotonically increasing count."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc by {amount})")
        self.value += amount

    def samples(self, name: str, labels: LabelItems) -> list[tuple[str, LabelItems, float]]:
        return [(name, labels, self.value)]

    def state(self) -> Any:
        return self.value

    def merge(self, state: Any) -> None:
        self.inc(float(state))


class Gauge:
    """A value that can go anywhere (peak residency, degraded flag, ...)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def samples(self, name: str, labels: LabelItems) -> list[tuple[str, LabelItems, float]]:
        return [(name, labels, self.value)]

    def state(self) -> Any:
        return self.value

    def merge(self, state: Any) -> None:
        self.set(state)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics: ``le`` bounds)."""

    kind = "histogram"
    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        self.counts = [0] * len(bounds)  # per-bound non-cumulative tallies
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break

    def samples(self, name: str, labels: LabelItems) -> list[tuple[str, LabelItems, float]]:
        out: list[tuple[str, LabelItems, float]] = []
        cumulative = 0
        for bound, tally in zip(self.buckets, self.counts):
            cumulative += tally
            out.append(
                (f"{name}_bucket", labels + (("le", _format_value(bound)),), float(cumulative))
            )
        out.append((f"{name}_bucket", labels + (("le", "+Inf"),), float(self.count)))
        out.append((f"{name}_sum", labels, self.sum))
        out.append((f"{name}_count", labels, float(self.count)))
        return out

    def state(self) -> Any:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def merge(self, state: Any) -> None:
        if tuple(float(b) for b in state["buckets"]) != self.buckets:
            raise ValueError("cannot merge histograms with different buckets")
        self.counts = [a + int(b) for a, b in zip(self.counts, state["counts"])]
        self.sum += float(state["sum"])
        self.count += int(state["count"])


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create store of named, labelled metrics.

    ``registry.counter("qbss_cache_lookups_total", result="hit").inc()`` —
    the first call with a given ``(name, labels)`` creates the series, later
    calls return the same object.  A name is bound to one metric kind and
    one help string; conflicting re-registration raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._series: dict[tuple[str, LabelItems], Any] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}

    # -- registration ----------------------------------------------------------------

    def _get(
        self,
        cls: type,
        name: str,
        help: str,
        labels: dict[str, str],
        **kwargs: Any,
    ) -> Any:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.fullmatch(label):
                raise ValueError(f"invalid label name {label!r}")
        bound = self._kinds.get(name)
        if bound is not None and bound != cls.kind:
            raise ValueError(
                f"metric {name!r} is already registered as a {bound}, "
                f"not a {cls.kind}"
            )
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            series = cls(**kwargs)
            self._series[key] = series
            self._kinds[name] = cls.kind
            if help:
                self._help[name] = help
        elif help and name not in self._help:
            self._help[name] = help
        return series

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    # -- introspection ---------------------------------------------------------------

    def value(self, name: str, **labels: str) -> float | None:
        """The current value of a counter/gauge series, or ``None``."""
        series = self._series.get((name, _label_key(labels)))
        return None if series is None else getattr(series, "value", None)

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._series))

    # -- JSON export -----------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        series = [
            {
                "name": name,
                "labels": {k: v for k, v in labels},
                "kind": self._kinds[name],
                "state": metric.state(),
            }
            for (name, labels), metric in sorted(self._series.items())
        ]
        return {
            "version": METRICS_FORMAT_VERSION,
            "kind": "metrics_snapshot",
            "help": dict(sorted(self._help.items())),
            "series": series,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> MetricsRegistry:
        registry = cls()
        registry.merge(data)
        return registry

    def merge(self, data: dict[str, Any]) -> None:
        """Fold another registry's :meth:`to_dict` snapshot into this one.

        Counters and histograms add up; a gauge takes the snapshot's
        value, since both hold a latest reading.  ``qbss-serve`` merges
        each evaluation worker's per-batch snapshot this way, so its
        ``/metrics`` reads as if the batch had run in the daemon.
        """
        if not isinstance(data, dict) or data.get("kind") != "metrics_snapshot":
            raise ValueError("not a metrics snapshot document")
        if data.get("version") != METRICS_FORMAT_VERSION:
            raise ValueError(
                f"unsupported metrics version {data.get('version')!r}"
            )
        for item in data.get("series", []):
            kind, state = item["kind"], item["state"]
            extra = {"buckets": state["buckets"]} if kind == "histogram" else {}
            series = self._get(
                _KINDS[kind],
                item["name"],
                data.get("help", {}).get(item["name"], ""),
                dict(item.get("labels", {})),
                **extra,
            )
            series.merge(state)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # -- Prometheus text export ------------------------------------------------------

    def to_prometheus(self) -> str:
        """The text exposition format, deterministically ordered."""
        by_name: dict[str, list[tuple[LabelItems, Any]]] = {}
        for (name, labels), metric in self._series.items():
            by_name.setdefault(name, []).append((labels, metric))
        lines: list[str] = []
        for name in sorted(by_name):
            help_text = self._help.get(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {self._kinds[name]}")
            samples: list[tuple[str, LabelItems, float]] = []
            for labels, metric in sorted(by_name[name]):
                samples.extend(metric.samples(name, labels))
            for sample_name, sample_labels, value in samples:
                lines.append(
                    f"{sample_name}{_format_labels(sample_labels)} "
                    f"{_format_value(value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(text: str) -> dict[tuple[str, LabelItems], float]:
    """Parse exposition text back into ``{(name, labels): value}``.

    Covers what :meth:`MetricsRegistry.to_prometheus` emits (and ordinary
    scrape payloads); used by the round-trip tests and handy for tooling.
    """
    out: dict[tuple[str, LabelItems], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            raise ValueError(f"cannot parse metrics line {line!r}")
        labels: list[tuple[str, str]] = []
        if m.group("labels"):
            for k, v in _LABEL_PAIR_RE.findall(m.group("labels")):
                labels.append(
                    (k, v.replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\"))
                )
        raw = m.group("value")
        value = math.inf if raw == "+Inf" else (-math.inf if raw == "-Inf" else float(raw))
        out[(m.group("name"), tuple(sorted(labels)))] = value
    return out


def write_metrics(registry: MetricsRegistry, path: str | Path) -> str:
    """Write a registry to ``path``; format follows the extension.

    ``.prom`` / ``.txt`` get Prometheus text, anything else the JSON
    snapshot.  Returns the format written (``"prometheus"`` | ``"json"``).
    """
    from pathlib import Path

    path = Path(path)
    if path.suffix.lower() in (".prom", ".txt"):
        path.write_text(registry.to_prometheus())
        return "prometheus"
    path.write_text(registry.to_json() + "\n")
    return "json"
