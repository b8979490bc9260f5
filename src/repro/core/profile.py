"""Piecewise-constant speed profiles.

A :class:`SpeedProfile` is the function ``s(t)`` a speed-scaling algorithm
commits to: a finite sequence of half-open segments ``[start, end)`` with a
constant speed each, and speed zero elsewhere.  Every algorithm in the
library produces one (per machine), and every analysis quantity — energy,
maximum speed, work available to EDF on an interval — is computed from it.

The class supports the algebra the paper's constructions need:

* pointwise addition (CRP2D adds the revealed-load speed on top of the YDS
  speed, Algorithm 2 line 12);
* scaling (the ``phi``- and ``2``-speed-up arguments of Lemmas 4.9/4.10);
* restriction and work-in-interval queries (critical-interval reasoning).

Since the 1.2 kernel redesign a profile is a thin view over parallel
float64 breakpoint arrays: aggregates and algebra dispatch to
:mod:`repro.core.profile_kernel` when :func:`~repro.core.profile_kernel.
kernel_enabled` (the default), and to the original segment loops under
:func:`~repro.core.profile_kernel.pure_python`.  Both paths are bit-for-bit
identical (pinned by ``tests/test_profile_kernel.py``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from . import profile_kernel as _pk
from .constants import EPS
from .power import PowerFunction


@dataclass(frozen=True)
class Segment:
    """A constant-speed segment ``[start, end)`` at ``speed >= 0``."""

    start: float
    end: float
    speed: float

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise ValueError(f"segment end {self.end} must exceed start {self.start}")
        if self.speed < 0:
            raise ValueError(f"segment speed must be >= 0, got {self.speed}")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def work(self) -> float:
        return self.speed * self.duration


class SpeedProfile:
    """An immutable piecewise-constant speed function.

    Construction normalises the segments: sorts them, verifies they do not
    overlap, drops zero-speed segments and merges adjacent segments with
    equal speed.  ``s(t) = 0`` outside all segments.

    Examples
    --------
    >>> prof = SpeedProfile([Segment(0.0, 1.0, 2.0), Segment(1.0, 3.0, 1.0)])
    >>> prof.speed_at(0.5)
    2.0
    >>> prof.total_work()
    4.0
    >>> from repro.core.power import PowerFunction
    >>> prof.energy(PowerFunction(3.0))  # 1*8 + 2*1
    10.0
    >>> (prof + SpeedProfile.constant(0.0, 3.0, 1.0)).speed_at(2.0)
    2.0
    """

    __slots__ = ("_segments", "_starts", "_arrays")

    def __init__(self, segments: Iterable[Segment] = ()) -> None:
        cleaned: list[Segment] = [s for s in segments if s.speed > 0.0]
        cleaned.sort(key=lambda s: s.start)
        for prev, nxt in zip(cleaned, cleaned[1:]):
            if nxt.start < prev.end - EPS:
                raise ValueError(
                    f"overlapping segments: [{prev.start}, {prev.end}) and "
                    f"[{nxt.start}, {nxt.end})"
                )
        merged: list[Segment] = []
        for seg in cleaned:
            if (
                merged
                and abs(merged[-1].end - seg.start) <= EPS
                and abs(merged[-1].speed - seg.speed) <= EPS
            ):
                merged[-1] = Segment(merged[-1].start, seg.end, merged[-1].speed)
            else:
                merged.append(seg)
        self._segments: tuple[Segment, ...] = tuple(merged)
        self._starts: list[float] = [s.start for s in merged]
        self._arrays: _pk.ProfileArrays | None = None

    @classmethod
    def _from_arrays(cls, arrays: _pk.ProfileArrays) -> SpeedProfile:
        """Trusted constructor from already-normalized kernel arrays."""
        starts, ends, speeds = arrays
        prof = cls.__new__(cls)
        prof._segments = tuple(
            Segment(a, b, v)
            for a, b, v in zip(starts.tolist(), ends.tolist(), speeds.tolist())
        )
        prof._starts = starts.tolist()
        prof._arrays = arrays
        return prof

    def _get_arrays(self) -> _pk.ProfileArrays:
        """The profile as parallel ``(starts, ends, speeds)`` float64 arrays."""
        arrays = self._arrays
        if arrays is None:
            segs = self._segments
            arrays = (
                _pk.as_float_array([s.start for s in segs]),
                _pk.as_float_array([s.end for s in segs]),
                _pk.as_float_array([s.speed for s in segs]),
            )
            self._arrays = arrays
        return arrays

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, start: float, end: float, speed: float) -> SpeedProfile:
        """Profile running at ``speed`` on ``[start, end)`` and 0 elsewhere."""
        if speed == 0:
            return cls()
        return cls([Segment(start, end, speed)])

    @classmethod
    def from_breakpoints(
        cls,
        *,
        times: Sequence[float],
        speeds: Sequence[float],
    ) -> SpeedProfile:
        """Profile with ``speeds[i]`` on ``[times[i], times[i+1])``.

        Keyword-only: ``SpeedProfile.from_breakpoints(times=..., speeds=...)``.
        """
        if len(speeds) != len(times) - 1:
            raise ValueError("need exactly one speed per consecutive breakpoint pair")
        if _pk.kernel_enabled():
            t = _pk.as_float_array(times)
            v = _pk.as_float_array(speeds)
            if t.size < 2 or bool(np.all(np.diff(t) > 0.0)):
                keep = v > 0.0
                return cls._from_arrays(
                    _pk.normalize(t[:-1][keep], t[1:][keep], v[keep])
                )
            # non-monotonic breakpoints: let the constructor sort/validate
        segs = [
            Segment(a, b, v)
            for a, b, v in zip(times, times[1:], speeds)
            if v > 0
        ]
        return cls(segs)

    @classmethod
    def from_segments(
        cls,
        *,
        starts: Sequence[float],
        ends: Sequence[float],
        speeds: Sequence[float],
    ) -> SpeedProfile:
        """Profile from parallel segment arrays (keyword-only, kernel-backed).

        Equivalent to ``SpeedProfile(Segment(a, b, v) for ...)`` — the same
        validation (``end > start``, ``speed >= 0``, no overlap) and
        normalisation apply — but skips per-segment object construction on
        the kernel path.
        """
        if not (len(starts) == len(ends) == len(speeds)):
            raise ValueError("starts, ends and speeds must have equal length")
        if not _pk.kernel_enabled():
            return cls(
                Segment(a, b, v) for a, b, v in zip(starts, ends, speeds)
            )
        a = _pk.as_float_array(starts)
        b = _pk.as_float_array(ends)
        v = _pk.as_float_array(speeds)
        bad = np.flatnonzero(~(b > a))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"segment end {b[i]} must exceed start {a[i]}")
        bad = np.flatnonzero(v < 0)
        if bad.size:
            raise ValueError(
                f"segment speed must be >= 0, got {v[int(bad[0])]}"
            )
        keep = v > 0.0
        a, b, v = a[keep], b[keep], v[keep]
        order = np.argsort(a, kind="stable")
        a, b, v = a[order], b[order], v[order]
        overlap = np.flatnonzero(a[1:] < b[:-1] - EPS)
        if overlap.size:
            i = int(overlap[0])
            raise ValueError(
                f"overlapping segments: [{a[i]}, {b[i]}) and "
                f"[{a[i + 1]}, {b[i + 1]})"
            )
        return cls._from_arrays(_pk.normalize(a, b, v))

    # -- basic queries ---------------------------------------------------------

    @property
    def segments(self) -> tuple[Segment, ...]:
        return self._segments

    def __iter__(self) -> Iterator[Segment]:
        return iter(self._segments)

    def __len__(self) -> int:
        return len(self._segments)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpeedProfile):
            return NotImplemented
        if len(self._segments) != len(other._segments):
            return False
        return all(
            abs(a.start - b.start) <= EPS
            and abs(a.end - b.end) <= EPS
            and abs(a.speed - b.speed) <= EPS
            for a, b in zip(self._segments, other._segments)
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"[{s.start:g},{s.end:g})@{s.speed:g}" for s in self._segments
        )
        return f"SpeedProfile({inner})"

    @property
    def is_empty(self) -> bool:
        return not self._segments

    @property
    def start(self) -> float:
        """Earliest positive-speed time (0.0 for the empty profile)."""
        return self._segments[0].start if self._segments else 0.0

    @property
    def end(self) -> float:
        """Latest positive-speed time (0.0 for the empty profile)."""
        return self._segments[-1].end if self._segments else 0.0

    def speed_at(self, t: float) -> float:
        """Speed at time ``t`` (segments are closed-left, open-right)."""
        i = bisect.bisect_right(self._starts, t) - 1
        if i >= 0:
            seg = self._segments[i]
            if seg.start <= t < seg.end:
                return seg.speed
        return 0.0

    def speeds_at(self, times: Sequence[float] | np.ndarray) -> np.ndarray:
        """Batched :meth:`speed_at` over an array of query times."""
        if _pk.kernel_enabled():
            return _pk.speeds_at(*self._get_arrays(), _pk.as_float_array(times))
        return _pk.as_float_array([self.speed_at(float(t)) for t in times])

    def breakpoints(self) -> list[float]:
        """Sorted, deduplicated list of all segment boundaries."""
        if _pk.kernel_enabled():
            starts, ends, _ = self._get_arrays()
            return _pk.collapse_times(np.concatenate([starts, ends])).tolist()
        raw = sorted(
            {seg.start for seg in self._segments}
            | {seg.end for seg in self._segments}
        )
        pts: list[float] = []
        for t in raw:
            if not pts or t - pts[-1] > EPS:
                pts.append(t)
        return pts

    # -- aggregates -------------------------------------------------------------

    def total_work(self) -> float:
        """Total work ``integral s(t) dt``."""
        if _pk.kernel_enabled():
            return _pk.total_work(*self._get_arrays())
        return sum(seg.work for seg in self._segments)

    def work_in(self, start: float, end: float) -> float:
        """Work available in ``[start, end)``: ``integral_start^end s(t) dt``."""
        if _pk.kernel_enabled():
            return _pk.work_in(*self._get_arrays(), start, end)
        if end <= start:
            return 0.0
        total = 0.0
        for seg in self._segments:
            lo = max(seg.start, start)
            hi = min(seg.end, end)
            if hi > lo:
                total += seg.speed * (hi - lo)
        return total

    def work_in_many(
        self,
        starts: Sequence[float] | np.ndarray,
        ends: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`work_in` over parallel interval arrays."""
        if _pk.kernel_enabled():
            return _pk.work_in_many(
                *self._get_arrays(),
                _pk.as_float_array(starts),
                _pk.as_float_array(ends),
            )
        return _pk.as_float_array(
            [self.work_in(float(a), float(b)) for a, b in zip(starts, ends)]
        )

    def max_speed(self) -> float:
        """Peak speed (0 for the empty profile)."""
        if _pk.kernel_enabled():
            return _pk.max_speed(self._get_arrays()[2])
        return max((seg.speed for seg in self._segments), default=0.0)

    def energy(self, power: PowerFunction) -> float:
        """Total energy ``integral s(t)**alpha dt`` under ``power``."""
        if _pk.kernel_enabled():
            starts, ends, speeds = self._get_arrays()
            return _pk.energy(starts, ends, speeds, power.alpha)
        return sum(power.energy(seg.speed, seg.duration) for seg in self._segments)

    # -- algebra -------------------------------------------------------------

    def scale(self, factor: float) -> SpeedProfile:
        """Pointwise speed scaling ``t -> factor * s(t)``."""
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        if _pk.kernel_enabled():
            return SpeedProfile._from_arrays(_pk.scale(self._get_arrays(), factor))
        return SpeedProfile(
            Segment(s.start, s.end, factor * s.speed) for s in self._segments
        )

    def restrict(self, start: float, end: float) -> SpeedProfile:
        """Profile equal to this one on ``[start, end)`` and 0 elsewhere."""
        if _pk.kernel_enabled():
            return SpeedProfile._from_arrays(
                _pk.restrict(self._get_arrays(), start, end)
            )
        segs = []
        for seg in self._segments:
            lo = max(seg.start, start)
            hi = min(seg.end, end)
            if hi > lo:
                segs.append(Segment(lo, hi, seg.speed))
        return SpeedProfile(segs)

    def shift(self, delta: float) -> SpeedProfile:
        """Profile translated in time by ``delta``."""
        if _pk.kernel_enabled():
            return SpeedProfile._from_arrays(_pk.shift(self._get_arrays(), delta))
        return SpeedProfile(
            Segment(s.start + delta, s.end + delta, s.speed) for s in self._segments
        )

    def __add__(self, other: SpeedProfile) -> SpeedProfile:
        """Pointwise sum of two profiles."""
        if not isinstance(other, SpeedProfile):
            return NotImplemented
        return sum_profiles([self, other])

    def dominates(self, other: SpeedProfile, tol: float = EPS) -> bool:
        """Whether ``self(t) >= other(t)`` for all ``t`` (up to tolerance)."""
        pts = sorted(set(self.breakpoints()) | set(other.breakpoints()))
        if _pk.kernel_enabled() and len(pts) >= 2:
            grid = _pk.as_float_array(pts)
            mids = 0.5 * (grid[:-1] + grid[1:])
            mine = self.speeds_at(mids)
            theirs = other.speeds_at(mids)
            return bool(np.all(mine >= theirs - tol))
        for a, b in zip(pts, pts[1:]):
            mid = 0.5 * (a + b)
            if self.speed_at(mid) < other.speed_at(mid) - tol:
                return False
        return True


def sum_profiles(profiles: Sequence[SpeedProfile]) -> SpeedProfile:
    """Pointwise sum of many profiles (used by AVR: sum of densities)."""
    if _pk.kernel_enabled():
        return SpeedProfile._from_arrays(
            _pk.sum_arrays([p._get_arrays() for p in profiles])
        )
    pts: list[float] = []
    for p in profiles:
        for seg in p.segments:
            pts.append(seg.start)
            pts.append(seg.end)
    if not pts:
        return SpeedProfile()
    uniq = sorted(set(pts))
    # collapse numerically-equal points
    collapsed: list[float] = [uniq[0]]
    for t in uniq[1:]:
        if t - collapsed[-1] > EPS:
            collapsed.append(t)
    segs = []
    for a, b in zip(collapsed, collapsed[1:]):
        mid = 0.5 * (a + b)
        speed = sum(p.speed_at(mid) for p in profiles)
        if speed > 0:
            segs.append(Segment(a, b, speed))
    return SpeedProfile(segs)


def max_profiles(profiles: Sequence[SpeedProfile]) -> SpeedProfile:
    """Pointwise maximum of many profiles."""
    if _pk.kernel_enabled():
        return SpeedProfile._from_arrays(
            _pk.max_arrays([p._get_arrays() for p in profiles])
        )
    pts: list[float] = []
    for p in profiles:
        for seg in p.segments:
            pts.append(seg.start)
            pts.append(seg.end)
    if not pts:
        return SpeedProfile()
    uniq = sorted(set(pts))
    collapsed: list[float] = [uniq[0]]
    for t in uniq[1:]:
        if t - collapsed[-1] > EPS:
            collapsed.append(t)
    segs = []
    for a, b in zip(collapsed, collapsed[1:]):
        mid = 0.5 * (a + b)
        speed = max((p.speed_at(mid) for p in profiles), default=0.0)
        if speed > 0:
            segs.append(Segment(a, b, speed))
    return SpeedProfile(segs)


def profiles_energy(
    profiles: Sequence[SpeedProfile], power: PowerFunction
) -> float:
    """Total energy over per-machine profiles (the shared multi-machine sum).

    Single point of truth for the ``sum of per-profile energies`` that the
    single- and multi-machine result types all report; each term runs
    through the kernel's energy integral.
    """
    return sum(p.energy(power) for p in profiles)


def profiles_max_speed(profiles: Sequence[SpeedProfile]) -> float:
    """Peak speed over per-machine profiles (0.0 when all are empty)."""
    return max((p.max_speed() for p in profiles), default=0.0)
