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
float64 breakpoint arrays, and aggregates and algebra run in
:mod:`repro.core.profile_kernel`.  The original segment loops survive only
as the test oracle ``tests/_reference_profile.py``; the kernel reproduces
them bit for bit (pinned by ``tests/test_profile_kernel.py``).
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

    __slots__ = ("_segs", "_lists", "_arrays")

    def __init__(self, segments: Iterable[Segment] = ()) -> None:
        # A -0.0 endpoint is stored as 0.0 (``or 0.0``), here and in
        # _from_arrays: the kernel's np.unique and the reference loops'
        # set() would keep different ones of two equal zeros.
        cleaned: list[Segment] = [
            s if s.start and s.end else Segment(s.start or 0.0, s.end or 0.0, s.speed)
            for s in segments
            if s.speed > 0.0
        ]
        cleaned.sort(key=lambda s: s.start)
        for prev, nxt in zip(cleaned, cleaned[1:]):
            if nxt.start < prev.end - EPS:
                raise ValueError(
                    f"overlapping segments: [{prev.start}, {prev.end}) and "
                    f"[{nxt.start}, {nxt.end})"
                )
        merged: list[Segment] = []
        for seg in cleaned:
            # Speeds merge within EPS, relative below speed 1 so a scaled
            # profile's distinct slow segments stay distinct.
            if (
                merged
                and abs(merged[-1].end - seg.start) <= EPS
                and abs(merged[-1].speed - seg.speed)
                <= EPS * min(1.0, max(merged[-1].speed, seg.speed))
            ):
                merged[-1] = Segment(merged[-1].start, seg.end, merged[-1].speed)
            else:
                merged.append(seg)
        self._segs: tuple[Segment, ...] | None = tuple(merged)
        self._lists: tuple[list[float], list[float], list[float]] | None = None
        self._arrays: _pk.ProfileArrays | None = None

    @classmethod
    def _from_arrays(cls, arrays: _pk.ProfileArrays) -> SpeedProfile:
        """Trusted constructor from already-normalized kernel arrays.

        Builds no :class:`Segment`: :attr:`segments` and :meth:`columns`
        are derived from the arrays when first asked for.  Endpoints at
        -0.0 are stored as 0.0 (``+ 0.0``), as the constructor stores them.
        """
        starts, ends, speeds = arrays
        prof = cls.__new__(cls)
        prof._segs = None
        prof._lists = None
        prof._arrays = (starts + 0.0, ends + 0.0, speeds)
        return prof

    def _get_arrays(self) -> _pk.ProfileArrays:
        """The profile as parallel ``(starts, ends, speeds)`` float64 arrays."""
        arrays = self._arrays
        if arrays is None:
            starts, ends, speeds = self.columns()
            arrays = (
                _pk.as_float_array(starts),
                _pk.as_float_array(ends),
                _pk.as_float_array(speeds),
            )
            self._arrays = arrays
        return arrays

    def columns(self) -> tuple[list[float], list[float], list[float]]:
        """The segments as parallel ``(starts, ends, speeds)`` lists
        (cached; read-only).  What EDF walks: it needs no segment objects,
        and a profile built from segments serves it without the kernel."""
        lists = self._lists
        if lists is None:
            segs = self._segs
            if segs is None:
                starts, ends, speeds = self._arrays  # type: ignore[misc]
                lists = (starts.tolist(), ends.tolist(), speeds.tolist())
            else:
                lists = (
                    [s.start for s in segs],
                    [s.end for s in segs],
                    [s.speed for s in segs],
                )
            self._lists = lists
        return lists

    @property
    def _segments(self) -> tuple[Segment, ...]:
        segs = self._segs
        if segs is None:
            segs = tuple(Segment(*row) for row in zip(*self.columns()))
            self._segs = segs
        return segs

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
        t = _pk.as_float_array(times)
        v = _pk.as_float_array(speeds)
        if t.size < 2 or bool(np.all(np.diff(t) > 0.0)):
            keep = v > 0.0
            return cls._from_arrays(
                _pk.normalize(t[:-1][keep], t[1:][keep], v[keep])
            )
        # non-monotonic breakpoints: let the constructor sort/validate
        return cls(
            Segment(a, b, v) for a, b, v in zip(times, times[1:], speeds) if v > 0
        )

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
        normalisation apply — but validates and normalises the arrays in
        the kernel instead of building a segment object per input.
        """
        if not (len(starts) == len(ends) == len(speeds)):
            raise ValueError("starts, ends and speeds must have equal length")
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
        return len(self.columns()[0])

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
        return not self.columns()[0]

    @property
    def start(self) -> float:
        """Earliest positive-speed time (0.0 for the empty profile)."""
        starts = self.columns()[0]
        return starts[0] if starts else 0.0

    @property
    def end(self) -> float:
        """Latest positive-speed time (0.0 for the empty profile)."""
        ends = self.columns()[1]
        return ends[-1] if ends else 0.0

    def speed_at(self, t: float) -> float:
        """Speed at time ``t`` (segments are closed-left, open-right)."""
        starts, ends, speeds = self.columns()
        i = bisect.bisect_right(starts, t) - 1
        if i >= 0 and starts[i] <= t < ends[i]:
            return speeds[i]
        return 0.0

    def speeds_at(self, times: Sequence[float] | np.ndarray) -> np.ndarray:
        """Batched :meth:`speed_at` over an array of query times."""
        return _pk.speeds_at(*self._get_arrays(), _pk.as_float_array(times))

    def breakpoints(self) -> list[float]:
        """Sorted, deduplicated list of all segment boundaries."""
        starts, ends, _ = self._get_arrays()
        return _pk.collapse_times(np.concatenate([starts, ends])).tolist()

    # -- aggregates -------------------------------------------------------------

    def total_work(self) -> float:
        """Total work ``integral s(t) dt``."""
        return _pk.total_work(*self._get_arrays())

    def work_in(self, start: float, end: float) -> float:
        """Work available in ``[start, end)``: ``integral_start^end s(t) dt``."""
        return _pk.work_in(*self._get_arrays(), start, end)

    def work_in_many(
        self,
        starts: Sequence[float] | np.ndarray,
        ends: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`work_in` over parallel interval arrays."""
        return _pk.work_in_many(
            *self._get_arrays(),
            _pk.as_float_array(starts),
            _pk.as_float_array(ends),
        )

    def max_speed(self) -> float:
        """Peak speed (0 for the empty profile)."""
        return _pk.max_speed(self._get_arrays()[2])

    def energy(self, power: PowerFunction) -> float:
        """Total energy ``integral s(t)**alpha dt`` under ``power``."""
        return _pk.energy(*self._get_arrays(), power.alpha)

    # -- algebra -------------------------------------------------------------

    def scale(self, factor: float) -> SpeedProfile:
        """Pointwise speed scaling ``t -> factor * s(t)``."""
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        return SpeedProfile._from_arrays(_pk.scale(self._get_arrays(), factor))

    def restrict(self, start: float, end: float) -> SpeedProfile:
        """Profile equal to this one on ``[start, end)`` and 0 elsewhere."""
        return SpeedProfile._from_arrays(_pk.restrict(self._get_arrays(), start, end))

    def shift(self, delta: float) -> SpeedProfile:
        """Profile translated in time by ``delta``."""
        return SpeedProfile._from_arrays(_pk.shift(self._get_arrays(), delta))

    def __add__(self, other: SpeedProfile) -> SpeedProfile:
        """Pointwise sum of two profiles."""
        if not isinstance(other, SpeedProfile):
            return NotImplemented
        return sum_profiles([self, other])

    def dominates(self, other: SpeedProfile, tol: float = EPS) -> bool:
        """Whether ``self(t) >= other(t)`` for all ``t`` (up to tolerance)."""
        pts = sorted(set(self.breakpoints()) | set(other.breakpoints()))
        if len(pts) < 2:
            return True
        grid = _pk.as_float_array(pts)
        mids = 0.5 * (grid[:-1] + grid[1:])
        return bool(np.all(self.speeds_at(mids) >= other.speeds_at(mids) - tol))


def _combine(
    profiles: Sequence[SpeedProfile], pointwise_max: bool
) -> SpeedProfile:
    """Hand the kernel combinator each profile as one row."""
    arrays = [p._get_arrays() for p in profiles] or [_pk.empty_arrays()]
    starts, ends, speeds = (np.concatenate(column) for column in zip(*arrays))
    rows = np.repeat(np.arange(len(arrays)), [a[0].size for a in arrays])
    return SpeedProfile._from_arrays(
        _pk.combine(starts, ends, speeds, rows, pointwise_max)
    )


def sum_profiles(profiles: Sequence[SpeedProfile]) -> SpeedProfile:
    """Pointwise sum of many profiles."""
    return _combine(profiles, pointwise_max=False)


def max_profiles(profiles: Sequence[SpeedProfile]) -> SpeedProfile:
    """Pointwise maximum of many profiles."""
    return _combine(profiles, pointwise_max=True)


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
