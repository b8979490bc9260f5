"""The YDS optimal offline algorithm (Yao, Demers, Shenker 1995).

YDS repeatedly finds the *critical interval* — the interval ``[a, b]``
maximising the intensity ``g(a, b) = (sum of work of jobs whose windows lie
inside [a, b]) / (b - a)`` — schedules exactly those jobs at constant speed
``g`` inside it (EDF order), removes them, excises the interval from the
timeline, and recurses.  The result is the minimum-energy preemptive
single-machine schedule for any convex power function, and simultaneously
minimises the maximum speed.

The excision is implemented with an explicit compressed-time coordinate
system (:class:`TimelineCompressor`): each iteration works in compressed
coordinates, and scheduled slices are mapped back to original time, where a
later critical interval may interleave *around* earlier ones.

This is the workhorse of the whole library: the clairvoyant baseline of
every QBSS experiment is YDS on the jobs ``(r_j, d_j, p*_j)`` (paper Sec. 3),
and CRP2D calls YDS as a subroutine (Algorithm 2, line 6).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence

import numpy as np

from ..core.constants import EPS
from ..core.edf import run_edf
from ..core.job import Job
from ..core.profile import Segment, SpeedProfile
from ..core.schedule import Schedule
from ..core import profile_kernel as _pk


class TimelineCompressor:
    """Tracks excised original-time intervals and maps between coordinates.

    Compressed time is original time with all cut intervals removed:
    ``comp(t) = |[t0, t] \\ cuts|`` where ``t0`` is the global origin.
    """

    def __init__(self, origin: float) -> None:
        self.origin = origin
        self._cuts: list[tuple[float, float]] = []  # disjoint, sorted, merged
        self._cut_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def cuts(self) -> list[tuple[float, float]]:
        return list(self._cuts)

    def compress(self, t: float) -> float:
        """Map original time ``t`` to compressed time."""
        removed = 0.0
        for a, b in self._cuts:
            if b <= t:
                removed += b - a
            elif a < t:
                removed += t - a
            else:
                break
        return (t - self.origin) - removed

    def compress_many(self, times: Sequence[float] | np.ndarray) -> np.ndarray:
        """Vectorised :meth:`compress` over an array of original times.

        Bit-identical to the scalar loop: the per-cut removed lengths are
        accumulated left-to-right (``np.cumsum``), and the partial term of
        the one cut straddling ``t`` is added last, exactly like the scalar
        accumulation order.
        """
        ts = np.asarray(times, dtype=np.float64)
        base = ts - self.origin
        if not self._cuts:
            return base
        if self._cut_arrays is None:
            a = np.array([c[0] for c in self._cuts], dtype=np.float64)
            b = np.array([c[1] for c in self._cuts], dtype=np.float64)
            self._cut_arrays = (a, b, np.concatenate([[0.0], np.cumsum(b - a)]))
        a, b, cum = self._cut_arrays
        k = np.searchsorted(b, ts, side="right")  # cuts fully below t
        removed = cum[k]
        ak = a[np.minimum(k, a.size - 1)]
        straddles = (k < a.size) & (ak < ts)
        removed = np.where(straddles, removed + (ts - ak), removed)
        return base - removed

    def expand_interval(self, c1: float, c2: float) -> list[tuple[float, float]]:
        """Map compressed interval ``[c1, c2)`` back to original time.

        The image is a union of intervals, one per maximal gap between cuts.
        """
        if c2 <= c1:
            return []
        out: list[tuple[float, float]] = []
        pos = 0.0  # compressed time at cursor
        cursor = self.origin  # original time
        remaining_start = c1
        for a, b in self._cuts + [(float("inf"), float("inf"))]:
            gap = a - cursor  # length of un-cut original time before next cut
            if gap > 0:
                lo = max(remaining_start, pos)
                hi = min(c2, pos + gap)
                o1, o2 = cursor + (lo - pos), cursor + (hi - pos)
                # guard against zero-length intervals born of float rounding
                if hi > lo and o2 > o1 + EPS * max(1.0, abs(o1)) * 1e-3:
                    out.append((o1, o2))
                pos += gap
                if pos >= c2 - EPS:
                    break
            cursor = b
        return out

    def cut(self, intervals: Sequence[tuple[float, float]]) -> None:
        """Excise original-time ``intervals`` (merging with existing cuts)."""
        merged = sorted(self._cuts + [(a, b) for a, b in intervals if b > a])
        out: list[tuple[float, float]] = []
        for a, b in merged:
            if out and a <= out[-1][1] + EPS:
                out[-1] = (out[-1][0], max(out[-1][1], b))
            else:
                out.append((a, b))
        self._cuts = out
        self._cut_arrays = None


@dataclass(frozen=True)
class CriticalInterval:
    """One YDS iteration: jobs run at ``speed`` in ``original_intervals``.

    ``compressed`` is in the compressed timeline of the interval's busy
    period, whose origin is that period's first release.
    """

    speed: float
    compressed: tuple[float, float]
    original_intervals: tuple[tuple[float, float], ...]
    job_ids: tuple[str, ...]


@dataclass
class YDSResult:
    """Schedule, speed profile and the critical-interval decomposition."""

    schedule: Schedule
    profile: SpeedProfile
    critical_intervals: list[CriticalInterval]


def _max_intensity(
    releases: np.ndarray,
    deadlines: np.ndarray,
    works: np.ndarray,
    compressor: TimelineCompressor,
) -> tuple[float, float, float, np.ndarray, np.ndarray, np.ndarray] | None:
    """Find the compressed interval of maximum intensity.

    Returns ``(intensity, c_start, c_end, inside, comp_r, comp_d)`` —
    ``inside`` masks the critical jobs, ``comp_r``/``comp_d`` are every
    job's compressed release and deadline — or ``None`` when no
    positive-work interval exists.  Vectorised over all candidate
    (release, deadline) pairs through :func:`~repro.core.profile_kernel.window_work`;
    the coordinate mapping runs through
    :meth:`TimelineCompressor.compress_many` in one pass.
    """
    n = releases.size
    comp_all = compressor.compress_many(np.concatenate([releases, deadlines]))
    comp_r, comp_d = comp_all[:n], comp_all[n:]
    # collapse_times == dedupe_times on floats (sub-EPS chain collapse
    # keeping the first of each group), minus the Python sort.
    starts = _pk.collapse_times(comp_r)
    ends = _pk.collapse_times(comp_d)
    # work_matrix[i, k] = total work of jobs inside [starts[i], ends[k]]
    work_matrix = _pk.window_work(comp_r, comp_d, works, starts, ends)

    lengths = ends[None, :] - starts[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        intensity = np.where(lengths > EPS, work_matrix / lengths, -np.inf)
    intensity[work_matrix <= 0] = -np.inf

    flat = int(np.argmax(intensity))
    i, k = divmod(flat, intensity.shape[1])
    if not np.isfinite(intensity[i, k]):
        return None
    a, b = float(starts[i]), float(ends[k])
    inside = (comp_r >= a - EPS) & (comp_d <= b + EPS)
    return (float(intensity[i, k]), a, b, inside, comp_r, comp_d)


@dataclass(frozen=True)
class _DiscoveryStep:
    """One critical interval as discovered, before timeline excision.

    ``compressor`` is the live compressor of the step's busy period in its
    *pre-cut* state — valid only until the generator is advanced, which is
    exactly the window a consumer needs to map compressed slices back to
    original time.
    """

    speed: float
    c1: float
    c2: float
    jobs: list[Job]
    comp_windows: list[tuple[float, float]]
    original_cover: list[tuple[float, float]]
    compressor: TimelineCompressor = field(repr=False)


def _busy_periods(pending: Sequence[Job]) -> list[list[Job]]:
    """Split jobs sorted by release into maximal overlapping runs.

    A job released more than EPS after every earlier deadline starts a new
    period: no job window spans the gap before it.
    """
    periods: list[list[Job]] = []
    horizon = float("-inf")
    for j in pending:
        if j.release - horizon > EPS:
            periods.append([])
        periods[-1].append(j)
        horizon = max(horizon, j.deadline)
    return periods


def _period_steps(jobs: Sequence[Job]) -> Iterator[_DiscoveryStep]:
    """YDS on one busy period, in its own compressed timeline."""
    compressor = TimelineCompressor(jobs[0].release)
    releases = np.array([j.release for j in jobs])
    deadlines = np.array([j.deadline for j in jobs])
    works = np.array([j.work for j in jobs])
    left = np.arange(len(jobs))  # indices of unscheduled jobs
    while left.size:
        found = _max_intensity(
            releases[left], deadlines[left], works[left], compressor
        )
        if found is None:
            break
        speed, c1, c2, inside, comp_r, comp_d = found
        original_cover = compressor.expand_interval(c1, c2)
        yield _DiscoveryStep(
            speed,
            c1,
            c2,
            [jobs[i] for i in left[inside].tolist()],
            list(zip(comp_r[inside].tolist(), comp_d[inside].tolist())),
            original_cover,
            compressor,
        )
        compressor.cut(original_cover)
        left = left[~inside]


def _discover(jobs: Sequence[Job]) -> Iterator[_DiscoveryStep]:
    """Yield the critical-interval decomposition step by step.

    This is the schedule-free core of YDS: both :func:`yds` (which
    additionally realises EDF inside each step) and :func:`yds_profile`
    (which only needs the speeds and covers) drive it.

    The jobs split into busy periods separated by idle gaps longer than
    EPS, and each period runs YDS on its own timeline.  That is exact: an
    interval spanning a gap is strictly less intense than one of its two
    sides, both of which are candidates, so no critical interval (and no
    cut) ever reaches a gap and the periods never interact.  Their step
    streams, each non-increasing in speed, are merged by speed, ties to
    the earlier period.  ``heapq.merge`` advances a stream, which cuts its
    timeline, only when asked for the item after that stream's last one.
    """
    pending = sorted((j for j in jobs if j.work > EPS), key=lambda j: j.release)
    yield from heapq.merge(
        *(_period_steps(period) for period in _busy_periods(pending)),
        key=lambda step: -step.speed,
    )


def _step_critical(step: _DiscoveryStep) -> CriticalInterval:
    return CriticalInterval(
        speed=step.speed,
        compressed=(step.c1, step.c2),
        original_intervals=tuple(step.original_cover),
        job_ids=tuple(sorted(j.id for j in step.jobs)),
    )


def _criticals_profile(criticals: Sequence[CriticalInterval]) -> SpeedProfile:
    return SpeedProfile(
        Segment(a, b, ci.speed)
        for ci in criticals
        for (a, b) in ci.original_intervals
    )


def yds(jobs: Sequence[Job]) -> YDSResult:
    """Compute the optimal offline single-machine schedule.

    Zero-work jobs are trivially complete and are ignored.  Returns the
    concrete schedule, the optimal speed profile and the critical-interval
    decomposition (in discovery order, i.e. non-increasing speeds).
    """
    schedule = Schedule(1)
    criticals: list[CriticalInterval] = []

    for step in _discover(jobs):
        # EDF inside the compressed critical interval with compressed windows.
        comp_jobs = [
            Job(max(r, step.c1), min(d, step.c2), j.work, j.id)
            for j, (r, d) in zip(step.jobs, step.comp_windows)
        ]
        comp_profile = SpeedProfile.constant(step.c1, step.c2, step.speed)
        result = run_edf(comp_jobs, comp_profile)
        if not result.feasible:  # pragma: no cover - guaranteed by YDS theory
            raise RuntimeError(
                "internal error: EDF infeasible inside a critical interval "
                f"({result.unfinished})"
            )

        # Map compressed slices back to (possibly split) original time.
        for s in result.schedule.slices(0):
            for (o1, o2) in step.compressor.expand_interval(s.start, s.end):
                schedule.add(o1, o2, step.speed, s.job_id)

        criticals.append(_step_critical(step))

    return YDSResult(schedule, _criticals_profile(criticals), criticals)


def yds_profile(jobs: Sequence[Job]) -> SpeedProfile:
    """The optimal speed profile, without realising a schedule.

    Identical to ``yds(jobs).profile`` but skips the per-interval EDF
    simulation and :class:`~repro.core.schedule.Schedule` construction —
    the fast path for clairvoyant baselines, which only need the profile's
    energy and peak speed.
    """
    criticals = [_step_critical(step) for step in _discover(jobs)]
    return _criticals_profile(criticals)


def optimal_energy(jobs: Sequence[Job], alpha: float) -> float:
    """Minimum energy for ``jobs`` on one machine under ``P(s) = s**alpha``."""
    from ..core.power import PowerFunction

    return yds_profile(jobs).energy(PowerFunction(alpha))


def optimal_max_speed(jobs: Sequence[Job]) -> float:
    """Minimum possible maximum speed (the top critical-interval intensity)."""
    return yds_profile(jobs).max_speed()
