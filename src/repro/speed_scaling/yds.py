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

Busy periods (runs of jobs separated by idle gaps over EPS) never interact,
so each keeps its own timeline, and the search goes in rounds: round *r*
finds the *r*-th critical interval of every period that still has jobs in
one batched pass of the window-sum kernel.  Each period gets exactly the
arithmetic of a search over that period alone.  A discovered step carries
a snapshot of its period's timeline (origin and cuts) as it stood before
the step's own cut, which is what maps the step's slices back to original
time.

This is the workhorse of the whole library: the clairvoyant baseline of
every QBSS experiment is YDS on the jobs ``(r_j, d_j, p*_j)`` (paper Sec. 3),
and CRP2D calls YDS as a subroutine (Algorithm 2, line 6).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..core.constants import EPS
from ..core.edf import run_edf
from ..core.job import Job
from ..core.profile import SpeedProfile
from ..core.schedule import Schedule
from ..core import profile_kernel as _pk


def _expand(
    origin: float, cuts: Sequence[tuple[float, float]], c1: float, c2: float
) -> list[tuple[float, float]]:
    """:meth:`TimelineCompressor.expand_interval` of a timeline given as its
    ``origin`` and its sorted, merged ``cuts``."""
    if c2 <= c1:
        return []
    out: list[tuple[float, float]] = []
    pos = 0.0  # compressed time at cursor
    cursor = origin  # original time
    remaining_start = c1
    for a, b in (*cuts, (float("inf"), float("inf"))):
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
        return _expand(self.origin, self._cuts, c1, c2)

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


@dataclass(frozen=True)
class _DiscoveryStep:
    """One critical interval as discovered, before timeline excision.

    ``origin`` and ``cuts`` snapshot the step's busy-period timeline in its
    *pre-cut* state: what maps the step's compressed slices back to
    original time (:func:`_expand`).
    """

    speed: float
    c1: float
    c2: float
    jobs: list[Job]
    comp_windows: list[tuple[float, float]]
    original_cover: list[tuple[float, float]]
    origin: float
    cuts: tuple[tuple[float, float], ...] = field(repr=False)


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


def _compress(
    timelines: Sequence[TimelineCompressor],
    item: np.ndarray,
    times: np.ndarray,
    base: np.ndarray,
) -> np.ndarray:
    """:meth:`TimelineCompressor.compress_many` of many times in one pass:
    ``times[j]`` maps through ``timelines[item[j]]``, and ``base[j]`` is
    its ``time - origin``.

    The timelines' cuts are concatenated, each timeline's running cut
    lengths behind a leading 0.0, and one complex-keyed search ranks every
    time among its own timeline's cuts.  The rest is compress_many's
    arithmetic elementwise (a timeline without cuts subtracts 0.0), so
    every time maps to the same bits.
    """
    a: list[float] = []
    b: list[float] = []
    owner: list[int] = []
    cum: list[float] = []  # per timeline: 0.0, then its running cut lengths
    top: list[int] = []  # cuts of timelines 0..k
    for k, timeline in enumerate(timelines):
        total = 0.0
        cum.append(total)
        for lo, hi in timeline._cuts:
            a.append(lo)
            b.append(hi)
            owner.append(k)
            total += hi - lo  # np.cumsum's sequential order
            cum.append(total)
        top.append(len(a))
    if not a:
        return base
    cut_a = np.array(a)
    rank = _pk.keyed(np.array(owner), np.array(b)).searchsorted(
        _pk.keyed(item, times), side="right"
    )
    removed = np.array(cum)[rank + item]
    ak = cut_a[np.minimum(rank, cut_a.size - 1)]
    straddles = (rank < np.array(top)[item]) & (ak < times)
    removed = np.where(straddles, removed + (times - ak), removed)
    return base - removed


def _critical(
    item: np.ndarray, first_job: np.ndarray, comp: np.ndarray, works: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every item's compressed interval of maximum intensity, in batches.

    ``comp`` holds the jobs' compressed releases, then their compressed
    deadlines; ``item`` (non-decreasing) is each job's item, and item
    ``k``'s jobs are ``first_job[k]:first_job[k + 1]``.  Returns per item
    ``(intensity, c_start, c_end)``, the intensity ``-inf`` when no
    positive-work interval exists, and per job whether it lies inside its
    item's interval (every job of an item without one).  Per item this is
    the lone computation exactly: its collapsed starts and ends, its window
    sums through :func:`~repro.core.profile_kernel.window_work`,
    ``work / length`` where ``length > EPS`` and ``work > 0`` (``-inf``
    elsewhere), and the first maximum in row-major order.  Padded starts
    are ``+inf`` and padded ends ``-inf``, so every padded cell's length is
    ``-inf`` and its intensity ``-inf``: a padded column, which repeats its
    row's work, cannot beat an item whose real cells are all ``-inf``.

    A job is inside ``[c_start - EPS, c_end + EPS]`` exactly when its start
    rank exceeds the interval's start row and its end rank is at most the
    interval's end column: the ranks compare it with ``start - EPS`` and
    ``end + EPS``, the same floats.
    """
    n, n_items = item.size, first_job.size - 1
    # One sort collapses both: item k's starts are group k, its ends
    # group n_items + k.
    keys = _pk.keyed(np.concatenate((item, item + n_items)), comp)
    kept = _pk.collapse_keys(keys)
    group = kept.real.astype(np.intp)
    first = group.searchsorted(np.arange(2 * n_items + 1))
    at = np.arange(kept.size) - first[group]  # position within its group
    rows = (kept - 1j * EPS).searchsorted(keys[:n], side="right") - first[item]
    cols = (kept + 1j * EPS).searchsorted(keys[n:]) - first[n_items + item]
    bounds = first.tolist()
    counts = [b - a for a, b in zip(bounds, bounds[1:])]
    job_bounds = first_job.tolist()
    best, c1, c2 = np.empty((3, n_items))
    row, col = np.empty((2, n_items), dtype=np.intp)
    for lo, hi in _pk.batches(
        counts[:n_items],
        counts[n_items:],
        [b - a for a, b in zip(job_bounds, job_bounds[1:])],
    ):
        size = hi - lo
        n_s, n_e = max(counts[lo:hi]), max(counts[n_items + lo:n_items + hi])
        jobs = slice(job_bounds[lo], job_bounds[hi])
        work = _pk.window_work(
            item[jobs] - lo, rows[jobs], cols[jobs], works[jobs], (size, n_s, n_e)
        )
        starts = slice(bounds[lo], bounds[hi])
        ends = slice(bounds[n_items + lo], bounds[n_items + hi])
        s_vals = np.empty((size, n_s))
        s_vals.fill(np.inf)
        e_vals = np.empty((size, n_e))
        e_vals.fill(-np.inf)
        s_vals.ravel()[(group[starts] - lo) * n_s + at[starts]] = kept.imag[starts]
        e_vals.ravel()[(group[ends] - n_items - lo) * n_e + at[ends]] = kept.imag[ends]
        lengths = e_vals[:, None, :] - s_vals[:, :, None]
        valid = (lengths > EPS) & (work > 0)
        intensity = np.empty((size, n_s * n_e))
        intensity.fill(-np.inf)
        np.divide(work, lengths, out=intensity.reshape(lengths.shape), where=valid)
        flat = intensity.argmax(axis=1)
        every = np.arange(size)
        best[lo:hi] = intensity[every, flat]
        row[lo:hi], col[lo:hi] = np.divmod(flat, n_e)
        c1[lo:hi] = s_vals[every, row[lo:hi]]
        c2[lo:hi] = e_vals[every, col[lo:hi]]
    # An item without an interval takes all its jobs: row -1, column n.
    none = ~np.isfinite(best)
    row[none], col[none] = -1, n
    inside = (rows > row[item]) & (cols <= col[item])
    return best, c1, c2, inside


def _lone_steps(
    periods: Sequence[list[Job]],
    lone: Sequence[int],
    steps: list[list[_DiscoveryStep]],
) -> None:
    """Append the step of every busy period ``q in lone``, each one job, in
    one numpy pass.

    It is the step the rounds would find, in their own expressions: in
    its period's timeline (origin: its release ``r``) the job's window is
    ``[0.0, d - r]``, so its speed is ``w / ((d - r) - 0.0)`` and its cover
    ``[r + 0.0, r + ((d - r) - 0.0))``.  A period whose window is at most
    EPS long, or whose intensity is not finite, has no step; a cover that
    fails :func:`_expand`'s zero-length guard is empty.
    """
    if not lone:
        return
    job = [periods[q][0] for q in lone]
    r = np.array([j.release for j in job])
    c2 = np.array([j.deadline for j in job]) - r
    length = c2 - 0.0
    speed = np.full(r.size, -np.inf)
    np.divide(np.array([j.work for j in job]), length, out=speed, where=length > EPS)
    o1 = r + 0.0
    o2 = r + (c2 - 0.0)
    covered = (c2 > 0.0) & (o2 > o1 + EPS * np.maximum(1.0, np.abs(o1)) * 1e-3)
    for q, j, v, hi, a, b, keep in zip(
        lone,
        job,
        speed.tolist(),
        c2.tolist(),
        o1.tolist(),
        o2.tolist(),
        covered.tolist(),
    ):
        if math.isfinite(v):
            steps[q].append(
                _DiscoveryStep(
                    v, 0.0, hi, [j], [(0.0, hi)], [(a, b)] if keep else [],
                    j.release, (),
                )
            )


def _rounds(
    periods: Sequence[list[Job]],
    multi: Sequence[int],
    steps: list[list[_DiscoveryStep]],
) -> None:
    """Run YDS on every busy period ``q in multi`` in rounds, appending each
    period's steps to ``steps[q]``.

    Round *r* finds the *r*-th critical interval of every period that
    still has jobs in one batched pass (:func:`_critical` on
    :func:`_compress`'s times), and then cuts each period's timeline.
    """
    if not multi:
        return
    # Smallest periods first, so that a round's batches pad little.
    layout = sorted(multi, key=lambda q: len(periods[q]))
    flat = [j for q in layout for j in periods[q]]
    period = np.repeat(layout, [len(periods[q]) for q in layout])
    timelines = {q: TimelineCompressor(periods[q][0].release) for q in layout}
    # Each job's release (row 0) and deadline (row 1), and both less its
    # period's origin.
    times = np.array([[j.release for j in flat], [j.deadline for j in flat]])
    origins = np.repeat(
        [timelines[q].origin for q in layout], [len(periods[q]) for q in layout]
    )
    base = times - origins
    works = np.array([j.work for j in flat])
    alive = np.arange(len(flat))  # unscheduled jobs, period after period
    while alive.size:
        owner = period[alive]
        head = np.empty(alive.size + 1, dtype=bool)
        head[0] = head[-1] = True
        np.not_equal(owner[1:], owner[:-1], out=head[1:-1])
        first_job = head.nonzero()[0]
        item = np.arange(first_job.size - 1).repeat(first_job[1:] - first_job[:-1])
        active = owner[first_job[:-1]].tolist()
        comp = _compress(  # compressed releases, then compressed deadlines
            [timelines[q] for q in active],
            np.concatenate((item, item)),
            times[:, alive].ravel(),
            base[:, alive].ravel(),
        )
        speed, c1, c2, inside = _critical(item, first_job, comp, works[alive])
        picked = inside.nonzero()[0]
        members: list[list[Job]] = [[] for _ in active]
        windows: list[list[tuple[float, float]]] = [[] for _ in active]
        for k, g, r, d in zip(
            item[picked].tolist(),
            alive[picked].tolist(),
            comp[picked].tolist(),
            comp[alive.size + picked].tolist(),
        ):
            members[k].append(flat[g])
            windows[k].append((r, d))
        for k, (v, lo, hi) in enumerate(zip(speed.tolist(), c1.tolist(), c2.tolist())):
            if not math.isfinite(v):
                continue  # no critical interval: the period drops its jobs
            timeline = timelines[active[k]]
            cover = timeline.expand_interval(lo, hi)
            steps[active[k]].append(
                _DiscoveryStep(
                    v,
                    lo,
                    hi,
                    members[k],
                    windows[k],
                    cover,
                    timeline.origin,
                    tuple(timeline._cuts),
                )
            )
            timeline.cut(cover)
        alive = alive[~inside]


def _discover(jobs: Sequence[Job]) -> list[_DiscoveryStep]:
    """The critical-interval decomposition, step by step.

    This is the schedule-free core of YDS: both :func:`yds` (which
    additionally realises EDF inside each step) and :func:`yds_profile`
    (which only needs the speeds and covers) drive it.

    The jobs split into busy periods separated by idle gaps longer than
    EPS, and each period runs YDS on its own timeline.  That is exact: an
    interval spanning a gap is strictly less intense than one of its two
    sides, both of which are candidates, so no critical interval (and no
    cut) ever reaches a gap and the periods never interact.  A period of
    one job is its own critical interval, and all of those are found in
    one pass (:func:`_lone_steps`); the other periods go in rounds
    (:func:`_rounds`).  Each period's steps, non-increasing in speed, are
    merged by speed, ties to the earlier period.
    """
    pending = sorted((j for j in jobs if j.work > EPS), key=lambda j: j.release)
    periods = _busy_periods(pending)
    steps: list[list[_DiscoveryStep]] = [[] for _ in periods]
    _lone_steps(periods, [q for q, p in enumerate(periods) if len(p) == 1], steps)
    _rounds(periods, [q for q, p in enumerate(periods) if len(p) > 1], steps)
    return _merge_by_speed(steps)


def _merge_by_speed(steps: Sequence[list[_DiscoveryStep]]) -> list[_DiscoveryStep]:
    """``heapq.merge(*steps, key=-speed)``: when every period's steps are
    non-increasing in speed (all but float ties), that merge is a stable
    sort of their concatenation, which costs less."""
    if all(a.speed >= b.speed for per in steps for a, b in zip(per, per[1:])):
        return sorted((s for per in steps for s in per), key=lambda step: -step.speed)
    return list(heapq.merge(*steps, key=lambda step: -step.speed))


def _step_critical(step: _DiscoveryStep) -> CriticalInterval:
    return CriticalInterval(
        speed=step.speed,
        compressed=(step.c1, step.c2),
        original_intervals=tuple(step.original_cover),
        job_ids=tuple(sorted(j.id for j in step.jobs)),
    )


def _covers_profile(
    covers: Sequence[tuple[float, Sequence[tuple[float, float]]]],
) -> SpeedProfile:
    """The profile running at each ``speed`` on its ``cover``'s intervals."""
    starts: list[float] = []
    ends: list[float] = []
    speeds: list[float] = []
    for speed, cover in covers:
        for a, b in cover:
            starts.append(a)
            ends.append(b)
            speeds.append(speed)
    return SpeedProfile.from_segments(starts=starts, ends=ends, speeds=speeds)


def _criticals_profile(criticals: Sequence[CriticalInterval]) -> SpeedProfile:
    return _covers_profile([(ci.speed, ci.original_intervals) for ci in criticals])


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
            for (o1, o2) in _expand(step.origin, step.cuts, s.start, s.end):
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
    return _covers_profile(
        [(step.speed, step.original_cover) for step in _discover(jobs)]
    )


def optimal_energy(jobs: Sequence[Job], alpha: float) -> float:
    """Minimum energy for ``jobs`` on one machine under ``P(s) = s**alpha``."""
    from ..core.power import PowerFunction

    return yds_profile(jobs).energy(PowerFunction(alpha))


def optimal_max_speed(jobs: Sequence[Job]) -> float:
    """Minimum possible maximum speed (the top critical-interval intensity)."""
    return yds_profile(jobs).max_speed()
