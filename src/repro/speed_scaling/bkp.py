"""The BKP online algorithm (Bansal, Kimbrel, Pruhs 2007).

At any time ``t`` the machine runs at

    s(t) = e * max_{t1 < t <= t2}  w(t, t1, t2) / (t2 - t1)

where ``w(t, t1, t2)`` is the total work of jobs that have *arrived* by time
``t`` (``r_j <= t``), have release at least ``t1`` and deadline at most
``t2``; jobs are executed in EDF order.  BKP is ``2 (alpha/(alpha-1))^alpha
e^alpha``-competitive for energy and ``e``-competitive for maximum speed —
the best possible for a deterministic algorithm on the latter objective.

Between consecutive event times (releases and deadlines) the maximising pair
``(t1, t2)`` ranges over a fixed finite candidate set, so ``s`` is piecewise
constant with breakpoints among the events; we evaluate the inner maximum at
segment midpoints, vectorised over candidate pairs and batched over
consecutive midpoints, each midpoint with exactly the sums a lone
evaluation would make.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..core import profile_kernel as _pk
from ..core.constants import E_CONST, EPS
from ..core.edf import EDFResult, run_edf
from ..core.job import Job
from ..core.profile import SpeedProfile
from ..core.timeline import dedupe_times


@dataclass
class BKPResult:
    """Profile plus the EDF realisation of a BKP run."""

    profile: SpeedProfile
    edf: EDFResult

    @property
    def schedule(self):
        return self.edf.schedule

    @property
    def feasible(self) -> bool:
        return self.edf.feasible


def bkp_intensity_at(jobs: Sequence[Job], t: float) -> float:
    """``max_{t1 < t <= t2} w(t, t1, t2) / (t2 - t1)`` (without the factor e).

    Only jobs with ``r_j <= t`` (arrived) are visible.  The supremum over
    ``t1`` is attained at the smallest release of the chosen job set (or
    approached when that release equals ``t``; callers evaluate at times
    strictly between events so the two coincide).
    """
    arrived = sorted(
        (j for j in jobs if j.release <= t and j.work > 0), key=lambda j: j.release
    )
    if not arrived:
        return 0.0
    return float(_max_ratios(*_job_arrays(arrived), np.array([t]))[0])


def _job_arrays(jobs: Sequence[Job]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (
        np.array([j.release for j in jobs]),
        np.array([j.deadline for j in jobs]),
        np.array([j.work for j in jobs]),
    )


#: Units of roundoff per job that a midpoint's bound must clear before
#: :func:`_max_ratios` searches only its own busy period.
_MARGIN = 64 * 2.0**-53


def _max_ratios(
    releases: np.ndarray,
    deadlines: np.ndarray,
    works: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """BKP's intensity without the factor e at every one of ``points``
    (sorted), for jobs sorted by release.

    At a point ``t`` the arrived jobs are those with ``r <= t``, a prefix;
    the start candidates are the prefix ``< t`` of the chain-collapsed
    releases; and the end candidates are the arrived deadlines ``>= t``,
    chain-collapsed from the first of them.  A point with no start or no
    end reads 0.0.  The others go through :class:`_WindowSearch`.

    Most points search only the starts of their own busy period, from
    ``s_K``, the first start at or after the period's first release ``P0``
    (a release more than EPS after every earlier deadline opens a period).
    A window ``[s, e]`` with an earlier start holds the jobs ranked at most
    ``K`` (work ``A(s)``, all released before ``s_K``) plus some of those
    in the kept window ``[s_K, e]`` (work ``B(e)``), and
    ``e - s = (s_K - s) + (e - s_K)``: its ratio is at most the mediant of
    ``A(s) / (s_K - s) <= H`` and ``B(e) / (e - s_K) <= M``, with ``H`` the
    past's largest such ratio (:func:`_past_ratios`) and ``M`` the kept
    search's maximum.  With ``X = s_K - s_(K-1)`` and ``Y`` the span from
    ``s_K`` to the last end, that mediant is below
    ``M (1 - X / (X + Y) (1 - H / M))``.  The kept cells' sums are the full
    search's bit for bit (dropping the lowest rows leaves every kept cell's
    additions as they were), so where ``M > 0``, every end lies more than
    EPS past ``s_K`` (every ``[s_K, e]`` counts towards ``M``) and
    ``X / (X + Y) (1 - H / M)`` exceeds :data:`_MARGIN` per job (about
    three times the roundoff of a window sum of ``n`` jobs, on both sides),
    no dropped cell can beat ``M``.  Every other point gets the full
    search.
    """
    arrived = np.searchsorted(releases, points, side="right")
    starts = _pk.collapse_times(releases)
    n_starts = np.searchsorted(starts, points, side="left")
    # Every deadline below t has arrived (its release is earlier still),
    # so the distinct arrived deadlines >= t are those arrived by t (a
    # deadline arrives with its first job) less those below t.
    ends, first = np.unique(deadlines, return_index=True)
    n_ends = np.searchsorted(np.sort(first), arrived) - np.searchsorted(ends, points)
    rows = np.searchsorted(starts - EPS, releases, side="right")
    out = np.zeros(points.size)
    busy = np.flatnonzero((n_starts > 0) & (n_ends > 0))
    if not busy.size:
        return out
    search = _WindowSearch(
        deadlines, works, points, starts, rows, ends, arrived, n_starts, n_ends
    )
    t = points[busy]
    opens = np.empty(releases.size, dtype=bool)
    opens[0] = True
    np.greater(releases[1:] - np.maximum.accumulate(deadlines[:-1]), EPS, out=opens[1:])
    period_first = releases[opens]
    cut = starts.searchsorted(period_first[period_first.searchsorted(t, "right") - 1])
    # The dropped jobs, ranked at most K, are those released before P0:
    # earlier periods', whose deadlines lie before P0 and so are no end
    # candidates (the kept search sees the same ends).
    first_job = rows.searchsorted(cut, side="right")
    pruned = (cut > 0) & (n_starts[busy] > cut)
    best, e_first, e_last = search(
        busy, np.where(pruned, cut, 0), np.where(pruned, first_job, 0)
    )
    kept = np.flatnonzero(pruned)
    k = cut[kept]
    s_k = starts[k]
    m = best[kept]
    sure = (m > 0.0) & (e_first[kept] - s_k > EPS)
    sure[sure] = _bound(
        starts[k - 1][sure], s_k[sure], e_last[kept][sure],
        _past_ratios(starts, rows, works, k[sure]), m[sure],
    ) > _MARGIN * releases.size
    out[busy] = best
    again = busy[kept[~sure]]
    if again.size:
        zero = np.zeros(again.size, dtype=np.intp)
        out[again] = search(again, zero, zero)[0]
    return out


def _bound(
    s_before: np.ndarray,
    s_k: np.ndarray,
    e_last: np.ndarray,
    h: np.ndarray,
    m: np.ndarray,
) -> np.ndarray:
    """``X / (X + Y) * (1 - H / M)`` (``M > 0``).

    Infinite work makes it ``inf / inf``: NaN, which clears no margin, so
    those points get the full search.
    """
    x = s_k - s_before
    with np.errstate(invalid="ignore"):
        return x / (x + (e_last - s_k)) * (1.0 - h / m)


def _past_ratios(
    starts: np.ndarray, rows: np.ndarray, works: np.ndarray, cuts: np.ndarray
) -> np.ndarray:
    """For each cut ``K > 0``: the largest ``A(s_i) / (s_K - s_i)`` over
    ``i < K``, where ``A(s_i)`` is the work of the jobs ranked in
    ``(i, K]`` (released at or after ``s_i - EPS`` and before
    ``s_K - EPS``).  Sums of non-negative work and one division each, so
    within a few roundoffs per job of the exact value.  Distinct cuts go
    in blocks of at most a quarter of the kernel's cell budget.
    """
    # by_rank[i]: the work of the jobs of rank i + 1 (rank 0 holds none).
    by_rank = np.bincount(rows, weights=works, minlength=starts.size + 1)[1:]
    distinct, where = np.unique(cuts, return_inverse=True)
    out = np.empty(distinct.size)
    step = max(1, (_pk._CELL_BUDGET // 4) // starts.size)
    for lo in range(0, distinct.size, step):
        block = distinct[lo:lo + step]
        width = int(block[-1])
        inside = np.arange(width) < block[:, None]
        # past[b, i]: the work ranked in (i, K]; its reversed running sum.
        past = np.where(inside, by_rank[:width], 0.0)
        np.add.accumulate(past[:, ::-1], axis=1, out=past[:, ::-1])
        span = starts[block][:, None] - starts[:width]
        np.divide(past, span, out=past, where=inside)
        out[lo:lo + step] = past.max(axis=1, initial=0.0, where=inside)
    return out[where]


class _WindowSearch:
    """The batched window search behind :func:`_max_ratios`.

    ``search(at, cut, first_job)`` returns, for every point ``at[i]``, the
    largest ratio over the windows starting at start ``cut[i]`` or later
    and holding arrived jobs ``first_job[i]`` or later (every job before
    it ranked at most ``cut[i]``), and the point's first and last end
    candidates; ``cut = first_job = 0`` is the full search.  The points go
    in batches of consecutive points
    (:func:`~repro.core.profile_kernel.batches`): each job of a batch is
    one ``(point, job)`` entry, point-major and job-minor, so
    :func:`~repro.core.profile_kernel.window_work` adds each cell's jobs in
    job order, as a lone call per point would, and each point's starts are
    its own ``starts[cut:]``, padded at the high end.  The ratio is
    ``work / span`` where ``span > EPS`` and 0.0 elsewhere; padded ends are
    ``-inf``, so padded cells read 0.0.
    """

    def __init__(
        self,
        deadlines: np.ndarray,
        works: np.ndarray,
        points: np.ndarray,
        starts: np.ndarray,
        rows: np.ndarray,
        ends: np.ndarray,
        arrived: np.ndarray,
        n_starts: np.ndarray,
        n_ends: np.ndarray,
    ) -> None:
        self.deadlines, self.works, self.points = deadlines, works, points
        self.starts, self.rows, self.ends = starts, rows, ends
        self.arrived, self.n_starts, self.n_ends = arrived, n_starts, n_ends
        # A deadline's rank in ``ends``, and how many ends lie more than
        # EPS below it.
        self.rank = np.searchsorted(ends, deadlines)
        self.below = np.searchsorted(ends + EPS, deadlines, side="left")

    def __call__(
        self, at: np.ndarray, cut: np.ndarray, first_job: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        deadlines, works, starts, rows, ends = (
            self.deadlines, self.works, self.starts, self.rows, self.ends
        )
        best, e_first, e_last = np.zeros((3, at.size))
        n_s_all = self.n_starts[at] - cut
        jobs_all = self.arrived[at] - first_job
        for lo, hi in _pk.batches(
            n_s_all.tolist(), self.n_ends[at].tolist(), jobs_all.tolist()
        ):
            size = hi - lo
            counts = jobs_all[lo:hi]
            point = np.repeat(np.arange(size), counts)
            job = (
                np.arange(point.size)
                - np.repeat(counts.cumsum() - counts, counts)
                + np.repeat(first_job[lo:hi], counts)
            )
            t = self.points[at[lo:hi]]
            # Each point's end candidates, its arrived deadlines >= t, as
            # sorted keys point * |ends| + rank.
            live = deadlines[job] >= t[point]
            keys = np.unique(point[live] * ends.size + self.rank[job[live]])
            group, time = keys // ends.size, ends[keys % ends.size]
            # Ends are compared within a point only: the last end of one
            # point and the first of the next may both be infinite.
            close = group[1:] == group[:-1]
            pairs = close.nonzero()[0]
            close[pairs] = time[pairs + 1] - time[pairs] <= EPS
            keep = _pk.chain(np.ones(keys.size, dtype=bool), close, group, time)
            keys, group, time = keys[keep], group[keep], time[keep]
            first_key = np.searchsorted(keys, np.arange(size + 1) * ends.size)
            n_s, n_e = int(n_s_all[lo:hi].max()), int(np.diff(first_key).max())
            e_vals = np.full((size, n_e), -np.inf)
            e_vals.ravel()[group * n_e + np.arange(keys.size) - first_key[group]] = time
            # A job's end rank at its point: that point's ends more than
            # EPS below its deadline.
            col = (
                np.searchsorted(keys, point * ends.size + self.below[job])
                - first_key[point]
            )
            first_start = cut[lo:hi]
            row = (
                np.minimum(rows[job], self.n_starts[at[lo:hi]][point])
                - first_start[point]
            )
            work = _pk.window_work(point, row, col, works[job], (size, n_s, n_e))
            s_vals = starts[
                np.minimum(first_start[:, None] + np.arange(n_s), starts.size - 1)
            ]
            span = e_vals[:, None, :] - s_vals[:, :, None]
            wide = span > EPS
            ratio = np.divide(work, span, out=span, where=wide).reshape(size, -1)
            best[lo:hi] = ratio.max(axis=1, initial=0.0, where=wide.reshape(size, -1))
            e_first[lo:hi] = time[first_key[:-1]]
            e_last[lo:hi] = time[first_key[1:] - 1]
        return best, e_first, e_last


def bkp_profile(jobs: Sequence[Job]) -> SpeedProfile:
    """The piecewise-constant BKP speed profile ``s(t)``.

    Evaluates :func:`_max_ratios` at every event midpoint over the live
    jobs sorted by release: the same sets :func:`bkp_intensity_at` builds
    at one time.
    """
    live = sorted((j for j in jobs if j.work > EPS), key=lambda j: j.release)
    if not live:
        return SpeedProfile()
    releases, deadlines, works = _job_arrays(live)
    times = np.array(dedupe_times(releases.tolist() + deadlines.tolist()))
    speeds = E_CONST * _max_ratios(
        releases, deadlines, works, 0.5 * (times[:-1] + times[1:])
    )
    return SpeedProfile.from_breakpoints(times=times, speeds=speeds)


def bkp(jobs: Sequence[Job]) -> BKPResult:
    """Run BKP: compute the profile and realise it with EDF.

    Feasibility is guaranteed by the BKP analysis (the profile always
    dominates the current critical intensity of the remaining work); tests
    assert it on random instances.
    """
    profile = bkp_profile(jobs)
    return BKPResult(profile, run_edf(jobs, profile))
