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
from ..core.profile import Segment, SpeedProfile
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
    end reads 0.0.  The others go in batches of consecutive points
    (:func:`~repro.core.profile_kernel.batches`): each job of a batch is
    one ``(point, job)`` entry, point-major and job-minor, so
    :func:`~repro.core.profile_kernel.window_work` adds each cell's jobs in
    job order, as a lone call per point would.  The ratio is ``work /
    span`` where ``span > EPS`` and 0.0 elsewhere; padded ends are
    ``-inf``, so padded cells read 0.0.
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
    # A deadline's rank in ``ends``, and how many ends lie more than EPS
    # below it.
    rank = np.searchsorted(ends, deadlines)
    below = np.searchsorted(ends + EPS, deadlines, side="left")
    out = np.zeros(points.size)
    busy = np.flatnonzero((n_starts > 0) & (n_ends > 0))
    for lo, hi in _pk.batches(
        n_starts[busy].tolist(), n_ends[busy].tolist(), arrived[busy].tolist()
    ):
        at = busy[lo:hi]
        size = hi - lo
        counts = arrived[at]
        point = np.repeat(np.arange(size), counts)
        job = np.arange(point.size) - np.repeat(counts.cumsum() - counts, counts)
        # Each point's end candidates, its arrived deadlines >= t, as sorted
        # keys point * |ends| + rank.
        live = deadlines[job] >= points[at][point]
        keys = np.unique(point[live] * ends.size + rank[job[live]])
        group, time = keys // ends.size, ends[keys % ends.size]
        close = (group[1:] == group[:-1]) & (time[1:] - time[:-1] <= EPS)
        keep = _pk.chain(np.ones(keys.size, dtype=bool), close, group, time)
        keys, group, time = keys[keep], group[keep], time[keep]
        first_key = np.searchsorted(keys, np.arange(size + 1) * ends.size)
        n_s, n_e = int(n_starts[at].max()), int(np.diff(first_key).max())
        e_vals = np.full((size, n_e), -np.inf)
        e_vals.ravel()[group * n_e + np.arange(keys.size) - first_key[group]] = time
        # A job's end rank at its point: that point's ends more than EPS
        # below its deadline.
        col = np.searchsorted(keys, point * ends.size + below[job]) - first_key[point]
        row = np.minimum(rows[job], n_starts[at][point])
        work = _pk.window_work(point, row, col, works[job], (size, n_s, n_e))
        span = e_vals[:, None, :] - starts[:n_s][None, :, None]
        wide = span > EPS
        ratio = np.divide(work, span, out=span, where=wide).reshape(size, -1)
        out[at] = ratio.max(axis=1, initial=0.0, where=wide.reshape(size, -1))
    return out


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
    events = dedupe_times(releases.tolist() + deadlines.tolist())
    times = np.array(events)
    speeds = E_CONST * _max_ratios(
        releases, deadlines, works, 0.5 * (times[:-1] + times[1:])
    )
    return SpeedProfile(
        Segment(a, b, v)
        for a, b, v in zip(events, events[1:], speeds.tolist())
        if v > 0
    )


def bkp(jobs: Sequence[Job]) -> BKPResult:
    """Run BKP: compute the profile and realise it with EDF.

    Feasibility is guaranteed by the BKP analysis (the profile always
    dominates the current critical intensity of the remaining work); tests
    assert it on random instances.
    """
    profile = bkp_profile(jobs)
    return BKPResult(profile, run_edf(jobs, profile))
