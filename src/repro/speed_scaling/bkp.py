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
segment midpoints, vectorised over candidate pairs.
"""

from __future__ import annotations

from bisect import bisect_left, insort
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
    arrived = [j for j in jobs if j.release <= t and j.work > 0]
    return _max_ratio(
        np.array([j.release for j in arrived]),
        np.array([j.deadline for j in arrived]),
        np.array([j.work for j in arrived]),
        dedupe_times(j.release for j in arrived if j.release < t),
        dedupe_times(j.deadline for j in arrived if j.deadline >= t),
    )


def _max_ratio(
    releases: np.ndarray,
    deadlines: np.ndarray,
    works: np.ndarray,
    starts: list[float],
    ends: list[float],
) -> float:
    """Largest ``work / span`` over the windows ``[starts[i], ends[k]]``."""
    if not starts or not ends:
        return 0.0
    t1s = np.array(starts)
    t2s = np.array(ends)
    work = _pk.window_work(releases, deadlines, works, t1s, t2s)
    span = t2s[None, :] - t1s[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(span > EPS, work / span, 0.0)
    return float(ratio.max(initial=0.0))


def bkp_profile(jobs: Sequence[Job]) -> SpeedProfile:
    """The piecewise-constant BKP speed profile ``s(t)``.

    Sweeps the event midpoints in time order over the live jobs sorted by
    release once: the arrived jobs are a growing prefix, the start
    candidates (collapsed releases below ``t``) grow with it, and the end
    candidates are the collapsed arrived deadlines at or after ``t`` —
    the same sets :func:`bkp_intensity_at` builds from scratch.
    """
    live = sorted((j for j in jobs if j.work > EPS), key=lambda j: j.release)
    if not live:
        return SpeedProfile()
    releases = [j.release for j in live]
    deadlines = [j.deadline for j in live]
    r_arr = np.array(releases)
    d_arr = np.array(deadlines)
    w_arr = np.array([j.work for j in live])
    events = dedupe_times(releases + deadlines)
    arrived = 0  # live[:arrived] have r <= t
    opened = 0  # live[:opened] have r < t
    starts: list[float] = []
    pending_ends: list[float] = []  # arrived deadlines, sorted
    segments = []
    for a, b in zip(events, events[1:]):
        mid = 0.5 * (a + b)
        while arrived < len(live) and releases[arrived] <= mid:
            insort(pending_ends, deadlines[arrived])
            arrived += 1
        while opened < len(live) and releases[opened] < mid:
            r = releases[opened]
            if not starts or r - starts[-1] > EPS:
                starts.append(r)
            opened += 1
        ends: list[float] = []
        for d in pending_ends[bisect_left(pending_ends, mid):]:
            if not ends or d - ends[-1] > EPS:
                ends.append(d)
        speed = E_CONST * _max_ratio(
            r_arr[:arrived], d_arr[:arrived], w_arr[:arrived], starts, ends
        )
        if speed > 0:
            segments.append(Segment(a, b, speed))
    return SpeedProfile(segments)


def bkp(jobs: Sequence[Job]) -> BKPResult:
    """Run BKP: compute the profile and realise it with EDF.

    Feasibility is guaranteed by the BKP analysis (the profile always
    dominates the current critical intensity of the remaining work); tests
    assert it on random instances.
    """
    profile = bkp_profile(jobs)
    return BKPResult(profile, run_edf(jobs, profile))
