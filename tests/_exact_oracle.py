"""YDS and BKP in exact rational arithmetic: an oracle that shares no code,
no EPS and no rounding with the float kernels.

Every float input is converted with :class:`fractions.Fraction`, which is
exact, so the oracle answers for the very instance the float code sees.
The functions are cubic or worse in the number of jobs and meant for a
handful of jobs with times well apart (the tests use at most 8 jobs on a
1e-3 grid, where no EPS decision of the float code can flip).

Test use only.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from repro.core.job import Job

Window = tuple[Fraction, Fraction, Fraction]  # release, deadline, work


def _windows(jobs: Sequence[Job]) -> list[Window]:
    return [
        (Fraction(j.release), Fraction(j.deadline), Fraction(j.work))
        for j in jobs
        if j.work > 0
    ]


def _densest(live: Sequence[Window]) -> tuple[Fraction, Fraction, Fraction]:
    """``(intensity, a, b)`` of a maximum-density interval ``[a, b]``."""
    best: tuple[Fraction, Fraction, Fraction] | None = None
    for a in {r for r, _, _ in live}:
        for b in {d for _, d, _ in live}:
            if b <= a:
                continue
            work = sum((w for r, d, w in live if r >= a and d <= b), Fraction(0))
            if work and (best is None or work / (b - a) > best[0]):
                best = (work / (b - a), a, b)
    assert best is not None  # every window holds its own job
    return best


def yds_intervals(jobs: Sequence[Job]) -> list[tuple[Fraction, Fraction]]:
    """``(speed, length)`` of every YDS critical interval, in discovery order.

    Repeatedly takes an interval of maximum density, removes the jobs whose
    windows lie inside it, and excises it from the timeline: a time inside
    the interval maps to its start, a time after it moves back by its
    length.
    """
    live = _windows(jobs)
    out = []
    while live:
        speed, a, b = _densest(live)
        out.append((speed, b - a))

        def excise(t: Fraction) -> Fraction:
            return t if t <= a else (a if t <= b else t - (b - a))

        live = [
            (excise(r), excise(d), w)
            for r, d, w in live
            if not (r >= a and d <= b)
        ]
    return out


def yds_energy(jobs: Sequence[Job], alpha: int = 3) -> Fraction:
    """The optimal energy ``sum speed**alpha * length`` (integer alpha)."""
    return sum((s**alpha * n for s, n in yds_intervals(jobs)), Fraction(0))


def yds_max_speed(jobs: Sequence[Job]) -> Fraction:
    return max((s for s, _ in yds_intervals(jobs)), default=Fraction(0))


def bkp_intensity(jobs: Sequence[Job], t: Fraction) -> Fraction:
    """``max W / (t2 - t1)`` over ``t1 < t <= t2`` (without the factor e):
    ``W`` is the work of the jobs arrived by ``t`` (``r <= t``) whose
    windows lie inside ``[t1, t2]``.  The maximum is attained at an
    arrived release and an arrived deadline."""
    arrived = [(r, d, w) for r, d, w in _windows(jobs) if r <= t]
    best = Fraction(0)
    for t1 in {r for r, _, _ in arrived if r < t}:
        for t2 in {d for _, d, _ in arrived if d >= t}:
            work = sum((w for r, d, w in arrived if r >= t1 and d <= t2), Fraction(0))
            best = max(best, work / (t2 - t1))
    return best
