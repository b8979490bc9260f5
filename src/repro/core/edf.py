"""Earliest-Deadline-First realisation of a speed profile.

All single-machine algorithms in the paper follow the same two-level shape:
first commit to a speed function ``s(t)`` (YDS, AVR, BKP, and the QBSS
adaptations), then at every moment execute "the unfinished job with the
smallest deadline which is released before t".  This module implements that
second level: given a :class:`~repro.core.profile.SpeedProfile` and a set of
classical jobs, produce the concrete preemptive :class:`Schedule`.

EDF is optimal for a fixed profile on one machine: if *any* preemptive
scheduler can finish all jobs under ``s(t)``, EDF can (an exchange argument).
The executor therefore also doubles as a feasibility oracle for profiles,
used by property-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from heapq import heappop, heappush

from .constants import EPS
from .job import Job
from .profile import SpeedProfile
from .schedule import Columns, Schedule
from .timeline import dedupe_times


@dataclass
class EDFResult:
    """Outcome of an EDF run: the schedule plus any unfinished work."""

    schedule: Schedule
    unfinished: dict[str, float] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        """Whether every job was fully executed by its deadline."""
        return not self.unfinished


def run_edf(
    jobs: Sequence[Job],
    profile: SpeedProfile,
    machine: int = 0,
    machines: int = 1,
    tol: float = EPS,
) -> EDFResult:
    """Execute ``jobs`` preemptively under ``profile`` with EDF priorities.

    Ties between equal deadlines are broken by job id for determinism.  The
    returned schedule places all slices on ``machine`` (a convenience for
    multi-machine callers assembling per-machine schedules).

    Jobs that cannot finish by their deadline are reported in
    :attr:`EDFResult.unfinished` with their residual work; the schedule still
    contains whatever could be executed before each deadline (work is never
    scheduled outside a job's window).
    """
    schedule = Schedule(machines)
    remaining: dict[str, float] = {
        j.id: j.work for j in jobs if j.work > tol
    }
    by_id: dict[str, Job] = {j.id: j for j in jobs}

    if not remaining:
        return EDFResult(schedule)

    events = dedupe_times(
        [j.release for j in jobs]
        + [j.deadline for j in jobs]
        + profile.breakpoints(),
        tol,
    )
    horizon = max(
        max(j.deadline for j in jobs),
        profile.end if not profile.is_empty else 0.0,
    )
    # Jobs enter the ready heap in release order once released; t never
    # decreases, so a job leaves it for good once finished or once its
    # deadline is within tolerance of t (popped lazily, at the top only).
    arrivals = sorted((by_id[jid] for jid in remaining), key=lambda j: j.release)
    arrival_times = [j.release for j in arrivals]
    n_arrivals = len(arrivals)
    arrived = 0
    ready: list[tuple[float, str]] = []
    # t never decreases, and so neither does the midpoint of [t, next
    # event]: two monotone pointers give bisect_right's index into the
    # events and speed_at's segment.
    seg_starts, seg_ends, seg_speeds = profile.columns()
    n_events, n_segs = len(events), len(seg_starts)
    after = 0  # events[:after] <= t
    seg = 0  # seg_starts[:seg] <= mid
    columns: Columns = ([], [], [], [])
    starts, ends, speeds, ids = columns

    t = events[0]
    while t < horizon - tol and remaining:
        # next structural breakpoint strictly after t (a breakpoint within
        # tolerance of t is handled by the sliver-crediting branch below,
        # which keeps the profile lookup inside the correct segment)
        while after < n_events and events[after] <= t:
            after += 1
        nxt = events[after] if after < n_events else horizon
        mid = 0.5 * (t + nxt)
        while seg < n_segs and seg_starts[seg] <= mid:
            seg += 1
        speed = seg_speeds[seg - 1] if seg and mid < seg_ends[seg - 1] else 0.0
        # candidates: released, unfinished, deadline not passed
        reach = t + tol
        while arrived < n_arrivals and arrival_times[arrived] <= reach:
            job = arrivals[arrived]
            heappush(ready, (job.deadline, job.id))
            arrived += 1
        while ready and (ready[0][1] not in remaining or ready[0][0] <= reach):
            heappop(ready)
        # only exact zero speed means idle: sub-tolerance speeds must still
        # execute sub-tolerance jobs (thresholds would otherwise disagree
        # about which micro-jobs exist)
        if not ready or speed <= 0.0:
            t = nxt
            continue
        deadline, job_id = ready[0]
        rem = remaining[job_id]
        finish_in = rem / speed
        run_until = min(nxt, t + finish_in, deadline)
        if run_until <= reach:
            # The schedulable span is below tolerance.  Either the job
            # completes inside it (finish_in <= tol: forgive the residual and
            # re-plan from the same instant), or the next event is within
            # tolerance: credit the sliver's capacity to the job instead of
            # silently dropping it.  Both under-report at most speed * tol of
            # executed work, absorbed by the checker tolerances.
            if rem <= speed * tol * (1 + 1e-6):
                del remaining[job_id]
                continue
            credited = speed * max(nxt - t, 0.0)
            rem -= credited
            if rem <= tol:
                del remaining[job_id]
            else:
                remaining[job_id] = rem
            t = nxt
            continue
        executed = speed * (run_until - t)
        # run_until > t + tol and speed > 0: a valid slice, as add() checks
        starts.append(t)
        ends.append(run_until)
        speeds.append(speed)
        ids.append(job_id)
        if executed >= rem - tol * max(1.0, rem):
            del remaining[job_id]
        else:
            remaining[job_id] = rem - executed
        t = run_until

    if ids:
        schedule._extend_columns(machine, columns)
    # Anything left over is unfinished work (deadline misses).  Each event
    # boundary can strand at most tol * speed of work in a sub-tolerance
    # sliver, so residuals below that aggregate are float dust, not misses.
    dust = tol * (1.0 + len(events) * profile.max_speed())
    unfinished = {jid: rem for jid, rem in remaining.items() if rem > dust}
    return EDFResult(schedule, unfinished)


def profile_feasible_for(
    jobs: Sequence[Job], profile: SpeedProfile, tol: float = EPS
) -> bool:
    """Whether ``profile`` carries enough capacity for ``jobs`` under EDF.

    Equivalent to the classical condition that for every interval ``[a, b]``
    the profile's work in ``[a, b]`` is at least the total work of jobs whose
    windows lie inside ``[a, b]`` — but checked constructively by running EDF.
    """
    return run_edf(jobs, profile, tol=tol).feasible
