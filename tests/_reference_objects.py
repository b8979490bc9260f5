"""The object paths: test oracles for the columnar schedule, the pointer
EDF, the columnar feasibility check and the online derivation.

Before schedules became columns, a :class:`~repro.core.schedule.Schedule`
held one frozen :class:`~repro.core.schedule.Slice` per executed slice;
:func:`run_edf` looked up each step's next event with ``bisect_right`` and
its speed with ``SpeedProfile.speed_at``, and added every slice through
``Schedule.add``; :func:`check_feasible` walked ``Slice`` objects; and
:func:`derive_online` built one :class:`~repro.core.events.Arrival` per
derived job and an :class:`~repro.core.events.OnlineStream` to order them.
Those versions live on here with their arithmetic unchanged
(:class:`ObjectSchedule` is that schedule), and the live code must equal
them: the same slices, ``unfinished`` maps, feasibility reports, derived
jobs, decisions and revelation stamps.  ``reference_mode()``
(``tests/_reference_profile.py``) rebinds all three functions to them.

Test use only.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from collections.abc import Iterable, Sequence
from heapq import heappop, heappush

from repro.core import profile_kernel as _pk
from repro.core.constants import EPS
from repro.core.edf import EDFResult
from repro.core.events import Arrival, OnlineStream
from repro.core.feasibility import FeasibilityReport
from repro.core.instance import Instance, QBSSInstance
from repro.core.job import Job
from repro.core.power import PowerFunction
from repro.core.profile import Segment, SpeedProfile
from repro.core.schedule import Slice
from repro.core.timeline import dedupe_times
from repro.qbss.decisions import DecisionLog, QueryDecision
from repro.qbss.policies import QueryPolicy, SplitPolicy
from repro.qbss.transform import DerivedOnline

# -- the schedule: one Slice per slice -----------------------------------------------


class ObjectSchedule:
    """The object :class:`~repro.core.schedule.Schedule`: one frozen
    :class:`Slice` per executed slice, in a list per machine."""

    def __init__(self, machines: int = 1) -> None:
        if machines < 1:
            raise ValueError(f"machines must be >= 1, got {machines}")
        self.machines = machines
        self._slices: list[list[Slice]] = [[] for _ in range(machines)]

    # -- construction -----------------------------------------------------------

    def add(
        self,
        start: float,
        end: float,
        speed: float,
        job_id: str,
        machine: int = 0,
    ) -> None:
        """Append a slice on ``machine`` (slices may be added in any order)."""
        if not 0 <= machine < self.machines:
            raise ValueError(f"machine {machine} out of range 0..{self.machines - 1}")
        if speed <= 0:
            return  # zero-speed slices carry no work and no energy
        self._slices[machine].append(Slice(start, end, speed, job_id))

    def extend(self, slices: Iterable[Slice], machine: int = 0) -> None:
        for s in slices:
            self.add(s.start, s.end, s.speed, s.job_id, machine)

    # -- access -----------------------------------------------------------------

    def slices(self, machine: int | None = None) -> list[Slice]:
        """Slices of one machine, or all machines, sorted by start time."""
        if machine is None:
            out = [s for per in self._slices for s in per]
        else:
            out = list(self._slices[machine])
        return sorted(out, key=lambda s: (s.start, s.end, s.job_id))

    def machine_slices(self) -> list[list[Slice]]:
        return [sorted(per, key=lambda s: s.start) for per in self._slices]

    def job_ids(self) -> list[str]:
        return sorted({s.job_id for per in self._slices for s in per})

    # -- aggregates --------------------------------------------------------------

    def work_of(self, job_id: str) -> float:
        """Total work executed for ``job_id`` across all machines."""
        return sum(
            s.work for per in self._slices for s in per if s.job_id == job_id
        )

    def work_by_job(self) -> dict[str, float]:
        acc: dict[str, float] = defaultdict(float)
        for per in self._slices:
            for s in per:
                acc[s.job_id] += s.work
        return dict(acc)

    def completion_time(self, job_id: str) -> float:
        """Latest end time of any slice of ``job_id`` (-inf when absent)."""
        return self.completion_times().get(job_id, float("-inf"))

    def completion_times(self) -> dict[str, float]:
        """:meth:`completion_time` of every scheduled job, in one pass."""
        done: dict[str, float] = {}
        for per in self._slices:
            for s in per:
                if s.end > done.get(s.job_id, float("-inf")):
                    done[s.job_id] = s.end
        return done

    def machine_profile(self, machine: int) -> SpeedProfile:
        """The speed profile of one machine."""
        return SpeedProfile(
            Segment(s.start, s.end, s.speed) for s in self._slices[machine]
        )

    def energy(self, power: PowerFunction) -> float:
        """Total energy over all machines."""
        speeds = _pk.as_float_array([s.speed for per in self._slices for s in per])
        durations = _pk.as_float_array(
            [s.duration for per in self._slices for s in per]
        )
        return _pk.sequential_sum(_pk.powers(speeds, power.alpha) * durations)

    def max_speed(self) -> float:
        """Peak speed over all machines and times."""
        return _pk.max_speed(
            _pk.as_float_array([s.speed for per in self._slices for s in per])
        )

    def span(self) -> tuple[float, float]:
        allslices = [s for per in self._slices for s in per]
        if not allslices:
            return (0.0, 0.0)
        return (min(s.start for s in allslices), max(s.end for s in allslices))

    def busy_time(self, machine: int) -> float:
        """Total time ``machine`` spends executing (sum of slice durations)."""
        if not 0 <= machine < self.machines:
            raise ValueError(f"machine {machine} out of range 0..{self.machines - 1}")
        return sum(s.duration for s in self._slices[machine])

    def utilization(self, machine: int, horizon: tuple[float, float] | None = None) -> float:
        """Fraction of the horizon ``machine`` is busy (horizon = span default)."""
        lo, hi = horizon if horizon is not None else self.span()
        if hi <= lo:
            return 0.0
        return self.busy_time(machine) / (hi - lo)

    def __repr__(self) -> str:
        n = sum(len(per) for per in self._slices)
        return f"ObjectSchedule(machines={self.machines}, slices={n})"


# -- EDF: the heap, a bisect and speed_at per step ---------------------------------


def run_edf(
    jobs: Sequence[Job],
    profile: SpeedProfile,
    machine: int = 0,
    machines: int = 1,
    tol: float = EPS,
) -> EDFResult:
    """The heap EDF: ``bisect_right`` and ``speed_at`` per step, one
    :class:`Slice` per executed slice.

    Ties between equal deadlines are broken by job id for determinism.  The
    returned schedule places all slices on ``machine`` (a convenience for
    multi-machine callers assembling per-machine schedules).

    Jobs that cannot finish by their deadline are reported in
    :attr:`EDFResult.unfinished` with their residual work; the schedule still
    contains whatever could be executed before each deadline (work is never
    scheduled outside a job's window).
    """
    schedule = ObjectSchedule(machines)
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
    arrived = 0
    ready: list[tuple[float, str]] = []

    t = events[0]
    while t < horizon - tol and remaining:
        # next structural breakpoint strictly after t (a breakpoint within
        # tolerance of t is handled by the sliver-crediting branch below,
        # which keeps the profile lookup inside the correct segment)
        i = bisect_right(events, t)
        nxt = events[i] if i < len(events) else horizon
        speed = profile.speed_at(0.5 * (t + nxt))
        # candidates: released, unfinished, deadline not passed
        while arrived < len(arrivals) and arrivals[arrived].release <= t + tol:
            heappush(ready, (arrivals[arrived].deadline, arrivals[arrived].id))
            arrived += 1
        while ready and (ready[0][1] not in remaining or ready[0][0] <= t + tol):
            heappop(ready)
        # only exact zero speed means idle: sub-tolerance speeds must still
        # execute sub-tolerance jobs (thresholds would otherwise disagree
        # about which micro-jobs exist)
        if not ready or speed <= 0.0:
            t = nxt
            continue
        job = by_id[ready[0][1]]
        rem = remaining[job.id]
        finish_in = rem / speed
        run_until = min(nxt, t + finish_in, job.deadline)
        if run_until <= t + tol:
            # The schedulable span is below tolerance.  Either the job
            # completes inside it (finish_in <= tol: forgive the residual and
            # re-plan from the same instant), or the next event is within
            # tolerance: credit the sliver's capacity to the job instead of
            # silently dropping it.  Both under-report at most speed * tol of
            # executed work, absorbed by the checker tolerances.
            if rem <= speed * tol * (1 + 1e-6):
                del remaining[job.id]
                continue
            credited = speed * max(nxt - t, 0.0)
            rem -= credited
            if rem <= tol:
                del remaining[job.id]
            else:
                remaining[job.id] = rem
            t = nxt
            continue
        executed = speed * (run_until - t)
        schedule.add(t, run_until, speed, job.id, machine)
        if executed >= rem - tol * max(1.0, rem):
            del remaining[job.id]
        else:
            remaining[job.id] = rem - executed
        t = run_until

    # Anything left over is unfinished work (deadline misses).  Each event
    # boundary can strand at most tol * speed of work in a sub-tolerance
    # sliver, so residuals below that aggregate are float dust, not misses.
    dust = tol * (1.0 + len(events) * profile.max_speed())
    unfinished = {jid: rem for jid, rem in remaining.items() if rem > dust}
    return EDFResult(schedule, unfinished)


# -- feasibility: the walk over Slice objects ----------------------------------------


def _overlaps(slices: Sequence[Slice], tol: float) -> list[tuple[Slice, Slice]]:
    """Pairs of overlapping slices in a start-sorted sequence."""
    bad = []
    ordered = sorted(slices, key=lambda s: s.start)
    for a, b in zip(ordered, ordered[1:]):
        if b.start < a.end - tol:
            bad.append((a, b))
    return bad


def check_feasible(
    schedule: Schedule,
    instance: Instance,
    tol: float = 1e-6,
    require_all_work: bool = True,
) -> FeasibilityReport:
    """Validate ``schedule`` against ``instance``; see module docstring.

    ``require_all_work=False`` relaxes condition 4 to "no job receives more
    than its work", useful for validating prefixes of online runs.
    """
    violations: list[str] = []
    jobs: dict[str, Job] = {j.id: j for j in instance.jobs}

    if schedule.machines > instance.machines:
        violations.append(
            f"schedule uses {schedule.machines} machines, instance has "
            f"{instance.machines}"
        )

    # 1. window containment + unknown jobs
    for m, per in enumerate(schedule.machine_slices()):
        for s in per:
            job = jobs.get(s.job_id)
            if job is None:
                violations.append(f"slice of unknown job {s.job_id!r} on machine {m}")
                continue
            if s.start < job.release - tol or s.end > job.deadline + tol:
                violations.append(
                    f"job {s.job_id} slice [{s.start}, {s.end}) outside window "
                    f"({job.release}, {job.deadline}]"
                )

    # 2. machine capacity
    for m, per in enumerate(schedule.machine_slices()):
        for a, b in _overlaps(per, tol):
            violations.append(
                f"machine {m} overlap: {a.job_id} [{a.start},{a.end}) with "
                f"{b.job_id} [{b.start},{b.end})"
            )

    # 3. no self-parallelism across machines
    if schedule.machines > 1:
        per_job: dict[str, list[Slice]] = {}
        for per in schedule.machine_slices():
            for s in per:
                per_job.setdefault(s.job_id, []).append(s)
        for job_id, slices in per_job.items():
            for a, b in _overlaps(slices, tol):
                # Overlap within one machine is already reported by check 2;
                # report here only when the job genuinely runs in parallel
                # with itself, i.e. the overlapping slices are distinct.
                if a is not b:
                    violations.append(
                        f"job {job_id} self-parallel: [{a.start},{a.end}) and "
                        f"[{b.start},{b.end})"
                    )

    # 4. work completion
    executed = schedule.work_by_job()
    for job_id, job in jobs.items():
        done = executed.get(job_id, 0.0)
        scale = max(abs(job.work), 1.0)
        if done > job.work + tol * scale:
            violations.append(
                f"job {job_id} over-executed: {done} > required {job.work}"
            )
        if require_all_work and done < job.work - tol * scale:
            violations.append(
                f"job {job_id} under-executed: {done} < required {job.work}"
            )

    return FeasibilityReport(ok=not violations, violations=violations)


# -- the online derivation: one Arrival per derived job --------------------------------


def derive_online(
    qinstance: QBSSInstance,
    query_policy: QueryPolicy,
    split_policy: SplitPolicy,
) -> DerivedOnline:
    """Apply the policies to every job and build the derived arrival stream.

    The decision for a job is taken at its release from the *view* only.
    For queried jobs the exact load is obtained via ``view.reveal(tau)``,
    which stamps the revelation at the split point — reading it earlier is
    structurally impossible.
    """
    log = DecisionLog()
    arrivals: list[Arrival] = []
    views = qinstance.views()
    for view in views:
        if query_policy.should_query(view):
            x = split_policy.split_fraction(view)
            tau = view.split_point(x)
            qjob = Job(view.release, tau, view.query_cost, view.id + ":query")
            wstar = view.reveal(tau)
            wjob = Job(tau, view.deadline, wstar, view.id + ":work")
            arrivals.append(Arrival(view.release, qjob))
            arrivals.append(Arrival(tau, wjob))
            log.record(view.id, QueryDecision(True, x))
        else:
            full = view.as_upper_bound_job()
            arrivals.append(Arrival(view.release, full))
            log.record(view.id, QueryDecision(False))
    stream = OnlineStream(arrivals)
    jobs = [a.job for a in stream]
    return DerivedOnline(jobs, log, views)
