"""Schedule validation.

A schedule for a classical instance is *feasible* when

1. every slice of a job lies inside the job's active window ``(r_j, d_j]``;
2. each machine executes at most one job at a time (slices on one machine do
   not overlap);
3. no job runs on two machines simultaneously (no self-parallelism — the
   paper's parallel-machine model allows migration but not duplication);
4. every job receives exactly its required work.

The checker reports all violations instead of stopping at the first one so
test failures are informative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from .instance import Instance
from .job import Job
from .schedule import Schedule


@dataclass
class FeasibilityReport:
    """Outcome of validating a schedule against an instance."""

    ok: bool
    violations: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    def raise_if_infeasible(self) -> None:
        if not self.ok:
            msgs = "\n  - ".join(self.violations)
            raise InfeasibleScheduleError(f"infeasible schedule:\n  - {msgs}")


class InfeasibleScheduleError(RuntimeError):
    """Raised by :meth:`FeasibilityReport.raise_if_infeasible`."""


def _overlaps(
    rows: Sequence[tuple[float, float, str]], tol: float
) -> list[tuple[tuple[float, float, str], tuple[float, float, str]]]:
    """Pairs of overlapping ``(start, end, job_id)`` rows in a start-sorted
    sequence."""
    return [(a, b) for a, b in zip(rows, rows[1:]) if b[0] < a[1] - tol]


def check_feasible(
    schedule: Schedule,
    instance: Instance,
    tol: float = 1e-6,
    require_all_work: bool = True,
) -> FeasibilityReport:
    """Validate ``schedule`` against ``instance``; see module docstring.

    ``require_all_work=False`` relaxes condition 4 to "no job receives more
    than its work", useful for validating prefixes of online runs.

    The checks read the schedule's columns, each machine's slices in start
    order (a stable sort of the order they were added), and build no
    :class:`~repro.core.schedule.Slice`.
    """
    violations: list[str] = []
    jobs: dict[str, Job] = {j.id: j for j in instance.jobs}

    if schedule.machines > instance.machines:
        violations.append(
            f"schedule uses {schedule.machines} machines, instance has "
            f"{instance.machines}"
        )

    by_machine: list[list[tuple[float, float, str]]] = []
    for m in range(schedule.machines):
        starts, ends, _, ids = schedule.columns(m)
        rows = list(zip(starts, ends, ids))
        rows.sort(key=lambda row: row[0])
        by_machine.append(rows)

    # 1. window containment + unknown jobs
    for m, rows in enumerate(by_machine):
        for start, end, job_id in rows:
            job = jobs.get(job_id)
            if job is None:
                violations.append(f"slice of unknown job {job_id!r} on machine {m}")
                continue
            if start < job.release - tol or end > job.deadline + tol:
                violations.append(
                    f"job {job_id} slice [{start}, {end}) outside window "
                    f"({job.release}, {job.deadline}]"
                )

    # 2. machine capacity
    for m, rows in enumerate(by_machine):
        for a, b in _overlaps(rows, tol):
            violations.append(
                f"machine {m} overlap: {a[2]} [{a[0]},{a[1]}) with "
                f"{b[2]} [{b[0]},{b[1]})"
            )

    # 3. no self-parallelism across machines
    if schedule.machines > 1:
        per_job: dict[str, list[tuple[float, float, str]]] = {}
        for rows in by_machine:
            for row in rows:
                per_job.setdefault(row[2], []).append(row)
        for job_id, rows in per_job.items():
            rows.sort(key=lambda row: row[0])
            # Two slices of one job overlapping on one machine are also
            # reported by check 2.
            for a, b in _overlaps(rows, tol):
                violations.append(
                    f"job {job_id} self-parallel: [{a[0]},{a[1]}) and "
                    f"[{b[0]},{b[1]})"
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
