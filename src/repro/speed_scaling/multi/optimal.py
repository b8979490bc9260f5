"""Exact optimal energy on m machines with migration, via convex programming.

Albers, Antoniadis and Greiner 2015 solve the offline migratory problem
optimally with a combinatorial algorithm.  We use a value-equivalent convex
formulation, which is easier to make robust in Python and doubles as an
independent cross-check of YDS for ``m = 1``:

* Partition time into elementary intervals between consecutive releases /
  deadlines.  In an optimal schedule the speed of each machine is constant
  on each elementary interval (convexity), so only the per-interval work
  vector matters.
* Variables: ``x[j, i] >= 0`` — work of job ``j`` done in interval ``i``
  (zero outside the job's window); ``sum_i x[j, i] = w_j``.
* The minimum energy to execute works ``x[., i]`` in an interval of length
  ``L`` on ``m`` machines is the *water-filling* value: iteratively, a job
  whose required speed ``x_j / L`` exceeds the average of the rest gets its
  own machine ("big", running the whole interval), and the remainder share
  the remaining machines equally — exactly the shape of the AVR(m) slot
  rule, here applied to per-interval works instead of densities.  This
  function is convex in ``x[., i]``.

The resulting program is convex and is solved with SLSQP.  Intended for
small instances (tests and spot checks); large benchmarks use
:func:`repro.speed_scaling.multi.bounds.pooled_lower_bound` instead.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ...core.constants import EPS
from ...core.job import Job
from ...core.timeline import dedupe_times


def slot_energy(works: np.ndarray, length: float, machines: int, alpha: float) -> float:
    """Minimum energy to run ``works`` within one interval of ``length``.

    Implements the water-filling split described in the module docstring.
    """
    xs = np.sort(works[works > 0])[::-1]
    if xs.size == 0:
        return 0.0
    total = float(xs.sum())
    remaining = machines
    energy = 0.0
    k = 0
    while k < xs.size and remaining > 0:
        if xs[k] > total / remaining + 0.0:
            # big: own machine for the whole interval
            energy += length * (xs[k] / length) ** alpha
            total -= float(xs[k])
            remaining -= 1
            k += 1
        else:
            break
    if k < xs.size:
        if remaining == 0:
            # infeasible packing; return a steep penalty to push SLSQP away
            return energy + 1e6 * total
        shared_speed = total / (remaining * length)
        energy += remaining * length * shared_speed**alpha
    return energy


def elementary_grid(jobs: Sequence[Job]) -> list[tuple[float, float]]:
    """Elementary intervals spanned by the jobs' releases and deadlines."""
    pts = dedupe_times(
        [j.release for j in jobs] + [j.deadline for j in jobs]
    )
    return list(zip(pts, pts[1:]))


def optimal_allocation(
    jobs: Sequence[Job],
    machines: int,
    alpha: float,
    tol: float = 1e-9,
) -> dict[str, dict[int, float]]:
    """Solve the convex program and return per-job per-interval works.

    Keys are job ids; inner keys index :func:`elementary_grid`'s intervals.
    Used by :func:`optimal_schedule` and by OA(m)'s replanning.
    """
    live = [j for j in jobs if j.work > EPS]
    if not live:
        return {}
    grid = elementary_grid(live)
    lengths = np.array([b - a for a, b in grid])
    n, g = len(live), len(grid)

    allowed = np.zeros((n, g), dtype=bool)
    for jidx, job in enumerate(live):
        for gidx, (a, b) in enumerate(grid):
            if job.release - EPS <= a and b <= job.deadline + EPS:
                allowed[jidx, gidx] = True

    var_index = [(j, i) for j in range(n) for i in range(g) if allowed[j, i]]
    nv = len(var_index)
    works = np.array([j.work for j in live])

    def unpack(z: np.ndarray) -> np.ndarray:
        x = np.zeros((n, g))
        for v, (j, i) in enumerate(var_index):
            x[j, i] = max(z[v], 0.0)
        return x

    def objective(z: np.ndarray) -> float:
        x = unpack(z)
        return sum(
            slot_energy(x[:, i], float(lengths[i]), machines, alpha)
            for i in range(g)
        )

    A = np.zeros((n, nv))
    for v, (j, _i) in enumerate(var_index):
        A[j, v] = 1.0
    z0 = np.zeros(nv)
    for v, (j, i) in enumerate(var_index):
        span = lengths[allowed[j]].sum()
        z0[v] = works[j] * lengths[i] / span

    from scipy import optimize  # lazy: replay and serve never solve

    res = optimize.minimize(
        objective,
        z0,
        method="SLSQP",
        bounds=[(0.0, None)] * nv,
        constraints=[{"type": "eq", "fun": lambda z: A @ z - works}],
        options={"maxiter": 500, "ftol": tol},
    )
    z = res.x if res.success and objective(res.x) <= objective(z0) else z0
    x = unpack(z)
    # renormalise each job exactly (SLSQP equality residuals are ~ftol)
    for jidx in range(n):
        total = x[jidx].sum()
        if total > 0:
            x[jidx] *= works[jidx] / total
    return {
        live[jidx].id: {
            gidx: float(x[jidx, gidx])
            for gidx in range(g)
            if x[jidx, gidx] > EPS
        }
        for jidx in range(n)
    }


def optimal_schedule(
    jobs: Sequence[Job],
    machines: int,
    alpha: float,
):
    """An exact optimal migratory schedule (small n).

    Realises the convex optimum's per-interval allocation with the
    water-filling machine split and McNaughton packing — the schedule's
    energy equals :func:`convex_optimal_energy` up to solver tolerance.
    Returns a :class:`~repro.core.schedule.Schedule`.
    """
    from ...core.schedule import Schedule
    from .allocation import allocate_slot
    from .mcnaughton import mcnaughton_slot

    live = [j for j in jobs if j.work > EPS]
    schedule = Schedule(machines)
    if not live:
        return schedule
    alloc = optimal_allocation(live, machines, alpha)
    grid = elementary_grid(live)
    for gidx, (a, b) in enumerate(grid):
        works = [
            (jid, per[gidx]) for jid, per in alloc.items() if gidx in per
        ]
        if not works:
            continue
        densities = [w / (b - a) for _, w in works]
        slot = allocate_slot(densities, machines)
        for item_idx, mach, dens in slot.big:
            schedule.add(a, b, dens, works[item_idx][0], mach)
        if slot.small_indices:
            small_works = [works[i] for i in slot.small_indices]
            for mach, sl in mcnaughton_slot(
                small_works, a, b, slot.small_speed, slot.small_machines
            ):
                schedule.add(sl.start, sl.end, sl.speed, sl.job_id, mach)
    return schedule


def convex_optimal_energy(
    jobs: Sequence[Job],
    machines: int,
    alpha: float,
    tol: float = 1e-9,
) -> float:
    """Optimal energy for ``jobs`` on ``machines`` machines (small n only)."""
    live = [j for j in jobs if j.work > EPS]
    if not live:
        return 0.0
    grid = elementary_grid(live)
    lengths = np.array([b - a for a, b in grid])
    n, g = len(live), len(grid)

    allowed = np.zeros((n, g), dtype=bool)
    for jidx, job in enumerate(live):
        for gidx, (a, b) in enumerate(grid):
            if job.release - EPS <= a and b <= job.deadline + EPS:
                allowed[jidx, gidx] = True

    var_index = [(j, i) for j in range(n) for i in range(g) if allowed[j, i]]
    nv = len(var_index)

    def unpack(z: np.ndarray) -> np.ndarray:
        x = np.zeros((n, g))
        for v, (j, i) in enumerate(var_index):
            x[j, i] = z[v]
        return x

    def objective(z: np.ndarray) -> float:
        x = unpack(np.maximum(z, 0.0))
        return sum(
            slot_energy(x[:, i], float(lengths[i]), machines, alpha)
            for i in range(g)
        )

    # equality constraints: each job's work adds up
    A = np.zeros((n, nv))
    for v, (j, _i) in enumerate(var_index):
        A[j, v] = 1.0
    works = np.array([j.work for j in live])

    # feasible start: spread each job uniformly over its allowed intervals
    z0 = np.zeros(nv)
    for v, (j, i) in enumerate(var_index):
        span = lengths[allowed[j]].sum()
        z0[v] = works[j] * lengths[i] / span

    from scipy import optimize  # lazy: replay and serve never solve

    res = optimize.minimize(
        objective,
        z0,
        method="SLSQP",
        bounds=[(0.0, None)] * nv,
        constraints=[{"type": "eq", "fun": lambda z: A @ z - works}],
        options={"maxiter": 500, "ftol": tol},
    )
    if not res.success:  # pragma: no cover - SLSQP convergence hiccups
        # fall back to the best point found; objective is convex so the
        # value is still an upper bound on the optimum
        return float(min(objective(res.x), objective(z0)))
    return float(res.fun)
