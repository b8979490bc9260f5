"""Flow-based feasibility and minimum maximum speed on m machines.

The classical feasibility characterisation (Horvath–Lam–Sethi /
Federgruen–Groenevelt): a set of jobs with windows and works can be
scheduled preemptively with migration on ``m`` machines whose speed never
exceeds ``s`` iff the bipartite flow network

    source --w_j--> job_j --s*|I|--> interval_I --m*s*|I|--> sink

(with an edge job->interval only when the job's window covers the
elementary interval) carries ``sum_j w_j`` units of flow.  The job->interval
capacity encodes "no job runs parallel to itself"; the interval->sink
capacity encodes the machine pool; McNaughton's rule realises any feasible
flow inside each interval.

On top of the oracle this module computes the exact minimum feasible peak
speed by bisection and constructs a witness schedule at that speed —
the multi-machine analogue of YDS's max-speed optimality, used as the
exact max-speed baseline for AVRQ(m) experiments (the density lower bound
in :mod:`repro.speed_scaling.multi.bounds` is only a bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING

from ...core.constants import EPS
from ...core.job import Job
from ...core.schedule import Schedule
from ...core.timeline import dedupe_times
from .mcnaughton import mcnaughton_slot

if TYPE_CHECKING:
    import networkx as nx

SOURCE = "__source__"
SINK = "__sink__"


def _grid(jobs: Sequence[Job]) -> list[tuple[float, float]]:
    pts = dedupe_times(
        [j.release for j in jobs] + [j.deadline for j in jobs]
    )
    return list(zip(pts, pts[1:]))


def _build_network(
    jobs: Sequence[Job], machines: int, cap: float
) -> tuple[nx.DiGraph, list[tuple[float, float]]]:
    import networkx as nx  # lazy: replay and serve never build a flow network

    grid = _grid(jobs)
    g = nx.DiGraph()
    for j in jobs:
        g.add_edge(SOURCE, ("job", j.id), capacity=j.work)
    for gi, (a, b) in enumerate(grid):
        length = b - a
        g.add_edge(("ivl", gi), SINK, capacity=machines * cap * length)
        for j in jobs:
            if j.release - EPS <= a and b <= j.deadline + EPS:
                g.add_edge(("job", j.id), ("ivl", gi), capacity=cap * length)
    return g, grid


def max_flow_allocation(
    jobs: Sequence[Job], machines: int, cap: float
) -> tuple[float, dict[str, dict[int, float]]]:
    """Max flow under speed cap ``cap``; returns (value, job->interval works)."""
    live = [j for j in jobs if j.work > EPS]
    if not live:
        return 0.0, {}
    import networkx as nx

    g, _ = _build_network(live, machines, cap)
    value, flows = nx.maximum_flow(g, SOURCE, SINK)
    alloc: dict[str, dict[int, float]] = {}
    for j in live:
        per = {}
        for node, amount in flows.get(("job", j.id), {}).items():
            if isinstance(node, tuple) and node[0] == "ivl" and amount > EPS:
                per[node[1]] = amount
        alloc[j.id] = per
    return value, alloc


def feasible_with_cap(
    jobs: Sequence[Job], machines: int, cap: float, tol: float = 1e-9
) -> bool:
    """Can the jobs be scheduled with per-machine speed never above ``cap``?"""
    live = [j for j in jobs if j.work > EPS]
    total = sum(j.work for j in live)
    if total <= tol:
        return True
    value, _ = max_flow_allocation(live, machines, cap)
    return value >= total - tol * max(1.0, total)


def min_max_speed(
    jobs: Sequence[Job], machines: int, tol: float = 1e-9
) -> float:
    """The exact minimum feasible peak speed (bisection over the flow oracle)."""
    live = [j for j in jobs if j.work > EPS]
    if not live:
        return 0.0
    # lower bound: pooled intensity and single-job density; upper: AVR peak
    from .bounds import max_speed_lower_bound

    lo = max_speed_lower_bound(live, machines)
    hi = max(lo, max(j.density for j in live))
    while not feasible_with_cap(live, machines, hi, tol):
        hi *= 2.0
    if feasible_with_cap(live, machines, lo, tol):
        return lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if feasible_with_cap(live, machines, mid, tol):
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    return hi


@dataclass
class MinMaxSpeedResult:
    """The optimal peak speed with a witness schedule running at it."""

    speed: float
    schedule: Schedule


def min_max_speed_schedule(
    jobs: Sequence[Job], machines: int, tol: float = 1e-9
) -> MinMaxSpeedResult:
    """Construct a schedule attaining the minimum peak speed.

    Takes the max-flow allocation at the optimal cap (nudged up by the
    bisection tolerance so the flow saturates) and realises each elementary
    interval with McNaughton's wrap-around rule at the constant cap speed.
    """
    live = [j for j in jobs if j.work > EPS]
    schedule_cap = min_max_speed(live, machines, tol)
    if not live:
        return MinMaxSpeedResult(0.0, Schedule(machines))
    cap = schedule_cap * (1 + 10 * tol) + 10 * tol
    value, alloc = max_flow_allocation(live, machines, cap)
    total = sum(j.work for j in live)
    if value < total - 1e-6 * max(1.0, total):  # pragma: no cover
        raise RuntimeError("flow did not saturate at the computed optimum")

    grid = _grid(live)
    schedule = Schedule(machines)
    for gi, (a, b) in enumerate(grid):
        works = [
            (jid, per[gi]) for jid, per in alloc.items() if gi in per
        ]
        if not works:
            continue
        pieces = mcnaughton_slot(works, a, b, cap, list(range(machines)))
        for mach, sl in pieces:
            schedule.add(sl.start, sl.end, sl.speed, sl.job_id, mach)
    return MinMaxSpeedResult(schedule_cap, schedule)
