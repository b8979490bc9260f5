"""CRP2D — Common Release, Power-of-2 Deadlines (paper Algorithm 2, Sec. 4.3).

All jobs are released at time 0 and every deadline is a power of two.  The
algorithm:

1. partitions jobs into ``A`` (no query) and ``B`` (query) with the
   golden-ratio rule;
2. forms the classical jobs ``(0, d_j/2, c_j)`` for ``B`` (set ``Q``) and
   ``(0, d_j, w_j)`` for ``A`` (set ``W``), and runs **YDS** on ``Q u W`` to
   fix a base speed ``s_YDS(t)``;
3. at each time ``d/2`` (half of a deadline class) the queries of the jobs
   with deadline ``d`` have completed — YDS scheduled them inside
   ``(0, d/2]`` — revealing the exact loads;
4. during ``(d/2, d]`` it executes the revealed loads ``w*_j`` *on top of*
   the base speed, adding their densities ``w*_j / (d/2)``.

The executed profile is ``s(t) = s_YDS(t) + sum of revealed densities`` and
is realised with EDF (feasible by the capacity superposition argument:
the YDS profile covers ``Q u W`` and each addition exactly covers its
deadline class).  Guarantee (Theorem 4.13): ``(4 phi)^alpha``-approximate
for energy.
"""

from __future__ import annotations

import math
from collections import defaultdict

from ..core.constants import EPS
from ..core.edf import run_edf
from ..core.instance import Instance, QBSSInstance
from ..core.job import Job
from ..core.profile import SpeedProfile, sum_profiles
from ..core.schedule import Schedule
from .decisions import DecisionLog, QueryDecision
from .policies import QueryPolicy, golden_ratio_policy
from .result import QBSSResult


def _require_shape(qinstance: QBSSInstance) -> None:
    if qinstance.machines != 1:
        raise ValueError("CRP2D is a single-machine algorithm")
    if any(abs(j.release) > EPS for j in qinstance):
        raise ValueError("CRP2D requires all releases at time 0")
    if not qinstance.power_of_two_deadlines:
        raise ValueError(
            "CRP2D requires power-of-two deadlines; use CRAD for arbitrary ones"
        )


def crp2d(
    qinstance: QBSSInstance,
    *,
    query_policy: QueryPolicy | None = None,
) -> QBSSResult:
    """Run CRP2D (see module docstring)."""
    from ..speed_scaling.yds import yds

    if len(qinstance) == 0:
        return QBSSResult(
            Schedule(1), [SpeedProfile()], Instance([]), DecisionLog(), qinstance, "CRP2D"
        )
    _require_shape(qinstance)
    policy = query_policy or golden_ratio_policy()

    log = DecisionLog()
    views = qinstance.views()

    base_jobs: list[Job] = []
    queried = []
    for view in views:
        if policy.should_query(view):
            log.record(view.id, QueryDecision(True, 0.5))
            base_jobs.append(
                Job(0.0, view.deadline / 2, view.query_cost, view.id + ":query")
            )
            queried.append(view)
        else:
            log.record(view.id, QueryDecision(False))
            base_jobs.append(
                Job(0.0, view.deadline, view.work_upper, view.id + ":full")
            )

    base = yds(base_jobs)

    # Reveal per deadline class at time d/2 and build the additive densities.
    revealed_jobs: list[Job] = []
    addition_profiles: list[SpeedProfile] = []
    by_deadline: dict[float, list] = defaultdict(list)
    for view in queried:
        by_deadline[view.deadline].append(view)
    for d, class_views in sorted(by_deadline.items()):
        half = d / 2
        total_revealed = 0.0
        for view in class_views:
            wstar = view.reveal(half)
            revealed_jobs.append(Job(half, d, wstar, view.id + ":work"))
            total_revealed += wstar
        if total_revealed > 0:
            addition_profiles.append(
                SpeedProfile.constant(half, d, total_revealed / half)
            )

    combined = sum_profiles([base.profile] + addition_profiles)
    derived = Instance(base_jobs + revealed_jobs)
    edf = run_edf(list(derived.jobs), combined)
    if not edf.feasible:  # pragma: no cover - guaranteed by superposition
        raise RuntimeError(
            f"CRP2D internal error: EDF infeasible ({edf.unfinished})"
        )
    return QBSSResult(
        edf.schedule, [combined], derived, log, qinstance, "CRP2D"
    )


def max_deadline_exponent(qinstance: QBSSInstance) -> int:
    """``k`` such that ``2**k`` is the largest deadline (paper's notation)."""
    return max(int(round(math.log2(j.deadline))) for j in qinstance)
