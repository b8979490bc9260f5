"""AVRQ — Average Rate with Queries (paper Sec. 5.1).

The online adaptation of AVR to the QBSS model: *query every job* with the
equal-window split.  Each arriving job ``(r, d, c, w, w*)`` spawns the
classical query job ``(r, (r+d)/2, c)`` immediately and — once the query
completes at the midpoint — the revealed job ``((r+d)/2, d, w*)``.  AVR runs
over the derived stream.

Guarantees: ``s_AVRQ(t) <= 2 s_AVR*(t)`` pointwise against AVR on the
clairvoyant loads (Theorem 5.2), hence ``2^{2 alpha - 1} alpha^alpha``-
competitive for energy (Corollary 5.3); at least ``(2 alpha)^alpha`` on the
adversarial family of Lemma 5.1.
"""

from __future__ import annotations

from ..core.edf import run_edf
from ..core.instance import QBSSInstance
from ..core.qjob import QueryNotCompleted
from ..speed_scaling.avr import avr_profile
from .policies import AlwaysQuery, EqualWindowSplit
from .result import QBSSResult
from .transform import derive_online


def avrq(qinstance: QBSSInstance, *, split_policy=None) -> QBSSResult:
    """Run AVRQ on a single machine.

    The derived profile is realised with EDF; before revealing a job's exact
    load the runner checks the query actually finished by the split point in
    the realised schedule (it always does: the query job's derived deadline
    *is* the split point and AVR profiles are EDF-feasible).

    ``split_policy`` defaults to the paper's equal window; the split-point
    ablation bench injects :class:`~repro.qbss.policies.FixedSplit` values.
    """
    if qinstance.machines != 1:
        raise ValueError("avrq is single-machine; use avrq_m for m machines")
    derived = derive_online(
        qinstance, AlwaysQuery(), split_policy or EqualWindowSplit()
    )
    jobs = derived.jobs
    profile = avr_profile(jobs)
    edf = run_edf(jobs, profile)
    if not edf.feasible:  # pragma: no cover - AVR profiles are feasible
        raise RuntimeError(f"AVRQ internal error: EDF infeasible ({edf.unfinished})")
    check_queries_complete(derived, edf.schedule)
    return QBSSResult(
        edf.schedule, [profile], derived.instance(), derived.decisions,
        qinstance, "AVRQ",
    )


def check_queries_complete(derived, schedule) -> None:
    """Assert each query job finished by the revelation time it claimed.

    Shared by all online QBSS runners; raises
    :class:`~repro.core.qjob.QueryNotCompleted` on violation, which would
    indicate the runner leaked the exact load before earning it.
    """
    completion = schedule.completion_times()
    for view in derived.views:
        if view.revealed_at is None:
            continue
        done = completion.get(view.id + ":query", float("-inf"))
        if done > view.revealed_at + 1e-6:
            raise QueryNotCompleted(
                f"query of {view.id} finished at {done}, after the claimed "
                f"revelation time {view.revealed_at}"
            )
