"""OAQ — Optimal Available with Queries (the paper's open question, Sec. 7).

The paper closes by asking whether the OA algorithm of Yao et al. extends
to the QBSS model.  OAQ is the natural candidate: apply the golden-ratio
query rule with the equal-window split (exactly as BKPQ does) and run OA
over the derived stream — replanning with YDS at every derived arrival,
including the midpoint arrivals of revealed loads.

No competitive bound is claimed in the paper; the extension bench
(``benchmarks/test_bench_oaq_extension.py``) measures OAQ empirically
against AVRQ and BKPQ.  The same pointwise argument as Theorem 5.4 suggests
an ``s_OAQ <= (2+phi) s_OA*`` style bound is plausible; we record the
measured ratios in EXPERIMENTS.md.
"""

from __future__ import annotations

from ..core.instance import QBSSInstance
from ..speed_scaling.oa import oa
from .avrq import check_queries_complete
from .policies import EqualWindowSplit, QueryPolicy, golden_ratio_policy
from .result import QBSSResult
from .transform import derive_online


def oaq(
    qinstance: QBSSInstance,
    *,
    query_policy: QueryPolicy | None = None,
    split_policy=None,
) -> QBSSResult:
    """Run OAQ on a single machine.

    ``query_policy`` defaults to the golden-ratio rule and ``split_policy``
    to the equal window (the same defaults BKPQ uses).
    """
    if qinstance.machines != 1:
        raise ValueError("oaq is a single-machine algorithm")
    policy = query_policy or golden_ratio_policy()
    derived = derive_online(qinstance, policy, split_policy or EqualWindowSplit())
    result = oa(derived.jobs)
    if not result.feasible:  # pragma: no cover - OA plans are feasible
        raise RuntimeError(f"OAQ internal error: unfinished {result.unfinished}")
    check_queries_complete(derived, result.schedule)
    return QBSSResult(
        result.schedule, [result.profile], derived.instance(),
        derived.decisions, qinstance, "OAQ",
    )
