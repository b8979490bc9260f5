"""CRAD — Common Release, Arbitrary Deadlines (paper Sec. 4.4).

Round every deadline *down* to the nearest power of two and run CRP2D on
the rounded instance.  Shrinking windows only makes the problem harder, so
the resulting schedule is feasible for the original instance verbatim;
Lemma 4.14 bounds the optimal-energy inflation of the rounding by
``2^alpha``, giving the overall ``(8 phi)^alpha`` ratio (Corollary 4.15).
"""

from __future__ import annotations

from ..core.constants import EPS
from ..core.instance import QBSSInstance
from ..core.profile import SpeedProfile
from ..core.schedule import Schedule
from .crp2d import crp2d
from .decisions import DecisionLog
from .policies import QueryPolicy
from .result import QBSSResult


def crad(
    qinstance: QBSSInstance,
    *,
    query_policy: QueryPolicy | None = None,
) -> QBSSResult:
    """Run CRAD: deadline rounding + CRP2D.

    The returned result reports the *original* instance as its source (all
    ratios are measured against the original clairvoyant optimum), while its
    derived instance and schedule come from the rounded run.
    """
    if len(qinstance) == 0:
        return QBSSResult(
            Schedule(1), [SpeedProfile()],
            qinstance.clairvoyant_instance(), DecisionLog(), qinstance, "CRAD",
        )
    if qinstance.machines != 1:
        raise ValueError("CRAD is a single-machine algorithm")
    if any(abs(j.release) > EPS for j in qinstance):
        raise ValueError("CRAD requires all releases at time 0")

    rounded = qinstance.rounded_down_deadlines()
    inner = crp2d(rounded, query_policy=query_policy)
    return QBSSResult(
        schedule=inner.schedule,
        profiles=inner.profiles,
        derived=inner.derived,
        decisions=inner.decisions,
        source=qinstance,
        algorithm="CRAD",
    )
