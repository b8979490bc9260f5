"""The QBSS algorithms — the paper's contribution.

Offline (common release): CRCD, CRP2D, CRAD.
Online: AVRQ, BKPQ, OAQ (extension), AVRQ(m).
Plus the clairvoyant baseline, query/split policies, derived-instance
transformations and the randomized single-job game of Lemma 4.4.
"""

from typing import TYPE_CHECKING

from .. import _lazy

#: Package-level name -> the submodule that defines it (loaded on first use).
_SOURCES = {
    "avrq": "avrq",
    "check_queries_complete": "avrq",
    "bkpq": "bkpq",
    "ClairvoyantBaseline": "clairvoyant",
    "clairvoyant": "clairvoyant",
    "optimal_energy": "clairvoyant",
    "optimal_max_speed": "clairvoyant",
    "crad": "crad",
    "crcd": "crcd",
    "crcd_tuned": "crcd",
    "crp2d": "crp2d",
    "max_deadline_exponent": "crp2d",
    "NO_QUERY": "decisions",
    "DecisionLog": "decisions",
    "QueryDecision": "decisions",
    "equal_window": "decisions",
    "avrq_m": "multi",
    "avrq_nm": "nonmigratory",
    "oaq": "oaq",
    "oaq_m": "oaq_m",
    "ALGORITHMS": "registry",
    "AlgorithmSpec": "registry",
    "get_algorithm": "registry",
    "run_algorithm": "registry",
    "incremental_profile": "simulation",
    "verify_causality": "simulation",
    "AlwaysQuery": "policies",
    "EqualWindowSplit": "policies",
    "FixedSplit": "policies",
    "NeverQuery": "policies",
    "OracleQuery": "policies",
    "OracleSplit": "policies",
    "ProportionalSplit": "policies",
    "RandomizedQuery": "policies",
    "ThresholdQuery": "policies",
    "golden_ratio_policy": "policies",
    "QBSSResult": "result",
    "DerivedOnline": "transform",
    "derive_online": "transform",
    "instance_prime": "transform",
    "instance_prime_half": "transform",
    "instance_star": "transform",
    "partition_golden": "transform",
}

__all__ = list(_SOURCES)

__getattr__, __dir__ = _lazy.attach(__name__, _SOURCES)

if TYPE_CHECKING:
    from .avrq import avrq as avrq, check_queries_complete as check_queries_complete
    from .bkpq import bkpq as bkpq
    from .clairvoyant import (
        ClairvoyantBaseline as ClairvoyantBaseline,
        clairvoyant as clairvoyant,
        optimal_energy as optimal_energy,
        optimal_max_speed as optimal_max_speed,
    )
    from .crad import crad as crad
    from .crcd import crcd as crcd, crcd_tuned as crcd_tuned
    from .crp2d import crp2d as crp2d, max_deadline_exponent as max_deadline_exponent
    from .decisions import (
        NO_QUERY as NO_QUERY,
        DecisionLog as DecisionLog,
        QueryDecision as QueryDecision,
        equal_window as equal_window,
    )
    from .multi import avrq_m as avrq_m
    from .nonmigratory import avrq_nm as avrq_nm
    from .oaq import oaq as oaq
    from .oaq_m import oaq_m as oaq_m
    from .policies import (
        AlwaysQuery as AlwaysQuery,
        EqualWindowSplit as EqualWindowSplit,
        FixedSplit as FixedSplit,
        NeverQuery as NeverQuery,
        OracleQuery as OracleQuery,
        OracleSplit as OracleSplit,
        ProportionalSplit as ProportionalSplit,
        RandomizedQuery as RandomizedQuery,
        ThresholdQuery as ThresholdQuery,
        golden_ratio_policy as golden_ratio_policy,
    )
    from .registry import (
        ALGORITHMS as ALGORITHMS,
        AlgorithmSpec as AlgorithmSpec,
        get_algorithm as get_algorithm,
        run_algorithm as run_algorithm,
    )
    from .result import QBSSResult as QBSSResult
    from .simulation import (
        incremental_profile as incremental_profile,
        verify_causality as verify_causality,
    )
    from .transform import (
        DerivedOnline as DerivedOnline,
        derive_online as derive_online,
        instance_prime as instance_prime,
        instance_prime_half as instance_prime_half,
        instance_star as instance_star,
        partition_golden as partition_golden,
    )
