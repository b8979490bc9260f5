"""Uniform name → algorithm dispatch for the QBSS runners.

Every QBSS entry point shares the 1.1 signature shape
``algo(qi, *, alpha=..., query_policy=..., split_policy=...)`` (each one
accepting the subset of those keywords that makes sense for it).  This
module is the single place that knows which names exist and which keywords
each accepts, so callers that dispatch by *name* — the experiment engine,
:func:`repro.analysis.ratios.measure`, the causality replay — share one
registry instead of string-matching ad hoc.

    >>> from repro.qbss import run_algorithm
    >>> from repro.workloads.generators import online_instance
    >>> run_algorithm("bkpq", online_instance(4, seed=0)).algorithm
    'BKPQ'
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..core.instance import QBSSInstance
    from .result import QBSSResult


def _resolve(reference: str) -> Callable:
    """The callable a ``"module:attribute"`` reference names."""
    module, _, attribute = reference.partition(":")
    return getattr(import_module(module), attribute)


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered QBSS runner and its dispatch metadata.

    ``accepts`` is the subset of the uniform keywords
    ``{"alpha", "query_policy", "split_policy"}`` the runner understands.
    ``profile_fn`` / ``default_query`` are set for the algorithms whose
    speed formula is causal enough for the event-driven replay of
    :mod:`repro.qbss.simulation` (the batch profile builder over classical
    jobs, and the query policy the algorithm uses by default).

    The callables are named, not held: ``runner``, ``profile`` and
    ``query`` are ``"module:attribute"`` references that :attr:`fn`,
    :attr:`profile_fn` and :attr:`default_query` import when read.  So
    looking a name up, or checking its setting or keywords, loads no
    algorithm module.
    """

    name: str
    runner: str
    setting: str  # "offline" | "online" | "multi"
    accepts: frozenset[str]
    summary: str
    profile: str | None = None
    query: str | None = None

    @property
    def fn(self) -> Callable[..., QBSSResult]:
        return _resolve(self.runner)

    @property
    def profile_fn(self) -> Callable | None:
        return None if self.profile is None else _resolve(self.profile)

    @property
    def default_query(self) -> Callable | None:
        return None if self.query is None else _resolve(self.query)


_KEYWORDS = ("alpha", "query_policy", "split_policy")


def _spec(name, runner, setting, accepts, summary, **extra) -> AlgorithmSpec:
    unknown = set(accepts) - set(_KEYWORDS)
    if unknown:  # pragma: no cover - registry construction guard
        raise ValueError(f"unknown dispatch keywords for {name}: {unknown}")
    return AlgorithmSpec(
        name=name,
        runner=runner,
        setting=setting,
        accepts=frozenset(accepts),
        summary=summary,
        **extra,
    )


#: The uniform name → runner registry.  Keys are the CLI/engine-facing
#: names; values carry the runner's reference plus which uniform keywords
#: it takes.
ALGORITHMS: dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in (
        _spec(
            "crcd", "repro.qbss.crcd:crcd", "offline", {"query_policy"},
            "common release + common deadline (Algorithm 1)",
        ),
        _spec(
            "crp2d", "repro.qbss.crp2d:crp2d", "offline", {"query_policy"},
            "common release + power-of-two deadlines (Algorithm 2)",
        ),
        _spec(
            "crad", "repro.qbss.crad:crad", "offline", {"query_policy"},
            "common release + arbitrary deadlines (rounding + CRP2D)",
        ),
        _spec(
            "avrq", "repro.qbss.avrq:avrq", "online", {"split_policy"},
            "Average Rate with queries (Sec. 5.1)",
            profile="repro.speed_scaling.avr:avr_profile",
            query="repro.qbss.policies:AlwaysQuery",
        ),
        _spec(
            "bkpq", "repro.qbss.bkpq:bkpq", "online",
            {"query_policy", "split_policy"},
            "BKP with golden-ratio queries (Sec. 5.2)",
            profile="repro.speed_scaling.bkp:bkp_profile",
            query="repro.qbss.policies:golden_ratio_policy",
        ),
        _spec(
            "oaq", "repro.qbss.oaq:oaq", "online", {"query_policy", "split_policy"},
            "Optimal Available with queries (Sec. 7 extension)",
        ),
        _spec(
            "avrq_m", "repro.qbss.multi:avrq_m", "multi", {"split_policy"},
            "AVRQ on m parallel machines (Sec. 6)",
        ),
        _spec(
            "avrq_nm", "repro.qbss.nonmigratory:avrq_nm", "multi", set(),
            "non-migratory AVRQ variant (Sec. 7 remark)",
        ),
        _spec(
            "oaq_m", "repro.qbss.oaq_m:oaq_m", "multi",
            {"alpha", "query_policy", "split_policy"},
            "OAQ on m parallel machines (extension)",
        ),
    )
}


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a registered algorithm by name (KeyError lists the names)."""
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown QBSS algorithm {name!r}; "
            f"registered: {', '.join(sorted(ALGORITHMS))}"
        ) from None


def run_algorithm(
    name: str,
    qinstance: QBSSInstance,
    *,
    alpha: float | None = None,
    query_policy=None,
    split_policy=None,
) -> QBSSResult:
    """Run a registered algorithm by name with the uniform keywords.

    Keywords left at ``None`` fall through to the algorithm's defaults;
    passing one the algorithm does not accept raises :class:`TypeError`
    (rather than silently dropping it).
    """
    spec = get_algorithm(name)
    kwargs = {}
    for key, value in zip(_KEYWORDS, (alpha, query_policy, split_policy)):
        if value is None:
            continue
        if key not in spec.accepts:
            raise TypeError(f"algorithm {name!r} does not accept {key}=")
        kwargs[key] = value
    return spec.fn(qinstance, **kwargs)
