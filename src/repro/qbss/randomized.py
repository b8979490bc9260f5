"""Randomized query decisions on single-job instances (paper Lemma 4.4).

A randomized algorithm facing one job queries with probability ``rho`` (and,
in the oracle model, splits the window optimally when it does).  On the
normalized single-job instance — window ``(0, 1]``, query cost ``c``, upper
bound ``w``, adversarial exact load ``w*`` — all quantities are closed-form:

* query branch: constant speed ``c + w*`` (oracle split), energy
  ``(c + w*)**alpha``;
* no-query branch: constant speed ``w``, energy ``w**alpha``;
* optimum: constant speed ``p* = min(w, c + w*)``.

Lemma 4.4 states no randomized algorithm beats ``4/3`` for maximum speed or
``(1 + phi**alpha) / 2`` for energy, even in the oracle model.  The
functions here compute the exact game values so the lower-bound bench can
regenerate those numbers (the optimum of the ``max over instances, min over
rho, max over w*`` game).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..core.constants import PHI

Objective = Literal["energy", "max_speed"]


def branch_values(
    c: float, w: float, wstar: float, alpha: float, objective: Objective
) -> tuple[float, float, float]:
    """``(query_value, no_query_value, optimal_value)`` on the unit window."""
    if not 0 < c <= w:
        raise ValueError("need 0 < c <= w")
    if not 0 <= wstar <= w:
        raise ValueError("need 0 <= w* <= w")
    p_star = min(w, c + wstar)
    if objective == "energy":
        return ((c + wstar) ** alpha, w**alpha, p_star**alpha)
    return (c + wstar, w, p_star)


def expected_ratio(
    rho: float, c: float, w: float, wstar: float, alpha: float, objective: Objective
) -> float:
    """Expected objective of the randomized algorithm over the optimum."""
    q, nq, opt = branch_values(c, w, wstar, alpha, objective)
    return (rho * q + (1 - rho) * nq) / opt


def worst_case_ratio(
    rho: float, c: float, w: float, alpha: float, objective: Objective
) -> float:
    """Adversary's best response: max over ``w*`` of the expected ratio.

    The expected value is piecewise monotone in ``w*`` (the numerator is
    increasing, the denominator saturates at ``w`` once ``c + w* >= w``), so
    the maximum is attained at ``w* = 0`` or ``w* = w`` — checked on a grid
    as well for safety.
    """
    candidates = [0.0, w, max(0.0, w - c)]
    candidates += list(np.linspace(0.0, w, 33))
    return max(
        expected_ratio(rho, c, w, ws, alpha, objective) for ws in candidates
    )


def best_rho(c: float, w: float, alpha: float, objective: Objective) -> tuple[float, float]:
    """The algorithm's best query probability and the resulting game value.

    Minimises :func:`worst_case_ratio` over ``rho`` in ``[0, 1]`` (the
    function is the max of two affine functions of ``rho``, hence convex).
    """
    from scipy import optimize  # lazy: keeps scipy out of the CLI's import

    res = optimize.minimize_scalar(
        lambda rho: worst_case_ratio(rho, c, w, alpha, objective),
        bounds=(0.0, 1.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return float(res.x), float(res.fun)


def randomized_lower_bound(alpha: float, objective: Objective) -> tuple[float, float]:
    """The adversary's best instance: ``max over w`` of the game value.

    Normalizes ``c = 1`` (scale invariance) and searches over the ratio
    ``theta = w / c``.  Returns ``(theta*, value)``.  Lemma 4.4 predicts the
    value ``4/3`` for max speed (at ``theta = 2``) and ``(1 + phi**alpha)/2``
    for energy (at ``theta = phi``).
    """
    from scipy import optimize

    res = optimize.minimize_scalar(
        lambda theta: -best_rho(1.0, theta, alpha, objective)[1],
        bounds=(1.0, 4.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return float(res.x), float(-res.fun)


def lemma44_energy_bound(alpha: float) -> float:
    """The claimed energy lower bound ``(1 + phi**alpha) / 2``."""
    return 0.5 * (1.0 + PHI**alpha)


LEMMA44_MAX_SPEED_BOUND: float = 4.0 / 3.0


@dataclass(frozen=True)
class RandomizedGameSolution:
    """A solved single-job randomized game (used in reports)."""

    alpha: float
    objective: Objective
    theta: float
    rho: float
    value: float
    claimed: float


def solve_game(alpha: float, objective: Objective) -> RandomizedGameSolution:
    """Solve the full game and pair it with the paper's claimed bound."""
    theta, value = randomized_lower_bound(alpha, objective)
    rho, _ = best_rho(1.0, theta, alpha, objective)
    claimed = (
        lemma44_energy_bound(alpha)
        if objective == "energy"
        else LEMMA44_MAX_SPEED_BOUND
    )
    return RandomizedGameSolution(alpha, objective, theta, rho, value, claimed)
