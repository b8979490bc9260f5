"""The three CRCD energy ratios of Section 4.2 (Theorems 4.6 and 4.8).

The paper compares, per alpha:

* ``rho_1 = 2^{alpha-1} phi^alpha``   (first analysis of Theorem 4.6),
* ``rho_2 = 2^alpha``                 (second analysis of Theorem 4.6),
* ``rho_3 = max_{r >= 1} min{f_1(r), f_2(r)}`` with
  ``f_1(r) = 2^{alpha-1} (1 + 1/r^alpha)`` and
  ``f_2(r) = 2^{alpha-1} phi^alpha [1 - alpha r^{alpha-1} / (r+1)^alpha]``
  (the refined Theorem 4.8, valid for ``alpha >= 2``),

and tabulates them for alpha in {1.25, 1.5, ..., 3}: rho_1 wins for
``alpha <= 1.44``, rho_2 for ``1.44 < alpha < 2`` and rho_3 for
``alpha >= 2``.  This module regenerates that table; the inner max-min is
solved numerically (``f_1`` is decreasing and ``f_2`` increasing in ``r``,
so the optimum sits at their crossing when it exists).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.constants import PHI

#: The alpha grid of the paper's in-text table (Sec. 4.2).
PAPER_ALPHA_GRID: list[float] = [1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0]

#: The rho values printed in the paper for that grid (0 = "not applicable",
#: the paper only defines rho_3 for alpha >= 2).
PAPER_RHO1: list[float] = [2.17, 2.91, 3.90, 5.23, 7.02, 9.41, 12.63, 16.94]
PAPER_RHO2: list[float] = [2.37, 2.82, 3.36, 4.0, 4.75, 5.65, 6.72, 8.0]
PAPER_RHO3: list[float] = [0.0, 0.0, 0.0, 2.76, 3.70, 5.25, 6.72, 8.0]


def rho1(alpha: float) -> float:
    """``2^{alpha-1} phi^alpha``."""
    return 2.0 ** (alpha - 1.0) * PHI**alpha


def rho2(alpha: float) -> float:
    """``2^alpha``."""
    return 2.0**alpha


def f1(r: float, alpha: float) -> float:
    """``2^{alpha-1} (1 + 1/r^alpha)`` — decreasing in ``r``."""
    return 2.0 ** (alpha - 1.0) * (1.0 + r**-alpha)


def f2(r: float, alpha: float) -> float:
    """``2^{alpha-1} phi^alpha [1 - alpha r^{alpha-1}/(r+1)^alpha]``."""
    return rho1(alpha) * (1.0 - alpha * r ** (alpha - 1.0) / (r + 1.0) ** alpha)


def rho3(alpha: float, r_max: float = 256.0) -> float:
    """``max_{r >= 1} min{f1(r), f2(r)}`` (Theorem 4.8, ``alpha >= 2``).

    ``f1`` decreases towards ``2^{alpha-1}`` while ``f2`` is *not* monotone
    (it dips before climbing to ``rho_1``), so the max-min is located with a
    dense geometric grid and polished with a bounded scalar optimisation.
    """
    if alpha < 2.0:
        raise ValueError("rho3 is only defined for alpha >= 2 (Theorem 4.8)")

    grid = np.geomspace(1.0, r_max, 20001)
    values = np.minimum(f1(grid, alpha), f2(grid, alpha))
    i = int(values.argmax())
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    from scipy import optimize  # lazy: keeps scipy out of the CLI's import

    res = optimize.minimize_scalar(
        lambda r: -min(f1(r, alpha), f2(r, alpha)),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(max(values[i], -res.fun))


def best_ratio(alpha: float) -> float:
    """The best CRCD guarantee at ``alpha``: ``min(rho1, rho2[, rho3])``."""
    candidates = [rho1(alpha), rho2(alpha)]
    if alpha >= 2.0:
        candidates.append(rho3(alpha))
    return min(candidates)


def best_regime(alpha: float) -> str:
    """Which rho is best at ``alpha`` ("rho1", "rho2" or "rho3")."""
    values = {"rho1": rho1(alpha), "rho2": rho2(alpha)}
    if alpha >= 2.0:
        values["rho3"] = rho3(alpha)
    return min(values, key=values.get)


@dataclass(frozen=True)
class RhoRow:
    """One column of the paper's rho table."""

    alpha: float
    rho1: float
    rho2: float
    rho3: float | None


def rho_table(alphas: list[float] | None = None) -> list[RhoRow]:
    """Regenerate the Section 4.2 table on ``alphas`` (paper grid default)."""
    rows = []
    for a in alphas or PAPER_ALPHA_GRID:
        rows.append(
            RhoRow(
                alpha=a,
                rho1=rho1(a),
                rho2=rho2(a),
                rho3=rho3(a) if a >= 2.0 else None,
            )
        )
    return rows
