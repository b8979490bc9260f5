"""Theoretical bounds, the rho ratios, and executable lower-bound lemmas."""

from typing import TYPE_CHECKING

from .. import _lazy

#: Package-level name -> the submodule that defines it (loaded on first use).
_SOURCES = {
    "AdversarialOutcome": "adversary",
    "adversarial_ratio": "adversary",
    "algorithm_value": "adversary",
    "best_deterministic_decision": "adversary",
    "game_value": "adversary",
    "optimal_value": "adversary",
    "TABLE1_ROWS": "formulas",
    "Table1Row": "formulas",
    "table1_values": "formulas",
    "LemmaClaim": "lemmas",
    "lemma41_expected_ratio": "lemmas",
    "lemma41_instance": "lemmas",
    "lemma42_bounds": "lemmas",
    "lemma42_instance": "lemmas",
    "lemma43_bounds": "lemmas",
    "lemma43_params": "lemmas",
    "lemma45_bounds": "lemmas",
    "lemma45_equal_window_lower_bounds": "lemmas",
    "lemma45_instance": "lemmas",
    "lemma51_tower_instance": "lemmas",
    "PAPER_ALPHA_GRID": "rho",
    "PAPER_RHO1": "rho",
    "PAPER_RHO2": "rho",
    "PAPER_RHO3": "rho",
    "RhoRow": "rho",
    "best_ratio": "rho",
    "best_regime": "rho",
    "f1": "rho",
    "f2": "rho",
    "rho1": "rho",
    "rho2": "rho",
    "rho3": "rho",
    "rho_table": "rho",
}

__all__ = ["classical", "formulas", "minimax", "online_adversary", *_SOURCES]

__getattr__, __dir__ = _lazy.attach(__name__, _SOURCES)

if TYPE_CHECKING:
    from . import (
        classical as classical,
        formulas as formulas,
        minimax as minimax,
        online_adversary as online_adversary,
    )
    from .adversary import (
        AdversarialOutcome as AdversarialOutcome,
        adversarial_ratio as adversarial_ratio,
        algorithm_value as algorithm_value,
        best_deterministic_decision as best_deterministic_decision,
        game_value as game_value,
        optimal_value as optimal_value,
    )
    from .formulas import (
        TABLE1_ROWS as TABLE1_ROWS,
        Table1Row as Table1Row,
        table1_values as table1_values,
    )
    from .lemmas import (
        LemmaClaim as LemmaClaim,
        lemma41_expected_ratio as lemma41_expected_ratio,
        lemma41_instance as lemma41_instance,
        lemma42_bounds as lemma42_bounds,
        lemma42_instance as lemma42_instance,
        lemma43_bounds as lemma43_bounds,
        lemma43_params as lemma43_params,
        lemma45_bounds as lemma45_bounds,
        lemma45_equal_window_lower_bounds as lemma45_equal_window_lower_bounds,
        lemma45_instance as lemma45_instance,
        lemma51_tower_instance as lemma51_tower_instance,
    )
    from .rho import (
        PAPER_ALPHA_GRID as PAPER_ALPHA_GRID,
        PAPER_RHO1 as PAPER_RHO1,
        PAPER_RHO2 as PAPER_RHO2,
        PAPER_RHO3 as PAPER_RHO3,
        RhoRow as RhoRow,
        best_ratio as best_ratio,
        best_regime as best_regime,
        f1 as f1,
        f2 as f2,
        rho1 as rho1,
        rho2 as rho2,
        rho3 as rho3,
        rho_table as rho_table,
    )
