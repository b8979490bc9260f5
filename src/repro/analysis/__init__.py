"""Measurement harness: ratios vs the optimum, sweeps, tables, experiments.

The package-level names resolve on first use (PEP 562), so importing one
submodule, such as :mod:`repro.analysis.tables` for the replay report,
does not load the experiment registry and everything it imports.
"""

from typing import TYPE_CHECKING

from .. import _lazy

#: Package-level name -> the submodule that defines it (loaded on first use).
_SOURCES = {
    "REGISTRY": "experiments",
    "ExperimentReport": "experiments",
    "Algorithm": "ratios",
    "RatioMeasurement": "ratios",
    "RatioSummary": "ratios",
    "always_query_equal_window_offline": "ratios",
    "measure": "ratios",
    "measure_many": "ratios",
    "never_query_offline": "ratios",
    "RatioStats": "stats",
    "bootstrap_ci": "stats",
    "paired_improvement": "stats",
    "Claim": "verification",
    "all_ok": "verification",
    "render_claims": "verification",
    "verify_reproduction": "verification",
    "SweepPoint": "sweep",
    "alpha_sweep": "sweep",
    "best_point": "sweep",
    "parameter_sweep": "sweep",
    "size_sweep": "sweep",
    "worst_point": "sweep",
    "render_table": "tables",
}

__all__ = list(_SOURCES)

__getattr__, __dir__ = _lazy.attach(__name__, _SOURCES)

if TYPE_CHECKING:
    from .experiments import REGISTRY as REGISTRY, ExperimentReport as ExperimentReport
    from .ratios import (
        Algorithm as Algorithm,
        RatioMeasurement as RatioMeasurement,
        RatioSummary as RatioSummary,
        always_query_equal_window_offline as always_query_equal_window_offline,
        measure as measure,
        measure_many as measure_many,
        never_query_offline as never_query_offline,
    )
    from .stats import (
        RatioStats as RatioStats,
        bootstrap_ci as bootstrap_ci,
        paired_improvement as paired_improvement,
    )
    from .sweep import (
        SweepPoint as SweepPoint,
        alpha_sweep as alpha_sweep,
        best_point as best_point,
        parameter_sweep as parameter_sweep,
        size_sweep as size_sweep,
        worst_point as worst_point,
    )
    from .tables import render_table as render_table
    from .verification import (
        Claim as Claim,
        all_ok as all_ok,
        render_claims as render_claims,
        verify_reproduction as verify_reproduction,
    )
