"""Measurement harness: ratios vs the optimum, sweeps, tables, experiments.

The package-level names resolve on first use (PEP 562), so importing one
submodule, such as :mod:`repro.analysis.tables` for the replay report,
does not load the experiment registry and everything it imports.
"""

from importlib import import_module

#: Package-level name -> the submodule that defines it.
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


def __getattr__(name: str):
    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{source}", __name__), name)
    globals()[name] = value
    return value
