"""Synchronization metrics and corpus statistics (paper section 3.1/5)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.metrics.fractions": ("SyncFractions", "fractions_of"),
        "repro.metrics.stats": (
            "CorpusStats",
            "FractionAggregate",
            "aggregate_fractions",
            "aggregate_results",
        ),
        "repro.metrics.robustness": (
            "CaseRobustness",
            "RobustnessPoint",
            "aggregate_robustness",
        ),
    },
)
