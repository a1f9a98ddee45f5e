"""Schedule quality analysis and reporting."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.analysis.report": (
            "BarrierStats",
            "UtilizationStats",
            "ScheduleReport",
            "analyze_schedule",
        ),
    },
)
