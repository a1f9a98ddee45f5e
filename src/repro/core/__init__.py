"""Core scheduling package: the paper's contribution.

List scheduling with min/max-height ordering (sections 4.1-4.2),
serialization-aware processor assignment (4.3), conservative and optimal
barrier insertion (4.4.1-4.4.2), SBM barrier merging (4.4.3), and a final
soundness validation sweep.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.timing": ("Interval", "ZERO", "interval_max", "interval_sum"),
        "repro.core.labeling": ("compute_heights", "critical_path_nodes"),
        "repro.core.ordering": ("order_nodes",),
        "repro.core.assignment": (
            "ListPolicy",
            "LookaheadPolicy",
            "RoundRobinPolicy",
            "make_policy",
        ),
        "repro.core.schedule": ("Item", "Schedule"),
        "repro.core.barrier_insert": (
            "BarrierInserter",
            "EdgeResolution",
            "ResolutionKind",
            "TimingQuantities",
            "classify_edge",
            "timing_quantities",
        ),
        "repro.core.merging": ("find_merge_candidate", "merge_new_barrier"),
        "repro.core.validate": (
            "ScheduleError",
            "Violation",
            "check_structure",
            "find_violations",
            "repair_schedule",
        ),
        "repro.core.scheduler": (
            "ScheduleResult",
            "SchedulerConfig",
            "SyncCounts",
            "schedule_dag",
        ),
        "repro.core.sync_elimination": (
            "SyncEliminationResult",
            "compute_sync_bounds",
            "eliminate_directed_syncs",
            "simulate_directed",
        ),
    },
)
