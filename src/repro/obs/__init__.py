"""Observability for the scheduling pipeline: spans, metrics, provenance.

Independent, contextvar-scoped collectors, all opt-in and
zero-cost when no subscriber is installed (and all hard-disabled by
``REPRO_OBS_DISABLE=1``):

* :mod:`repro.obs.spans` -- hierarchical wall-clock span tracing of the
  five pipeline stages and their hot inner operations; exported as
  JSONL or Perfetto-loadable Chrome trace JSON
  (:mod:`repro.obs.export`);
* :mod:`repro.obs.metrics` -- named counters and histograms, merged
  across the parallel driver's worker processes;
* :mod:`repro.obs.prof` -- continuous profiling and resource
  accounting: per-kernel wall/CPU timings at the dispatch boundary,
  peak-RSS/arena/tensor byte accounts, GC pauses, and folded-stack
  (flamegraph) export from a span trace;
* :mod:`repro.obs.progress` -- live heartbeat stream (cases/s, ETA)
  for long corpus runs, rendered as a TTY status line or JSONL;
* :mod:`repro.obs.provenance` -- machine-readable reasons for every
  assignment, barrier insertion and merge verdict, surfaced by
  ``repro-sbm explain`` (:mod:`repro.obs.explain` builds the report;
  imported directly, not from this package root, because it depends on
  ``repro.core``).

:mod:`repro.obs.logging` holds the package's logger hierarchy.

Everything exported here is stdlib-only so any pipeline module may
import it without cycles; see docs/observability.md for the full tour.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.obs.metrics": (
            "HistogramStat",
            "MetricsRegistry",
            "collect_metrics",
            "current_registry",
            "inc",
            "observe",
        ),
        "repro.obs.prof": (
            "KernelStat",
            "Profiler",
            "collect_profile",
            "current_profiler",
            "folded_stacks",
            "track_gc",
            "write_folded",
        ),
        "repro.obs.progress": (
            "JSONLSink",
            "ProgressMeter",
            "TTYStatusSink",
            "collect_progress",
            "current_meter",
        ),
        "repro.obs.provenance": (
            "AssignmentDecision",
            "BarrierDecision",
            "MergeDecision",
            "ProvenanceRecorder",
            "collect_provenance",
            "current_recorder",
            "record_assignment",
            "record_barrier",
            "record_merge",
        ),
        "repro.obs.spans": (
            "Span",
            "SpanTracer",
            "TraceEvent",
            "collect_trace",
            "current_tracer",
            "event",
            "span",
        ),
    },
)
