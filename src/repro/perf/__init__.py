"""Performance layer: parallel corpus execution, result caching, timers.

The paper's evaluation sweeps 3500+ synthetic basic blocks; this package
makes that affordable at full scale:

* :mod:`repro.perf.timers` -- per-stage wall-clock accumulators
  (generate / schedule / insert / merge / simulate) that the pipeline
  reports through :class:`~repro.metrics.stats.CorpusStats`;
* :mod:`repro.perf.parallel` -- a process-pool execution mode for
  :func:`~repro.experiments.sweeps.run_corpus` (``compact=True``) whose
  compact rows are bit-identical to the serial run (``--jobs`` /
  ``REPRO_JOBS``);
* :mod:`repro.perf.cache` -- an on-disk content-addressed cache of
  corpus statistics keyed by the experiment point and package version;
* :mod:`repro.perf.report` -- the ``repro-sbm perf`` harness emitting
  ``BENCH_*.json`` trajectory records.

Attributes are resolved on first access (:mod:`repro._lazy`): the
scheduler's hot path imports ``repro.perf.timers`` directly, and an
eager re-export here would close an import cycle through
``metrics.stats`` back into the scheduler.

See ``docs/performance.md`` for the operator-facing guide.
"""

from pathlib import Path

from repro._lazy import lazy_exports

#: Where ``repro-sbm perf`` appends its trajectory series by default
#: (relative to the working directory).  Defined here so the argument
#: parser can name it without importing the harness.
DEFAULT_TRAJECTORY = Path("benchmarks") / "data" / "BENCH_trajectory.jsonl"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.perf.timers": ("StageTimings", "collect_timings", "stage"),
        "repro.perf.parallel": (
            "fork_available",
            "resolve_jobs",
            "results_digest",
            "run_cases_parallel",
        ),
        "repro.perf.cache": (
            "cache_dir",
            "resolve_cache",
            "point_cache_key",
            "load_point_stats",
            "store_point_stats",
        ),
        "repro.perf.report": ("PerfReport", "run_perf_report"),
    },
)
__all__.sort()
