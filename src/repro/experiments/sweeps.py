"""Generic corpus runner and parameter sweeps.

One *experiment point* is (generator parameters, scheduler parameters,
corpus size, master seed).  :func:`run_point` compiles and schedules the
whole corpus for a point and reduces it to
:class:`~repro.metrics.stats.CorpusStats`; :func:`sweep` maps that over a
parameter axis.  Everything is deterministic in the master seed, matching
the paper's method of averaging 100 generated benchmarks per point.

Two performance controls ride on every entry point (see
``docs/performance.md``):

``jobs``
    Worker-process count for the corpus (``None`` consults the
    ``REPRO_JOBS`` environment variable, ``0`` means all cores).  The
    parallel path is *bit-identical* to serial -- the parent draws
    exactly the serial case seeds and both pool drivers return results
    in seed order -- and falls back to serial when ``jobs <= 1`` or the
    platform lacks ``fork``.
``cache``
    On-disk memoization of :func:`run_point` results, keyed by the full
    point content and package version (``None`` consults ``REPRO_CACHE``;
    default off).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.core import batchrun
from repro.core.scheduler import ScheduleResult, SchedulerConfig, schedule_dag
from repro.ir.ops import DEFAULT_TIMING, TimingModel
from repro.metrics.stats import CorpusStats, aggregate_results
from repro.obs import progress as obs_progress
from repro.perf.cache import load_point_stats, resolve_cache, store_point_stats
from repro.perf.gctune import batched_gc
from repro.perf.parallel import resolve_batch, resolve_jobs, run_cases_parallel
from repro.perf.shm import run_cases_shm
from repro.perf.timers import add_to_current, collect_timings, stage
from repro.synth import genvec
from repro.synth.corpus import generate_cases
from repro.synth.generator import GeneratorConfig

__all__ = ["ExperimentPoint", "run_corpus", "run_point", "sweep"]

#: Corpus size per parameter point; the paper uses 100.
DEFAULT_COUNT = 100


@dataclass(frozen=True)
class ExperimentPoint:
    """One fully specified parameter point of the evaluation."""

    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    timing: TimingModel = DEFAULT_TIMING
    count: int = DEFAULT_COUNT
    master_seed: int = 0

    def with_(self, **changes) -> "ExperimentPoint":
        return replace(self, **changes)


def run_corpus(
    point: ExperimentPoint,
    jobs: int | None = None,
    batch: int | None = None,
    compact: bool = False,
) -> list[ScheduleResult]:
    """Compile and schedule every benchmark of a point; return the results.

    Each case is scheduled with the point's scheduler config, seeded per
    case so random tie-breaking is reproducible yet varies across the
    corpus.  With ``jobs > 1`` the corpus is dispatched to a process
    pool; the result list is bit-identical to the serial run.

    The serial path runs the corpus in *batches* (``None`` consults
    ``REPRO_BATCH``; ``1`` disables): each chunk of case seeds is
    compiled by the vectorized generator and scheduled by the batched
    driver (:mod:`repro.core.batchrun`) in one pass, bit-identical to
    the case-at-a-time loop.

    ``compact=True`` allows the zero-copy shared-memory driver
    (:mod:`repro.perf.shm`) for parallel points: results
    come back as :class:`~repro.perf.parallel.CompactResult` rows that
    support aggregation and digests but carry no ``Schedule`` graph.
    Callers that read ``result.schedule`` or ``result.resolutions``
    must leave it off.
    """
    jobs = resolve_jobs(jobs)
    if jobs > 1:
        if compact:
            zero_copy = run_cases_shm(
                point.generator,
                point.count,
                point.master_seed,
                point.timing,
                point.scheduler,
                jobs,
            )
            if zero_copy is not None:
                return zero_copy
        parallel = run_cases_parallel(
            point.generator,
            point.count,
            point.master_seed,
            point.timing,
            point.scheduler,
            jobs,
        )
        if parallel is not None:
            return parallel

    batch = resolve_batch(batch)
    if batch > 1:
        return _run_corpus_batched(point, batch)

    results: list[ScheduleResult] = []
    cases = generate_cases(
        point.generator,
        point.count,
        point.master_seed,
        timing=point.timing,
    )
    with batched_gc():
        while True:
            with stage("generate"):  # pulls generation + compilation work
                case = next(cases, None)
            if case is None:
                break
            cfg = point.scheduler.with_(seed=case.seed & 0xFFFFFFFF)
            with stage("schedule"):
                results.append(schedule_dag(case.dag, cfg))
            obs_progress.advance()
    return results


def _run_corpus_batched(
    point: ExperimentPoint, batch: int
) -> list[ScheduleResult]:
    """The serial corpus loop, ``batch`` case seeds at a time.

    Draws the exact case-seed sequence of
    :func:`repro.synth.corpus.generate_cases` in chunks, compiles each
    chunk through :func:`repro.synth.genvec.compile_cases` and schedules
    it through :func:`repro.core.batchrun.schedule_cases` -- both of
    which fall back to the per-case code paths below their kernel
    thresholds, so the results are bit-identical either way.
    """
    results: list[ScheduleResult] = []
    seed_stream = random.Random(point.master_seed)
    with batched_gc():
        while len(results) < point.count:
            seeds = [seed_stream.getrandbits(48) for _ in range(batch)]
            with stage("generate"):
                cases = genvec.compile_cases(
                    point.generator, seeds, point.timing
                )
            cases = cases[: point.count - len(results)]
            configs = [
                point.scheduler.with_(seed=case.seed & 0xFFFFFFFF)
                for case in cases
            ]
            with stage("schedule"):
                results.extend(
                    batchrun.schedule_cases(
                        [case.dag for case in cases], configs
                    )
                )
            obs_progress.advance(len(cases))
    return results


def run_point(
    point: ExperimentPoint,
    jobs: int | None = None,
    cache: bool | None = None,
) -> CorpusStats:
    """:func:`run_corpus` reduced to corpus statistics.

    The reduction carries the run's per-stage timings
    (:attr:`CorpusStats.timings`).  With caching enabled, a previously
    computed point is served from disk.
    """
    use_cache = resolve_cache(cache)
    if use_cache:
        cached = load_point_stats(point)
        if cached is not None:
            return cached
    with collect_timings() as timings:
        # Aggregation reads nothing a compact result lacks, so the
        # zero-copy driver may serve parallel points.
        stats = aggregate_results(run_corpus(point, jobs=jobs, compact=True))
    # Collectors nest innermost-wins, so an enclosing measurement (e.g.
    # the ``repro-sbm perf`` harness timing a whole sweep) would see none
    # of this point's stage time -- credit it upward explicitly.
    add_to_current(timings)
    stats = replace(stats, timings=timings)
    if use_cache:
        store_point_stats(point, stats)
    return stats


def sweep(
    base: ExperimentPoint,
    axis: str,
    values: Iterable[object],
    jobs: int | None = None,
    cache: bool | None = None,
) -> list[tuple[object, CorpusStats]]:
    """Vary one parameter along ``values`` and run each point.

    ``axis`` is a dotted path into the point, e.g. ``"generator.n_statements"``,
    ``"scheduler.n_pes"``, ``"scheduler.lookahead"``.
    """
    results: list[tuple[object, CorpusStats]] = []
    for value in values:
        results.append(
            (value, run_point(_set_axis(base, axis, value), jobs=jobs, cache=cache))
        )
    return results


def _set_axis(point: ExperimentPoint, axis: str, value: object) -> ExperimentPoint:
    parts = axis.split(".")
    if len(parts) == 1:
        return point.with_(**{parts[0]: value})
    if len(parts) == 2:
        head, leaf = parts
        sub = getattr(point, head)
        return point.with_(**{head: replace(sub, **{leaf: value})})
    raise ValueError(f"unsupported axis {axis!r}")


def sweep_rows(
    results: Sequence[tuple[object, CorpusStats]], axis_label: str
) -> str:
    """Render a sweep as the fixed-width table used by the benchmarks."""
    lines = [
        f"{axis_label:>10}  {'barrier':>8}  {'serial':>8}  {'static':>8}  "
        f"{'no-rt-sync':>10}  {'syncs':>7}  {'barriers':>8}"
    ]
    for value, stats in results:
        lines.append(
            f"{value!s:>10}  {stats.barrier.mean:8.1%}  {stats.serialized.mean:8.1%}  "
            f"{stats.static.mean:8.1%}  {stats.no_runtime_sync.mean:10.1%}  "
            f"{stats.mean_implied_syncs:7.1f}  {stats.mean_barriers:8.2f}"
        )
    return "\n".join(lines)
