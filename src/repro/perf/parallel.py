"""Process-pool execution of corpus points, bit-identical to serial.

The paper's evaluation schedules 100 benchmarks per parameter point and
3500+ overall; every case is independent, so a corpus point whose
consumer only aggregates or digests (``run_corpus(..., compact=True)``)
fans the work out over a pool of worker processes.  Four properties are
load bearing:

**Determinism.**  The serial driver draws one 48-bit case seed per case
from ``random.Random(master_seed)`` and derives the scheduler seed as
``case_seed & 0xFFFFFFFF`` (see
:func:`repro.synth.corpus.generate_cases`).  The parallel drivers draw
exactly ``count`` seeds of that same sequence in the parent
(:func:`draw_seeds`), ship them to the workers in :data:`CHUNK_SIZE`
slices, and consume worker results in submission order, so the result
list holds the serial results in the serial order.  The determinism
regression test pins this with :func:`results_digest`.

**Compact rows home.**  No ``Schedule`` graph crosses a process
boundary.  Workers return :class:`CompactResult` rows -- counts,
makespan, processors used and the precomputed :func:`digest_record` --
which is everything :func:`repro.metrics.stats.aggregate_results` and
:func:`results_digest` read.  Callers that need full schedules run the
serial loop.

**Two drivers, one worker body.**  This pickling pool compiles each
slice of seeds in the worker; the zero-copy driver of
:mod:`repro.perf.shm` compiles it out of a shared-memory arena.  Both
hand the compiled slice to :func:`schedule_slice`, and the parent
rebuilds the rows with :func:`compact_results`.

**One ordered pool.**  Both drivers (and the fault campaign) run their
slices through :func:`ordered_pool`: one fork pool, a bounded number of
slices in flight, results in submission order, and one worker wrapper
that opens the observation collectors and ships their state home.
``jobs=1`` or a platform without ``fork`` falls back to the serial
path; callers never have to care.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import astuple, dataclass
from functools import partial
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro import kernels
from repro.core.scheduler import (
    ScheduleResult,
    SchedulerConfig,
    SyncCounts,
    schedule_dag,
)
from repro.io import result_summary
from repro.ir.ops import TimingModel
from repro.obs import metrics as obs_metrics
from repro.obs import prof as obs_prof
from repro.obs import progress as obs_progress
from repro.obs.spans import collect_trace, current_tracer
from repro.perf.gctune import batched_gc
from repro.perf.timers import add_to_current, collect_timings, stage
from repro.synth.corpus import BenchmarkCase, compile_case
from repro.synth.generator import GeneratorConfig
from repro.timing import Interval

__all__ = [
    "CompactResult",
    "digest_record",
    "fork_available",
    "resolve_jobs",
    "results_digest",
    "run_cases_parallel",
]

#: Cases per worker task; amortizes IPC without hurting balance.
CHUNK_SIZE = 8

#: Tasks in flight per worker; keeps workers fed without queueing the
#: whole corpus up front.
CHUNKS_IN_FLIGHT = 2


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve an effective worker count.

    ``None`` consults the ``REPRO_JOBS`` environment variable (absent or
    empty means serial).  ``0`` -- from either source -- means "all
    cores".  Anything else must be a positive integer.
    """
    if jobs is None:
        text = os.environ.get("REPRO_JOBS", "").strip()
        if not text:
            return 1
        try:
            jobs = int(text)
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {text!r}")
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def fork_available() -> bool:
    """True when the ``fork`` start method exists (POSIX).  The pool uses
    fork so worker processes inherit already-imported modules; spawn-only
    platforms fall back to serial execution."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - defensive
        return False


def chunk_bounds(count: int) -> list[tuple[int, int]]:
    """The ``[lo, hi)`` slices of a ``count``-case corpus, one per task."""
    return [
        (lo, min(lo + CHUNK_SIZE, count)) for lo in range(0, count, CHUNK_SIZE)
    ]


def _observed(
    fn: Callable[[Any], Any],
    backend: str,
    trace: bool,
    profile: bool,
    task: Any,
) -> tuple[Any, tuple]:
    """Worker wrapper: run ``fn(task)`` under fresh collectors.

    Returns ``(result, state)``; the parent folds ``state`` into its own
    collectors with :func:`_absorb`.
    """
    # Pin the kernel backend explicitly rather than trusting fork-time
    # env inheritance: the parent may scope REPRO_BACKEND per command
    # (``repro-sbm perf --backend``) while the pool outlives that scope.
    os.environ["REPRO_BACKEND"] = backend
    # Fresh per-task collectors: fork copies the parent's contextvars, so
    # without them the observations would pile up in dead copies of the
    # parent's collectors instead of being shipped back.  The profiler
    # must be installed before ``batched_gc`` so its GC hook finds it.
    tracing = collect_trace() if trace else nullcontext(None)
    profiling = obs_prof.collect_profile() if profile else nullcontext(None)
    with tracing as tracer, obs_metrics.collect_metrics() as metrics, (
        profiling
    ) as prof, batched_gc():
        with collect_timings() as timings:
            result = fn(task)
    state = (
        timings.as_dict(),
        metrics.as_dict(),
        prof.as_dict() if prof is not None else None,
        tracer.export_state() if tracer is not None else None,
    )
    return result, state


def _absorb(state: tuple) -> None:
    """Fold one worker's :func:`_observed` state into the parent's
    active collectors (each a no-op when that collector is off)."""
    timings, metrics, profile, trace_state = state
    add_to_current(timings)
    obs_metrics.add_to_current(metrics)
    if profile is not None:
        obs_prof.add_to_current(profile)
    if trace_state is not None:
        tracer = current_tracer()
        if tracer is not None:
            tracer.adopt(trace_state)


def ordered_pool(
    fn: Callable[[Any], Any], tasks: Iterable[Any], jobs: int
) -> Iterator[Any]:
    """Map ``fn`` over ``tasks`` on a fork pool of ``jobs`` workers.

    Keeps ``jobs * CHUNKS_IN_FLIGHT`` tasks in flight and yields results
    strictly in submission order, so a caller that concatenates them
    gets the serial order.  Each worker runs under :func:`_observed` and
    its observations are folded into the parent's collectors before its
    result is yielded.  ``fn`` must be a module-level function.
    """
    backend = kernels.backend_setting()  # validates REPRO_BACKEND early
    trace = current_tracer() is not None
    profile = obs_prof.current_profiler() is not None
    tasks = iter(tasks)
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        submit = partial(pool.submit, _observed, fn, backend, trace, profile)
        pending = deque(map(submit, islice(tasks, jobs * CHUNKS_IN_FLIGHT)))
        while pending:
            result, state = pending.popleft().result()
            pending.extend(map(submit, islice(tasks, 1)))
            _absorb(state)
            yield result


def draw_seeds(master_seed: int, count: int) -> list[int]:
    """The first ``count`` case seeds of a corpus: the exact sequence
    :func:`repro.synth.corpus.generate_cases` draws."""
    seed_stream = random.Random(master_seed)
    return [seed_stream.getrandbits(48) for _ in range(count)]


def schedule_slice(
    cases: Sequence[BenchmarkCase], scheduler: SchedulerConfig
) -> tuple[list[tuple], str]:
    """Worker body of both parallel drivers: schedule a compiled slice
    and pack what :class:`CompactResult` carries.

    Returns one ``(counts, makespan lo, makespan hi, processors used)``
    row per case and the cases' :func:`digest_record` list as one JSON
    string; :func:`compact_results` rebuilds them in the parent.
    """
    rows: list[tuple] = []
    records: list[dict] = []
    with stage("schedule"):
        for case in cases:
            result = schedule_dag(
                case.dag, scheduler.with_(seed=case.seed & 0xFFFFFFFF)
            )
            rows.append(
                (
                    astuple(result.counts),
                    result.makespan.lo,
                    result.makespan.hi,
                    result.schedule.used_processors(),
                )
            )
            records.append(digest_record(result))
    return rows, json.dumps(records)


def compact_results(
    packed: Iterable[tuple[list[tuple], str]],
    scheduler: SchedulerConfig,
    seeds: Sequence[int],
) -> "list[CompactResult]":
    """Rebuild :func:`schedule_slice` output, slice by slice in seed
    order, into one :class:`CompactResult` per case."""
    results: list[CompactResult] = []
    for rows, records_json in packed:
        records = json.loads(records_json)
        for (counts, lo, hi, used), record in zip(rows, records):
            seed = seeds[len(results)]
            results.append(
                CompactResult(
                    config=scheduler.with_(seed=seed & 0xFFFFFFFF),
                    counts=SyncCounts(*counts),
                    makespan=Interval(lo, hi),
                    processors_used=used,
                    record=record,
                )
            )
        obs_progress.advance(len(rows))
    return results


def _run_chunk(
    payload: tuple[GeneratorConfig, TimingModel, SchedulerConfig, list[int]],
) -> tuple[list[tuple], str]:
    """Pool worker: compile one slice of case seeds, then schedule it."""
    generator, timing, scheduler, seeds = payload
    with stage("generate"):
        cases = [compile_case(generator, seed, timing) for seed in seeds]
    return schedule_slice(cases, scheduler)


def run_cases_parallel(
    generator: GeneratorConfig,
    count: int,
    master_seed: int,
    timing: TimingModel,
    scheduler: SchedulerConfig,
    jobs: int,
) -> "list[CompactResult] | None":
    """Schedule a corpus point on a process pool; ``None`` means "cannot
    parallelize, use the serial path" (``jobs <= 1`` or no fork).

    Workers compile their seeds case by case and ship compact rows
    home; the rows are the serial results' (see the module docstring).
    """
    if jobs <= 1 or count <= 0 or not fork_available():
        return None
    seeds = draw_seeds(master_seed, count)
    tasks = (
        (generator, timing, scheduler, seeds[lo:hi])
        for lo, hi in chunk_bounds(count)
    )
    return compact_results(
        ordered_pool(_run_chunk, tasks, jobs), scheduler, seeds
    )


class _CompactSchedule:
    """Stand-in exposing the one ``Schedule`` accessor reductions use."""

    __slots__ = ("_used",)

    def __init__(self, used: int) -> None:
        self._used = used

    def used_processors(self) -> int:
        return self._used


@dataclass(frozen=True, slots=True)
class CompactResult:
    """A :class:`ScheduleResult` reduced to what reductions read.

    Both parallel drivers ship these back from their workers instead
    of pickling whole ``Schedule`` object graphs: the counts, makespan,
    processor usage, and the precomputed
    :func:`digest_record` -- everything
    :func:`repro.metrics.stats.aggregate_results` and
    :func:`results_digest` consume, nothing else.
    """

    config: SchedulerConfig
    counts: SyncCounts
    makespan: Interval
    processors_used: int
    record: dict

    @property
    def schedule(self) -> _CompactSchedule:
        return _CompactSchedule(self.processors_used)


def digest_record(result: "ScheduleResult | CompactResult") -> dict:
    """The record :func:`results_digest` hashes for one result.

    Compact results carry theirs precomputed (by this same function, in
    the worker that still held the full result), so serial and
    parallel digests agree byte for byte.
    """
    if isinstance(result, CompactResult):
        return result.record
    return {
        "summary": result_summary(result),
        "order": [str(node) for node in result.list_order],
        "resolutions": [
            [
                str(r.producer),
                str(r.consumer),
                r.kind.value,
                r.barrier.id if r.barrier is not None else None,
                r.dominator,
                r.secondary,
                r.via_optimal,
                r.merges,
            ]
            for r in result.resolutions
        ],
    }


def results_digest(
    results: Sequence["ScheduleResult | CompactResult"],
) -> str:
    """A stable digest of a result sequence, for determinism regression.

    Covers everything the experiments read off a result -- the summary
    record (counts, fractions, makespan), the list order, and every edge
    resolution -- so any behavioural drift between serial and parallel
    execution (or across refactors that must preserve paper numbers)
    changes the digest.
    """
    records = [digest_record(result) for result in results]
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
