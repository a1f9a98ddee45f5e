"""The parallel corpus drivers: jobs resolution and serial/parallel parity.

The determinism regression here is the load-bearing guarantee of the
whole performance layer: a seeded corpus scheduled with ``jobs=4`` must
produce compact rows *identical* to the serial ``ScheduleResult``
sequence (compared via a stable digest), so parallelization can never
silently move paper numbers.  ``REPRO_BACKEND=python`` drives the
pickling pool, ``REPRO_BACKEND=numpy`` the zero-copy arena.
"""

from __future__ import annotations

import pytest

from repro import kernels
from repro.core.scheduler import ScheduleResult, SchedulerConfig
from repro.experiments.sweeps import ExperimentPoint, run_corpus, run_point
from repro.perf import parallel as perf_parallel
from repro.perf import shm as perf_shm
from repro.perf.parallel import (
    CompactResult,
    fork_available,
    resolve_jobs,
    results_digest,
    run_cases_parallel,
)
from repro.synth.generator import GeneratorConfig

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform has no fork start method"
)


def small_point(**kw):
    defaults = dict(
        generator=GeneratorConfig(n_statements=15, n_variables=6),
        scheduler=SchedulerConfig(n_pes=4),
        count=8,
        master_seed=21,
    )
    defaults.update(kw)
    return ExperimentPoint(**defaults)


#: ``REPRO_BACKEND`` per parallel driver: python keeps the vectorized
#: generator off, so only the pickling pool applies.
DRIVER_BACKENDS = ["python"] + (["numpy"] if kernels.have_numpy() else [])


def spy_ordered_pool(monkeypatch):
    """Count ``ordered_pool`` calls from either driver and record the
    type of everything the workers send home."""
    calls = {"pools": 0, "shipped": set()}
    original = perf_parallel.ordered_pool

    def spy(fn, tasks, jobs):
        calls["pools"] += 1
        for item in original(fn, tasks, jobs):
            rows, records_json = item
            calls["shipped"].add(type(records_json))
            calls["shipped"].update(type(row) for row in rows)
            yield item

    monkeypatch.setattr(perf_parallel, "ordered_pool", spy)
    monkeypatch.setattr(perf_shm, "ordered_pool", spy)
    return calls


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs(None)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestDeterminism:
    @needs_fork
    def test_serial_vs_jobs4_identical(self, monkeypatch):
        """The determinism regression: byte-identical result sequences,
        on the pickling pool and on the zero-copy arena."""
        point = small_point()
        serial = run_corpus(point, jobs=1)
        for backend in DRIVER_BACKENDS:
            monkeypatch.setenv("REPRO_BACKEND", backend)
            parallel = run_corpus(point, jobs=4, compact=True)
            assert len(parallel) == point.count, backend
            assert all(isinstance(r, CompactResult) for r in parallel)
            assert results_digest(serial) == results_digest(parallel), backend

    @needs_fork
    def test_run_point_stats_match(self):
        point = small_point()
        s1 = run_point(point, jobs=1, cache=False)
        s4 = run_point(point, jobs=4, cache=False)
        assert s1.per_benchmark == s4.per_benchmark
        assert s1.mean_makespan_max == s4.mean_makespan_max

    def test_digest_sensitive_to_results(self):
        a = run_corpus(small_point())
        b = run_corpus(small_point(master_seed=22))
        assert results_digest(a) != results_digest(b)
        assert results_digest(a) != results_digest(a[:-1])


class TestFallbacks:
    def test_jobs1_never_pools(self):
        point = small_point(count=2)
        assert (
            run_cases_parallel(
                point.generator,
                point.count,
                point.master_seed,
                point.timing,
                point.scheduler,
                jobs=1,
            )
            is None
        )


@needs_fork
class TestNoScheduleCrossesProcesses:
    def test_full_results_never_pool(self, monkeypatch):
        """``compact=False`` runs serially whatever ``jobs`` says."""
        calls = spy_ordered_pool(monkeypatch)
        point = small_point()
        results = run_corpus(point, jobs=2)
        assert calls["pools"] == 0
        assert all(isinstance(r, ScheduleResult) for r in results)
        assert results_digest(results) == results_digest(
            run_corpus(point, jobs=1)
        )

    @pytest.mark.parametrize("backend", DRIVER_BACKENDS)
    def test_workers_ship_only_packed_rows(self, monkeypatch, backend):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        calls = spy_ordered_pool(monkeypatch)
        results = run_corpus(small_point(), jobs=2, compact=True)
        assert calls["pools"] == 1
        assert calls["shipped"] == {str, tuple}
        assert all(isinstance(r, CompactResult) for r in results)
