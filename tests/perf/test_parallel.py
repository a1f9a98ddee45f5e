"""The parallel corpus driver: jobs resolution and serial/parallel parity.

The determinism regression here is the load-bearing guarantee of the
whole performance layer: a seeded corpus scheduled with ``jobs=4`` must
produce the *identical* ``ScheduleResult`` sequence as the serial loop
(compared via a stable digest), so parallelization can never silently
move paper numbers.
"""

from __future__ import annotations

import pytest

from repro.core.scheduler import SchedulerConfig
from repro.experiments.sweeps import ExperimentPoint, run_corpus, run_point
from repro.perf.parallel import (
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
    def test_serial_vs_jobs4_identical(self):
        """The determinism regression: byte-identical result sequences."""
        point = small_point()
        serial = run_corpus(point, jobs=1)
        parallel = run_corpus(point, jobs=4)
        assert len(parallel) == point.count
        assert results_digest(serial) == results_digest(parallel)

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
