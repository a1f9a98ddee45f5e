"""The batched corpus pipeline: digest parity and padded-tensor edges.

The batched path -- vectorized generation (:mod:`repro.synth.genvec`),
lockstep scheduling (:mod:`repro.core.batchrun`), and both parallel
drivers (the pickling pool and the zero-copy shared-memory driver of
:mod:`repro.perf.shm`) -- must be *bit-identical* to a plain per-case
loop of :func:`~repro.synth.corpus.compile_case` and
:func:`~repro.core.scheduler.schedule_dag`, written out in this file as
:func:`reference_results`.  Every ``REPRO_BACKEND={python,numpy}`` x
serial/parallel run has to land on that loop's ``results_digest``.  The
padded 3-D tensors of :mod:`repro.kernels.batch` are additionally pinned
at the uint64 word edges (63/64/65 bits), where an off-by-one in the
word count silently truncates the widest case.
"""

from __future__ import annotations

import random

import pytest

from repro import kernels
from repro.core.scheduler import SchedulerConfig, schedule_dag
from repro.experiments.sweeps import ExperimentPoint, run_corpus
from repro.perf.parallel import CompactResult, fork_available, results_digest
from repro.synth.corpus import compile_case
from repro.synth.generator import GeneratorConfig

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform has no fork start method"
)

needs_numpy = pytest.mark.skipif(
    not kernels.have_numpy(), reason="numpy not available"
)


def batch_point(**kw):
    defaults = dict(
        generator=GeneratorConfig(n_statements=24, n_variables=8),
        scheduler=SchedulerConfig(n_pes=8),
        count=20,
        master_seed=17,
    )
    defaults.update(kw)
    return ExperimentPoint(**defaults)


def reference_results(point):
    """The per-case loop every corpus driver must reproduce: one 48-bit
    case seed per case from ``random.Random(master_seed)``, compiled
    with ``compile_case`` and scheduled with ``schedule_dag`` under the
    seed's low 32 bits."""
    seed_stream = random.Random(point.master_seed)
    results = []
    for _ in range(point.count):
        case = compile_case(
            point.generator, seed_stream.getrandbits(48), point.timing
        )
        config = point.scheduler.with_(seed=case.seed & 0xFFFFFFFF)
        results.append(schedule_dag(case.dag, config))
    return results


class TestDigestParityMatrix:
    """One digest across backend x serial/parallel, pinned to the
    per-case reference loop."""

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_batched_vs_unbatched(self, monkeypatch, backend):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        point = batch_point()
        unbatched = results_digest(reference_results(point))
        batched = results_digest(run_corpus(point, jobs=1))
        assert unbatched == batched

    @needs_fork
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_parallel_matches_batched_serial(self, monkeypatch, backend):
        """``python`` drives the pickling pool, ``numpy`` the arena."""
        monkeypatch.setenv("REPRO_BACKEND", backend)
        point = batch_point()
        reference = results_digest(reference_results(point))
        serial = run_corpus(point, jobs=1)
        parallel = run_corpus(point, jobs=2, compact=True)
        assert all(isinstance(r, CompactResult) for r in parallel)
        assert results_digest(serial) == reference
        assert results_digest(parallel) == reference

    @needs_numpy
    def test_check_mode_batched(self, monkeypatch):
        """Check mode forces the kernels on and cross-checks per case."""
        monkeypatch.setenv("REPRO_CHECK_KERNELS", "1")
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        point = batch_point(count=6)
        batched = results_digest(run_corpus(point, jobs=1))
        monkeypatch.delenv("REPRO_CHECK_KERNELS", raising=False)
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert batched == results_digest(reference_results(point))


class TestBatchedScheduling:
    @needs_numpy
    def test_schedule_cases_matches_schedule_dag(self, monkeypatch):
        """On either backend and under kernel cross-checks, the batched
        driver schedules exactly what ``schedule_dag`` does per case."""
        from repro.core.batchrun import schedule_cases

        generator = GeneratorConfig(n_statements=30, n_variables=8)
        cases = [compile_case(generator, seed) for seed in range(40)]
        configs = [
            SchedulerConfig(n_pes=16, seed=case.seed & 0xFFFFFFFF)
            for case in cases
        ]
        serial = results_digest(
            [
                schedule_dag(case.dag, config)
                for case, config in zip(cases, configs)
            ]
        )
        for env in (
            {"REPRO_BACKEND": "python"},
            {"REPRO_BACKEND": "numpy"},
            {"REPRO_CHECK_KERNELS": "1"},
        ):
            with monkeypatch.context() as patch:
                patch.delenv("REPRO_BACKEND", raising=False)
                patch.delenv("REPRO_CHECK_KERNELS", raising=False)
                for name, value in env.items():
                    patch.setenv(name, value)
                batched = schedule_cases([case.dag for case in cases], configs)
            assert results_digest(batched) == serial, env

    def test_small_chunk_falls_back_to_python(self, monkeypatch):
        """Below the batch threshold the per-case scheduler runs."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_CHECK_KERNELS", raising=False)
        from repro.core.batchrun import schedule_cases

        case = compile_case(GeneratorConfig(), 5)
        config = SchedulerConfig(n_pes=4)
        kernels.reset_calls()
        [result] = schedule_cases([case.dag], [config])
        calls = kernels.kernels_info()["calls"]
        assert calls.get("kernels.calls.batch.python") == 1
        assert "kernels.calls.batch.numpy" not in calls
        reference = schedule_dag(case.dag, config)
        assert results_digest([result]) == results_digest([reference])


@needs_numpy
class TestWordEdges:
    """Padded uint64 tensors at 63/64/65 bits and rows."""

    @pytest.mark.parametrize("n_bits", [1, 63, 64, 65, 127, 128, 129])
    def test_pack_roundtrip(self, n_bits):
        from repro.kernels.batch import pack_bitmats, unpack_bitmats

        rows = [
            [0, 1, (1 << n_bits) - 1, 1 << (n_bits - 1)],
            [(1 << n_bits) - 1],
            [],
        ]
        tensor, sizes = pack_bitmats(rows, [n_bits] * len(rows))
        assert unpack_bitmats(tensor, sizes) == rows

    @pytest.mark.parametrize("n_nodes", [63, 64, 65])
    def test_reach_batch_at_word_edges(self, n_nodes):
        """A chain DAG with n nodes reaches everything downstream."""
        from repro.kernels.batch import reach_batch

        succ_idx = [
            [[p + 1] if p + 1 < n_nodes else [] for p in range(n_nodes)]
        ]
        self_bits = [[1 << p for p in range(n_nodes)]]
        [rows] = reach_batch(succ_idx, self_bits, [n_nodes])
        for p in range(n_nodes):
            expected = 0
            for q in range(p + 1, n_nodes):
                expected |= 1 << q
            assert rows[p] == expected

    @pytest.mark.parametrize("n_statements", [60, 63, 66])
    def test_mixed_widths_share_one_tensor(self, monkeypatch, n_statements):
        """Cases whose node counts straddle a word edge batch together."""
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        from repro.core.batchrun import schedule_cases
        from repro.synth.corpus import compile_case

        generator = GeneratorConfig(n_statements=n_statements, n_variables=8)
        cases = [compile_case(generator, seed) for seed in range(20)]
        sizes = {len(case.dag.nodes) for case in cases}
        assert len(sizes) > 1  # genuinely ragged chunk
        configs = [
            SchedulerConfig(n_pes=8, seed=case.seed & 0xFFFFFFFF)
            for case in cases
        ]
        batched = schedule_cases([case.dag for case in cases], configs)
        serial = [
            schedule_dag(case.dag, config)
            for case, config in zip(cases, configs)
        ]
        assert results_digest(serial) == results_digest(batched)


@needs_fork
@needs_numpy
class TestZeroCopyDriver:
    def test_compact_results_match_serial_digest(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        from repro.perf.shm import run_cases_shm

        point = batch_point(count=16)
        compact = run_cases_shm(
            point.generator,
            point.count,
            point.master_seed,
            point.timing,
            point.scheduler,
            jobs=2,
        )
        assert compact is not None
        assert all(isinstance(r, CompactResult) for r in compact)
        reference = reference_results(point)
        assert results_digest(compact) == results_digest(reference)

    def test_aggregation_reads_compact_results(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        from repro.metrics.stats import aggregate_results

        point = batch_point(count=12)
        serial = aggregate_results(run_corpus(point, jobs=1))
        compact = aggregate_results(
            run_corpus(point, jobs=2, compact=True)
        )
        assert serial.per_benchmark == compact.per_benchmark
        assert serial.mean_makespan_max == compact.mean_makespan_max
        assert serial.mean_processors_used == compact.mean_processors_used

    def test_python_backend_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        from repro.perf.shm import run_cases_shm

        point = batch_point(count=8)
        assert (
            run_cases_shm(
                point.generator,
                point.count,
                point.master_seed,
                point.timing,
                point.scheduler,
                jobs=2,
            )
            is None
        )
        # ... and run_corpus still serves compact rows via the pool.
        results = run_corpus(point, jobs=2, compact=True)
        assert all(isinstance(r, CompactResult) for r in results)
        assert results_digest(results) == results_digest(
            run_corpus(point, jobs=1)
        )
