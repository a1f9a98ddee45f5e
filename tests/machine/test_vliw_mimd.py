"""Tests for the VLIW model (section 6) and the conventional-MIMD baseline."""

import pytest

from repro.timing import Interval
from repro.core.scheduler import SchedulerConfig, schedule_dag
from repro.ir.dag import InstructionDAG
from repro.machine import mimd
from repro.machine.mimd import directed_sync_counts, simulate_conventional_mimd
from repro.machine.durations import MaxSampler, MinSampler
from repro.machine.vliw import vliw_schedule
from repro.synth.corpus import compile_case
from repro.synth.generator import GeneratorConfig

from tests.conftest import chain_dag, diamond_dag


class TestVliw:
    def test_chain_serializes(self):
        dag = chain_dag([(1, 4), (1, 1), (16, 24)])
        sched = vliw_schedule(dag, 4)
        assert sched.makespan == 29  # sum of max times
        assert sched.is_critical_path_optimal

    def test_diamond_parallelizes(self):
        sched = vliw_schedule(diamond_dag(), 2)
        # a(4) then b and c in parallel, d after c: 4 + 24 + 1
        assert sched.makespan == 29
        assert sched.is_critical_path_optimal

    def test_single_pe_sums_everything(self):
        sched = vliw_schedule(diamond_dag(), 1)
        assert sched.makespan == 4 + 1 + 24 + 1

    def test_dependences_respected(self):
        case = compile_case(GeneratorConfig(n_statements=50, n_variables=10), 51)
        sched = vliw_schedule(case.dag, 8)
        for g, i in case.dag.real_edges():
            assert sched.finish[g] <= sched.start[i]

    def test_no_processor_overlap(self):
        case = compile_case(GeneratorConfig(n_statements=50, n_variables=10), 52)
        sched = vliw_schedule(case.dag, 4)
        by_pe = {}
        for node, pe in sched.assignment.items():
            by_pe.setdefault(pe, []).append((sched.start[node], sched.finish[node]))
        for spans in by_pe.values():
            spans.sort()
            for (s1, f1), (s2, _f2) in zip(spans, spans[1:]):
                assert f1 <= s2

    def test_uses_max_latency(self):
        dag = chain_dag([(1, 4)])
        sched = vliw_schedule(dag, 1)
        assert sched.finish[0] == 4

    def test_mostly_critical_path_optimal_on_corpus(self):
        """Paper: 'an optimal schedule ... was determined for almost all
        the synthetic benchmarks'."""
        optimal = 0
        n = 20
        for seed in range(n):
            case = compile_case(GeneratorConfig(n_statements=60, n_variables=10), seed)
            if vliw_schedule(case.dag, 8).is_critical_path_optimal:
                optimal += 1
        assert optimal >= 0.8 * n

    def test_utilization_bounds(self):
        case = compile_case(GeneratorConfig(n_statements=40, n_variables=10), 53)
        sched = vliw_schedule(case.dag, 8)
        assert 0.0 < sched.utilization() <= 1.0

    def test_rejects_bad_pes(self):
        with pytest.raises(ValueError):
            vliw_schedule(diamond_dag(), 0)


class TestConventionalMimd:
    @pytest.fixture(scope="class")
    def scheduled(self):
        case = compile_case(GeneratorConfig(n_statements=50, n_variables=10), 54)
        result = schedule_dag(case.dag, SchedulerConfig(n_pes=8, seed=54))
        return case, result

    def test_naive_counts_cross_edges(self, scheduled):
        case, result = scheduled
        naive, reduced = directed_sync_counts(case.dag, result.schedule)
        cross = sum(
            1
            for g, i in case.dag.real_edges()
            if result.schedule.processor_of(g) != result.schedule.processor_of(i)
        )
        assert naive == cross
        assert reduced <= naive

    def test_barrier_mimd_beats_structural_reduction(self, scheduled):
        """The paper's motivation: timing-based elimination removes more
        synchronization than Shaffer/Callahan graph-structural reduction.

        On the barrier MIMD every cross edge costs zero runtime syncs; on
        the conventional MIMD `reduced` directed syncs remain."""
        case, result = scheduled
        _naive, reduced = directed_sync_counts(case.dag, result.schedule)
        assert result.counts.barriers_final < reduced

    def test_simulation_respects_dependences(self, scheduled):
        case, result = scheduled
        sim = simulate_conventional_mimd(result.schedule, rng=0, sync_latency=2)
        for g, i in case.dag.real_edges():
            assert sim.finish[g] <= sim.start[i]

    def test_sync_latency_slows_execution(self, scheduled):
        _case, result = scheduled
        fast = simulate_conventional_mimd(
            result.schedule, MaxSampler(), rng=0, sync_latency=0
        )
        slow = simulate_conventional_mimd(
            result.schedule, MaxSampler(), rng=0, sync_latency=10
        )
        assert slow.makespan >= fast.makespan

    @pytest.mark.parametrize(
        "sampler, sync_latency, makespan",
        [
            (MinSampler(), 0, 38),
            (MinSampler(), 2, 48),
            (MaxSampler(), 0, 49),
            (MaxSampler(), 2, 59),
        ],
    )
    def test_deterministic_corners_pinned(
        self, scheduled, sampler, sync_latency, makespan
    ):
        """Values of the networkx-based model this one replaced: under a
        deterministic sampler the draw order cannot matter, so the
        executions must agree exactly."""
        _case, result = scheduled
        sim = simulate_conventional_mimd(
            result.schedule, sampler, rng=0, sync_latency=sync_latency
        )
        assert (sim.makespan, sim.n_cross_edges, sim.n_after_reduction) == (
            makespan,
            38,
            29,
        )

    def test_reduces_once_per_call(self, scheduled, monkeypatch):
        _case, result = scheduled
        structural = mimd.structural_syncs
        calls = []

        def counted(schedule):
            calls.append(schedule)
            return structural(schedule)

        monkeypatch.setattr(mimd, "structural_syncs", counted)
        simulate_conventional_mimd(result.schedule, MaxSampler())
        assert len(calls) == 1

    def test_reduction_ratio(self, scheduled):
        _case, result = scheduled
        sim = simulate_conventional_mimd(result.schedule, rng=1)
        assert 0.0 <= sim.reduction_ratio <= 1.0

    def test_zero_cross_edges(self):
        dag = chain_dag([(1, 1), (1, 1)])
        result = schedule_dag(dag, SchedulerConfig(n_pes=1))
        sim = simulate_conventional_mimd(result.schedule)
        assert sim.n_cross_edges == 0 and sim.reduction_ratio == 0.0

