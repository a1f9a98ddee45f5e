"""Tests for timing-based directed-sync elimination (section 7 extension)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timing import Interval
from repro.core.schedule import Schedule
from repro.core.scheduler import SchedulerConfig, schedule_dag
from repro.core.sync_elimination import (
    compute_sync_bounds,
    eliminate_directed_syncs,
    simulate_directed,
)
from repro.ir.dag import InstructionDAG
from repro.machine.durations import MaxSampler, MinSampler, UniformSampler
from repro.experiments import syncelim_exp
from repro.machine.mimd import structural_syncs
from repro.synth.corpus import compile_case
from repro.synth.generator import GeneratorConfig


def hand_schedule():
    """g on PE0 followed by slow filler; i on PE1 after matching filler."""
    dag = InstructionDAG.build(
        {
            "g": Interval(1, 2),
            "fill": Interval(10, 10),
            "pad": Interval(5, 5),
            "i": Interval(1, 1),
        },
        [("g", "i"), ("pad", "i")],
    )
    sched = Schedule(dag, 2)
    sched.append_instruction(0, "g")
    sched.append_instruction(0, "fill")
    sched.append_instruction(1, "pad")
    sched.append_instruction(1, "i")
    return sched


class TestBounds:
    def test_chain_bounds(self):
        sched = hand_schedule()
        start, finish = compute_sync_bounds(sched, set())
        assert start["g"] == Interval(0, 0)
        assert finish["g"] == Interval(1, 2)
        assert start["i"] == Interval(5, 5)  # after pad, no sync edges

    def test_retained_edge_raises_consumer_start(self):
        sched = hand_schedule()
        start, _ = compute_sync_bounds(sched, {("g", "i")})
        assert start["i"] == Interval(5, 5)  # join(pad 5, g finish [1,2])

    def test_sync_latency_charged(self):
        sched = hand_schedule()
        start, _ = compute_sync_bounds(sched, {("g", "i")}, sync_latency=10)
        assert start["i"] == Interval(11, 12)

    def test_cycle_detection(self):
        sched = hand_schedule()
        with pytest.raises(ValueError):
            compute_sync_bounds(sched, {("g", "i"), ("i", "g")})


class TestElimination:
    def test_slack_edge_removed(self):
        # pad [5,5] before i means i cannot start before t=5 >= g's max 2.
        sched = hand_schedule()
        result = eliminate_directed_syncs(sched)
        assert ("g", "i") in result.removed
        assert result.describe().startswith("directed syncs")

    def test_tight_edge_retained(self):
        dag = InstructionDAG.build(
            {"g": Interval(1, 9), "i": Interval(1, 1)}, [("g", "i")]
        )
        sched = Schedule(dag, 2)
        sched.append_instruction(0, "g")
        sched.append_instruction(1, "i")
        result = eliminate_directed_syncs(sched)
        assert result.retained == (("g", "i"),)
        assert result.removed_fraction == 0.0

    def test_start_from_reduced_set(self):
        case = compile_case(GeneratorConfig(n_statements=40, n_variables=10), 5)
        result = schedule_dag(case.dag, SchedulerConfig(n_pes=8, seed=5))
        reduced = structural_syncs(result.schedule)
        both = eliminate_directed_syncs(result.schedule, start_from=reduced)
        assert both.n_retained <= len(reduced)

    def test_monotone_never_worse_than_naive(self):
        for seed in range(5):
            case = compile_case(GeneratorConfig(n_statements=40, n_variables=8), seed)
            result = schedule_dag(case.dag, SchedulerConfig(n_pes=6, seed=seed))
            elim = eliminate_directed_syncs(result.schedule)
            assert elim.n_retained <= elim.naive


class TestDynamicOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_all_edges_respected_with_retained_only(self, seed):
        case = compile_case(GeneratorConfig(n_statements=50, n_variables=10), seed)
        result = schedule_dag(case.dag, SchedulerConfig(n_pes=8, seed=seed))
        elim = eliminate_directed_syncs(result.schedule)
        for sampler in (MinSampler(), MaxSampler(), UniformSampler()):
            for run in range(3):
                start, finish = simulate_directed(
                    result.schedule, elim.retained, sampler, rng=run
                )
                for g, i in case.dag.real_edges():
                    assert finish[g] <= start[i], (g, i)

    def test_combined_regime_sound(self):
        case = compile_case(GeneratorConfig(n_statements=50, n_variables=10), 9)
        result = schedule_dag(case.dag, SchedulerConfig(n_pes=8, seed=9))
        schedule = result.schedule
        both = eliminate_directed_syncs(
            schedule, start_from=structural_syncs(schedule)
        )
        for run in range(5):
            start, finish = simulate_directed(
                schedule, both.retained, UniformSampler(), rng=run
            )
            for g, i in case.dag.real_edges():
                assert finish[g] <= start[i]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 3000), pes=st.integers(2, 8))
def test_elimination_sound_property(seed, pes):
    case = compile_case(GeneratorConfig(n_statements=25, n_variables=6), seed)
    result = schedule_dag(case.dag, SchedulerConfig(n_pes=pes, seed=seed))
    elim = eliminate_directed_syncs(result.schedule)
    start, finish = simulate_directed(
        result.schedule, elim.retained, UniformSampler(), rng=seed
    )
    for g, i in case.dag.real_edges():
        assert finish[g] <= start[i]


def nx_structural_syncs(schedule: Schedule) -> set:
    """Reference: the cross-processor edges that survive networkx's
    transitive reduction of DAG edges plus program-order chains."""
    dag = schedule.dag
    graph = nx.DiGraph()
    graph.add_nodes_from(dag.real_nodes)
    graph.add_edges_from(dag.real_edges())
    for pe in range(schedule.n_pes):
        chain = schedule.instructions_on(pe)
        graph.add_edges_from(zip(chain, chain[1:]))
    reduced = nx.transitive_reduction(graph)
    return {
        (g, i)
        for g, i in dag.real_edges()
        if schedule.processor_of(g) != schedule.processor_of(i)
        and reduced.has_edge(g, i)
    }


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 3000), pes=st.integers(2, 8))
def test_structural_syncs_match_networkx_reduction(seed, pes):
    case = compile_case(GeneratorConfig(n_statements=40, n_variables=8), seed)
    schedule = schedule_dag(case.dag, SchedulerConfig(n_pes=pes, seed=seed)).schedule
    assert structural_syncs(schedule) == nx_structural_syncs(schedule)


def test_syncelim_reduces_once_per_case(monkeypatch):
    structural = syncelim_exp.structural_syncs
    calls = []

    def counted(schedule):
        calls.append(schedule)
        return structural(schedule)

    monkeypatch.setattr(syncelim_exp, "structural_syncs", counted)
    stats = syncelim_exp.sync_elimination_experiment(count=3, n_statements=20)
    assert len(calls) == stats.n_benchmarks == 3
    assert stats.mean_combined <= stats.mean_structural <= stats.mean_naive
