"""Tests for the instruction DAG: construction, levels, critical path."""

import pytest

from repro.timing import Interval
from repro.ir import compile_source
from repro.ir.dag import CycleError, ENTRY, EXIT, InstructionDAG
from repro.ir.ops import DEFAULT_TIMING, Opcode
from repro.ir.parser import parse_block
from repro.ir.codegen import generate_tuples
from repro.ir.optimizer import optimize

from tests.conftest import chain_dag, diamond_dag


class TestBuild:
    def test_dummy_wiring(self):
        dag = diamond_dag()
        assert set(dag.succs(ENTRY)) == {"a"}
        assert set(dag.preds(EXIT)) == {"d"}
        assert len(dag) == 4

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            InstructionDAG.build(
                {1: Interval(1, 1), 2: Interval(1, 1)}, [(1, 2), (2, 1)]
            )

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            InstructionDAG.build({1: Interval(1, 1)}, [(1, 1)])

    def test_unknown_node_in_edge(self):
        with pytest.raises(ValueError):
            InstructionDAG.build({1: Interval(1, 1)}, [(1, 2)])

    def test_duplicate_operand_gives_one_edge(self):
        source = "a = x + x"
        dag = compile_source(source)
        add = [n for n in dag.real_nodes if dag.tuple_of(n).opcode is Opcode.ADD][0]
        assert len(dag.real_preds(add)) == 1

    def test_empty_program(self):
        dag = InstructionDAG.build({}, [])
        assert len(dag) == 0
        assert dag.critical_path() == Interval(0, 0)

    def test_topological_real_nodes(self):
        dag = diamond_dag()
        order = {n: k for k, n in enumerate(dag.real_nodes)}
        for u, v in dag.real_edges():
            assert order[u] < order[v]

    def test_pickle_roundtrip_filters_dummies(self):
        # An unpickled dag carries non-interned ENTRY/EXIT strings, so
        # the dummy filters must compare by value, not identity.  A
        # dag returned from a process-pool worker is exactly this case;
        # leaked pseudo edges used to crash trace verification.
        import pickle

        dag = compile_source("a = x + y\nb = a * z")
        clone = pickle.loads(pickle.dumps(dag))
        assert clone.real_nodes == dag.real_nodes
        assert list(clone.real_edges()) == list(dag.real_edges())
        for n in clone.real_nodes:
            assert ENTRY not in clone.real_preds(n)
            assert EXIT not in clone.real_succs(n)


class TestFromProgram:
    def test_edges_follow_refs(self):
        program = optimize(generate_tuples(parse_block("a = x + y\nb = a - x")))
        dag = InstructionDAG.from_program(program)
        by_op = {dag.tuple_of(n).opcode: n for n in dag.real_nodes}
        sub = by_op[Opcode.SUB]
        add = by_op[Opcode.ADD]
        assert add in dag.real_preds(sub)

    def test_latencies_from_timing_model(self):
        dag = compile_source("a = x * y")
        mul = [n for n in dag.real_nodes if dag.tuple_of(n).opcode is Opcode.MUL][0]
        assert dag.latency(mul) == DEFAULT_TIMING[Opcode.MUL]

    def test_implied_synchronizations_counts_real_edges_only(self):
        dag = compile_source("a = x + y")
        # Load x -> Add, Load y -> Add, Add -> Store: 3 edges
        assert dag.implied_synchronizations == 3


class TestLevels:
    def test_figure1_levels(self):
        """The min/max finish columns of figure 1 for 'b = i + a'."""
        dag = compile_source("b = i + a", run_optimizer=False)
        levels = dag.finish_levels()
        by_render = {dag.tuple_of(n).render(): levels[n] for n in dag.real_nodes}
        assert by_render["Load i"] == Interval(1, 4)
        assert by_render["Load a"] == Interval(1, 4)
        assert by_render["Add 0,1"] == Interval(2, 5)
        assert by_render["Store b,2"] == Interval(3, 6)

    def test_chain_critical_path(self):
        dag = chain_dag([(1, 4), (1, 1), (16, 24)])
        assert dag.critical_path() == Interval(18, 29)

    def test_diamond_critical_path_takes_slow_arm(self):
        dag = diamond_dag()
        # a[1,4] + c[16,24] + d[1,1]
        assert dag.critical_path() == Interval(18, 29)

    def test_parallelism_width(self):
        dag = diamond_dag()
        total = 4 + 1 + 24 + 1
        assert dag.parallelism_width() == pytest.approx(total / 29)


class TestInterop:
    def test_render_contains_nodes(self):
        text = compile_source("a = x + y").render()
        assert "Load" in text and "Store" in text

    def test_payloads(self):
        dag = compile_source("a = x + 1")
        for node in dag.real_nodes:
            assert dag.tuple_of(node).id == node

    def test_tuple_of_raises_without_payload(self):
        dag = diamond_dag()
        with pytest.raises(KeyError):
            dag.tuple_of("a")
