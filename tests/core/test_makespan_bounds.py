"""Property test: every schedule's makespan sits within the trivial bounds.

The makespan of a schedule can never beat the DAG's critical path (under
either the minimum or the maximum latencies), and it can never exceed
running every real instruction back to back at its maximum latency plus
one release latency per final barrier -- at every instant before the end
some processor executes an instruction or a barrier is releasing.  These
are the trivial lower/upper bounds of BSP-style DAG scheduling, checked
here over every scheduler variant the paper's evaluation uses.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import SchedulerConfig, schedule_dag
from repro.synth.corpus import compile_case
from repro.synth.generator import GeneratorConfig


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 59),
    n_statements=st.sampled_from([10, 30, 60]),
    machine=st.sampled_from(["sbm", "dbm"]),
    insertion=st.sampled_from(["conservative", "optimal"]),
    merge_barriers=st.sampled_from([None, False]),
    n_pes=st.sampled_from([1, 4, 8]),
    barrier_latency=st.sampled_from([0, 2]),
)
def test_makespan_within_trivial_bounds(
    seed, n_statements, machine, insertion, merge_barriers, n_pes, barrier_latency
):
    dag = compile_case(GeneratorConfig(n_statements=n_statements), seed).dag
    config = SchedulerConfig(
        n_pes=n_pes,
        machine=machine,
        insertion=insertion,
        merge_barriers=merge_barriers,
        barrier_latency=barrier_latency,
        seed=seed,
    )
    result = schedule_dag(dag, config)
    critical = dag.critical_path()
    assert result.makespan.lo >= critical.lo
    assert result.makespan.hi >= critical.hi
    serial_work = sum(dag.latency(node).hi for node in dag.real_nodes)
    barrier_time = barrier_latency * result.counts.barriers_final
    assert result.makespan.hi <= serial_work + barrier_time
