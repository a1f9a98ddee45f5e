"""Conventional-MIMD baseline with directed synchronization (section 3).

On a conventional MIMD every cross-processor producer/consumer pair is
enforced by a *directed* run-time synchronization (figure 3): the
producer posts a flag/message the consumer must receive before it may
proceed.  Two baselines are computed for a given processor assignment:

* **naive**: one runtime synchronization per cross-processor DAG edge;
* **transitively reduced**: Shaffer [Shaf89] and Callahan [Call87] remove
  synchronizations implied by the *structure* of the task graph (program
  order chains plus other synchronizations).  This is the strongest prior
  technique the paper compares its timing-based elimination against.

:func:`simulate_conventional_mimd` also executes the assignment under a
duration sampler, charging ``sync_latency`` time units to every retained
directed synchronization on the consumer side -- quantifying the runtime
cost the barrier MIMD avoids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.core.schedule import Schedule
from repro.machine.durations import DurationSampler, UniformSampler
from repro.ir.dag import InstructionDAG, NodeId

if TYPE_CHECKING:  # imported where used, off the start-up path
    import networkx as nx

__all__ = ["ConventionalMIMDResult", "directed_sync_counts", "simulate_conventional_mimd"]


@dataclass(frozen=True)
class ConventionalMIMDResult:
    """Directed-synchronization counts and one simulated execution."""

    n_cross_edges: int  # naive directed syncs
    n_after_reduction: int  # after Shaffer-style transitive reduction
    makespan: int
    start: Mapping[NodeId, int]
    finish: Mapping[NodeId, int]

    @property
    def reduction_ratio(self) -> float:
        """Fraction of naive syncs removed by structure alone."""
        if self.n_cross_edges == 0:
            return 0.0
        return 1.0 - self.n_after_reduction / self.n_cross_edges


def _combined_task_graph(
    dag: InstructionDAG, schedule: Schedule
) -> "nx.DiGraph":
    """DAG edges plus per-processor program-order chain edges."""
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(dag.real_nodes)
    graph.add_edges_from(dag.real_edges())
    for pe in range(schedule.n_pes):
        chain = schedule.instructions_on(pe)
        for a, b in zip(chain, chain[1:]):
            graph.add_edge(a, b)
    return graph


def directed_sync_counts(
    dag: InstructionDAG, schedule: Schedule
) -> tuple[int, int]:
    """``(naive, reduced)`` directed synchronization counts.

    ``reduced`` counts the cross-processor edges surviving transitive
    reduction of the combined task graph -- the graph-structural
    elimination of [Shaf89]/[Call87], which cannot exploit timing.
    """
    import networkx as nx

    cross = [
        (g, i)
        for g, i in dag.real_edges()
        if schedule.processor_of(g) != schedule.processor_of(i)
    ]
    combined = _combined_task_graph(dag, schedule)
    reduced = nx.transitive_reduction(combined)
    surviving = sum(1 for g, i in cross if reduced.has_edge(g, i))
    return len(cross), surviving


def simulate_conventional_mimd(
    schedule: Schedule,
    sampler: DurationSampler | None = None,
    rng: random.Random | int | None = None,
    sync_latency: int = 2,
) -> ConventionalMIMDResult:
    """Execute the schedule's processor assignment with directed syncs.

    Instructions run in each processor's stream order; a consumer with
    retained cross-processor producers additionally waits for each
    producer's finish plus ``sync_latency`` (flag transit time, the
    unbounded-delay hazard of figure 3 made concrete)."""
    import networkx as nx

    sampler = sampler or UniformSampler()
    if rng is None or isinstance(rng, int):
        rng = random.Random(rng)
    dag = schedule.dag

    naive, reduced_count = directed_sync_counts(dag, schedule)
    combined = _combined_task_graph(dag, schedule)
    reduced = nx.transitive_reduction(combined)

    start: dict[NodeId, int] = {}
    finish: dict[NodeId, int] = {}
    for node in nx.topological_sort(combined):
        ready = 0
        pe = schedule.processor_of(node)
        for g in combined.predecessors(node):
            if schedule.processor_of(g) == pe:
                ready = max(ready, finish[g])
            elif reduced.has_edge(g, node):
                ready = max(ready, finish[g] + sync_latency)
            else:
                # Synchronization removed by transitive reduction: the
                # ordering is still guaranteed through retained edges.
                ready = max(ready, finish[g])
        start[node] = ready
        finish[node] = ready + sampler.sample(node, dag.latency(node), rng)

    makespan = max(finish.values(), default=0)
    return ConventionalMIMDResult(
        n_cross_edges=naive,
        n_after_reduction=reduced_count,
        makespan=makespan,
        start=start,
        finish=finish,
    )
