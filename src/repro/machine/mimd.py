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
  :func:`structural_syncs` computes the surviving set in one bitset sweep.

:func:`simulate_conventional_mimd` also executes the assignment under a
duration sampler on :func:`~repro.core.sync_elimination.simulate_directed`
(the executor the timing-based elimination is checked with), charging
``sync_latency`` time units to every retained directed synchronization
on the consumer side -- quantifying the runtime cost the barrier MIMD
avoids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from repro.core.schedule import Schedule
from repro.core.sync_elimination import (
    _cross_edges,
    _topo_nodes,
    simulate_directed,
)
from repro.machine.durations import DurationSampler
from repro.ir.dag import InstructionDAG, NodeId

__all__ = [
    "ConventionalMIMDResult",
    "directed_sync_counts",
    "simulate_conventional_mimd",
    "structural_syncs",
]


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


def structural_syncs(schedule: Schedule) -> set[tuple[NodeId, NodeId]]:
    """Cross-processor DAG edges surviving transitive reduction of the
    task graph (DAG edges plus per-processor program-order chains).

    A cross edge ``(g, i)`` is implied by structure iff ``g`` is an
    ancestor of another predecessor of ``i``.  The chains plus the cross
    edges order exactly what the DAG plus the chains order (a
    same-processor DAG edge runs along its chain), so one topological
    sweep of Python-int ancestor bitsets over that sync graph decides
    every edge -- the idiom of ``BarrierDag._descendant_bits``.
    """
    cross = _cross_edges(schedule.dag, schedule)
    order, preds = _topo_nodes(schedule, set(cross))
    bit = {node: 1 << k for k, node in enumerate(order)}
    ancestors: dict[NodeId, int] = {}
    # ancestors of a node's predecessors, the predecessors themselves excluded
    implied: dict[NodeId, int] = {}
    for node in order:
        via = direct = 0
        for p in preds[node]:
            via |= ancestors[p]
            direct |= bit[p]
        implied[node] = via
        ancestors[node] = via | direct
    return {(g, i) for g, i in cross if not implied[i] & bit[g]}


def directed_sync_counts(
    dag: InstructionDAG, schedule: Schedule
) -> tuple[int, int]:
    """``(naive, reduced)`` directed synchronization counts.

    ``reduced`` counts the cross-processor edges surviving transitive
    reduction of the combined task graph -- the graph-structural
    elimination of [Shaf89]/[Call87], which cannot exploit timing.
    """
    return len(_cross_edges(dag, schedule)), len(structural_syncs(schedule))


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
    retained = structural_syncs(schedule)
    start, finish = simulate_directed(
        schedule, retained, sampler, rng, sync_latency
    )
    return ConventionalMIMDResult(
        n_cross_edges=len(_cross_edges(schedule.dag, schedule)),
        n_after_reduction=len(retained),
        makespan=max(finish.values(), default=0),
        start=start,
        finish=finish,
    )
