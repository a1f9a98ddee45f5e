"""EXTENSION: timing-based synchronization removal for conventional MIMDs.

The paper's conclusion proposes "the possible application of the barrier
scheduling techniques to remove some synchronizations in conventional
MIMD architectures" (section 7).  This module implements that idea.

Setting: a conventional MIMD runs the same processor assignment the
barrier scheduler produced, but with **directed** producer/consumer
synchronizations (flags/messages) instead of barriers -- one per
cross-processor DAG edge, as in figure 3.  Prior art removes directed
syncs implied by the *structure* of the task graph (Shaffer's transitive
reduction, :func:`repro.machine.mimd.structural_syncs`).  The paper's
insight is that `[min,max]` **timing** knowledge removes more:

    a directed sync ``(g, i)`` is redundant if, under the remaining
    synchronizations alone, the earliest possible start of ``i`` is no
    earlier than the latest possible finish of ``g``.

Without barriers there is no re-zeroing of skew, so bounds are computed
from machine start over the *sync graph* (per-processor program-order
chains plus the retained directed edges):

    ``start(i) = join(finish(prev on PE), finish(g') + L for retained
    (g', i))``, all in interval arithmetic.

These global bounds are valid in every execution (each processor starts
at time 0; a lower bound can only be under-approached, an upper bound
over-approached), so the removal test is sound -- conservative exactly
where the barrier machinery would also have been (shared-chain
correlations are not exploited).

The elimination is greedy-iterative: candidates are examined
most-slack-first; each removal relaxes start times (they can only get
*earlier*), so bounds are recomputed before testing the next candidate.
The result is verified two ways in the test suite: analytically (every
removed edge re-checked against the final retained set) and dynamically
(randomized-duration executions of the reduced-sync machine).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.schedule import Schedule
from repro.machine.durations import DurationSampler, UniformSampler
from repro.timing import Interval, ZERO
from repro.ir.dag import InstructionDAG, NodeId

__all__ = [
    "SyncEliminationResult",
    "compute_sync_bounds",
    "eliminate_directed_syncs",
    "simulate_directed",
]


def _cross_edges(
    dag: InstructionDAG, schedule: Schedule
) -> list[tuple[NodeId, NodeId]]:
    """DAG edges whose producer and consumer run on different processors."""
    return [
        (g, i)
        for g, i in dag.real_edges()
        if schedule.processor_of(g) != schedule.processor_of(i)
    ]


def _per_pe_chains(schedule: Schedule) -> dict[NodeId, NodeId]:
    """``node -> predecessor on the same processor`` (program order)."""
    prev: dict[NodeId, NodeId] = {}
    for pe in range(schedule.n_pes):
        chain = schedule.instructions_on(pe)
        for a, b in zip(chain, chain[1:]):
            prev[b] = a
    return prev


def _topo_nodes(schedule: Schedule, retained: set[tuple[NodeId, NodeId]]):
    """Topological order of the sync graph (chains + retained edges)."""
    preds: dict[NodeId, list[NodeId]] = {
        n: [] for pe in range(schedule.n_pes) for n in schedule.instructions_on(pe)
    }
    for b, a in _per_pe_chains(schedule).items():
        preds[b].append(a)
    for g, i in retained:
        preds[i].append(g)
    in_deg = {n: len(ps) for n, ps in preds.items()}
    succs: dict[NodeId, list[NodeId]] = {n: [] for n in preds}
    for n, ps in preds.items():
        for p in ps:
            succs[p].append(n)
    frontier = [n for n, d in in_deg.items() if d == 0]
    order = []
    while frontier:
        n = frontier.pop()
        order.append(n)
        for s in succs[n]:
            in_deg[s] -= 1
            if in_deg[s] == 0:
                frontier.append(s)
    if len(order) != len(preds):
        raise ValueError("sync graph is cyclic: invalid retained edge set")
    return order, preds


def compute_sync_bounds(
    schedule: Schedule,
    retained: set[tuple[NodeId, NodeId]],
    sync_latency: int = 0,
) -> tuple[dict[NodeId, Interval], dict[NodeId, Interval]]:
    """``(start, finish)`` interval bounds under the retained syncs only."""
    order, preds = _topo_nodes(schedule, retained)
    start: dict[NodeId, Interval] = {}
    finish: dict[NodeId, Interval] = {}
    for node in order:
        ready = ZERO
        for p in preds[node]:
            bound = finish[p]
            # retained edges are always cross-processor, so they never
            # coincide with the program-order chain predecessor
            if sync_latency and (p, node) in retained:
                bound = bound + sync_latency
            ready = ready.join(bound)
        start[node] = ready
        finish[node] = ready + schedule.dag.latency(node)
    return start, finish


@dataclass(frozen=True)
class SyncEliminationResult:
    """Outcome of directed-sync elimination for one schedule."""

    naive: int  # all cross-processor edges
    retained: tuple[tuple[NodeId, NodeId], ...]
    removed: tuple[tuple[NodeId, NodeId], ...]

    @property
    def n_retained(self) -> int:
        return len(self.retained)

    @property
    def removed_fraction(self) -> float:
        return len(self.removed) / self.naive if self.naive else 0.0

    def describe(self) -> str:
        return (
            f"directed syncs: {self.naive} naive -> {self.n_retained} retained "
            f"({self.removed_fraction:.0%} removed by timing)"
        )


def eliminate_directed_syncs(
    schedule: Schedule,
    sync_latency: int = 0,
    start_from: set[tuple[NodeId, NodeId]] | None = None,
) -> SyncEliminationResult:
    """Remove timing-redundant directed synchronizations.

    ``start_from`` optionally restricts the initial sync set (e.g. the
    transitively reduced set from :func:`repro.machine.mimd.structural_syncs`,
    to measure how much timing removes *beyond* structure); the default
    is one directed sync per cross-processor DAG edge.

    Every edge not in the retained set is still guaranteed: same-processor
    edges by program order, removed cross edges by the timing proof
    against the final retained set (re-verified at the end).
    """
    cross = _cross_edges(schedule.dag, schedule)
    retained: set[tuple[NodeId, NodeId]] = set(
        cross if start_from is None else start_from
    )
    removed: list[tuple[NodeId, NodeId]] = []

    changed = True
    while changed:
        changed = False
        start, finish = compute_sync_bounds(schedule, retained, sync_latency)
        # most slack first: these removals relax later starts the least
        candidates = sorted(
            retained,
            key=lambda edge: start[edge[1]].lo - finish[edge[0]].hi,
            reverse=True,
        )
        for g, i in candidates:
            trial = retained - {(g, i)}
            trial_start, trial_finish = compute_sync_bounds(
                schedule, trial, sync_latency
            )
            if trial_start[i].lo >= trial_finish[g].hi:
                retained = trial
                removed.append((g, i))
                changed = True
                break  # bounds changed; re-rank remaining candidates

    # Final analytic re-verification of every removed edge.
    start, finish = compute_sync_bounds(schedule, retained, sync_latency)
    for g, i in removed:
        assert start[i].lo >= finish[g].hi, "elimination produced unsound set"

    return SyncEliminationResult(
        naive=len(cross), retained=tuple(sorted(retained, key=str)),
        removed=tuple(removed),
    )


def simulate_directed(
    schedule: Schedule,
    retained: set[tuple[NodeId, NodeId]] | tuple,
    sampler: DurationSampler | None = None,
    rng: random.Random | int | None = None,
    sync_latency: int = 0,
) -> tuple[dict[NodeId, int], dict[NodeId, int]]:
    """Execute the assignment enforcing only the retained directed syncs.

    Returns ``(start, finish)`` times; the caller checks the *full* DAG
    edge set against them (the oracle for the elimination).
    """
    sampler = sampler or UniformSampler()
    if rng is None or isinstance(rng, int):
        rng = random.Random(rng)
    retained_set = set(retained)
    order, preds = _topo_nodes(schedule, retained_set)
    start: dict[NodeId, int] = {}
    finish: dict[NodeId, int] = {}
    for node in order:
        ready = 0
        for p in preds[node]:
            t = finish[p]
            if sync_latency and (p, node) in retained_set:
                t += sync_latency
            ready = max(ready, t)
        start[node] = ready
        finish[node] = ready + sampler.sample(
            node, schedule.dag.latency(node), rng
        )
    return start, finish
