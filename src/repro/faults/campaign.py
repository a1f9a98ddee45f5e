"""Monte-Carlo fault campaigns with dynamic race detection and blame.

A campaign executes one machine program many times under a
:class:`~repro.faults.model.FaultPlan` (``run_machine`` in
``allow_overrun`` mode), verifies every trace against the original
producer/consumer edges, and aggregates the observed order violations
into a *blame report*: which edge raced, which static proof the faults
broke, and how much margin they had to consume to break it.

Two kinds of runs are mixed:

* **random** runs sample in-interval durations uniformly and perturb
  them per the plan -- unbiased coverage of the fault envelope;
* **directed** runs target the statically weakest timing-proved edges
  (:func:`~repro.faults.margin.robustness_margin`).  For each such edge
  three deterministic adversarial witnesses are executed: one stretching
  the *producer's* stream through ``g`` to the plan's worst case with
  everything else at its minimum, one stretching every processor
  *except the consumer's*, and one stretching exactly the stream
  segments the ``T_max(g)`` bound is built from (the longest max path
  from the common dominator to ``LastBar(g)``, plus the producer's
  trailing segment).  All stay inside the plan's envelope, so a
  hardened schedule must survive them too -- they simply find the
  needle much faster than uniform sampling when the remaining slack is
  small.

Races can only ever be observed on timing-proved edges: serialized
edges are enforced by program order and PathFind/barrier edges by the
barrier hardware itself, regardless of how late any instruction runs.
A campaign that blames a non-timing edge has found a simulator or
compiler bug, and says so.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.barriers.model import Barrier
from repro.barriers.paths import PathExplosionError, k_longest_max_paths
from repro.core.barrier_insert import ResolutionKind, classify_edge, timing_quantities
from repro.core.schedule import Schedule
from repro.faults.harden import straggler_nodes
from repro.faults.margin import robustness_margin
from repro.faults.model import FaultPlan, FaultySampler, FaultyController
from repro.ir.dag import NodeId
from repro.machine.dbm import DBMController
from repro.machine.durations import UniformSampler
from repro.machine.engine import GuardPolicy, run_machine
from repro.machine.program import MachineProgram
from repro.machine.sbm import SBMController
from repro.machine.trace import DeadlockError, GuardStall
from repro.perf.parallel import fork_available, ordered_pool, resolve_jobs
from repro.timing import Interval

if TYPE_CHECKING:  # upper layer; only the guard table is consumed
    from repro.hybrid.plan import HybridPlan

__all__ = ["EdgeBlame", "CampaignReport", "run_campaign", "campaign_digest"]

#: Cap on how many weak edges get directed witnesses (2 runs each).
MAX_WITNESS_EDGES = 16

#: Deadlock/stall messages kept verbatim on the report (they carry the
#: blamed edge and the fault-plan summary; a few are plenty).
MAX_FAILURE_NOTES = 5


@dataclass(frozen=True)
class _DirectedSampler:
    """Deterministic adversarial sampler: worst case for ``slow`` nodes
    (within the plan's envelope), minimum latency for everything else."""

    plan: FaultPlan
    slow: frozenset[NodeId]
    straggler: frozenset[NodeId] = frozenset()

    def sample(self, node: NodeId, latency: Interval, rng: random.Random) -> int:
        if node in self.slow:
            return self.plan.worst_case_hi(latency, node in self.straggler)
        return latency.lo


@dataclass(frozen=True)
class EdgeBlame:
    """One raced edge, with the static proof the faults broke."""

    producer: NodeId
    consumer: NodeId
    #: Which static discharge the race falsified ("timing",
    #: "timing-optimal", or -- indicating a harness/compiler bug --
    #: "serialized"/"path"/"barrier").
    kind: str
    #: ``T_min(i-) - T_max(g)`` of the original proof (None when the
    #: edge was not timing-discharged).
    static_slack: int | None
    n_runs_violated: int
    #: Largest observed ``finish(g) - start(i)`` across violating runs.
    worst_excess: int
    #: True when only directed witness runs (not random ones) raced it.
    directed_only: bool

    @property
    def consumed_slack(self) -> int | None:
        """Total margin the faults ate: the proof's static slack plus the
        dynamic overshoot past the consumer's actual start."""
        if self.static_slack is None:
            return None
        return self.static_slack + self.worst_excess

    def describe(self) -> str:
        slack = (
            f"slack {self.static_slack} consumed (+{self.worst_excess} beyond)"
            if self.static_slack is not None
            else "non-timing edge (harness bug?)"
        )
        via = " [directed witness]" if self.directed_only else ""
        return (
            f"{self.producer!s} -> {self.consumer!s}: {self.kind} proof broken "
            f"in {self.n_runs_violated} run(s), {slack}{via}"
        )


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate of one fault campaign over one program."""

    machine: str
    plan: FaultPlan
    n_random: int
    n_directed: int
    n_racy_runs: int
    n_deadlocks: int
    total_violations: int
    total_overruns: int
    blames: tuple[EdgeBlame, ...] = ()
    #: Guard watchdog timeouts (hybrid programs only): races *detected
    #: and reported* instead of spinning forever or racing silently.
    n_stalls: int = 0
    #: Guard waits that actually fired across all runs (hybrid programs
    #: only): races the runtime *recovered* by waiting for data.
    n_guard_saves: int = 0
    #: Mean observed makespan over completed (non-deadlocked,
    #: non-stalled) runs; 0.0 when none completed.
    mean_makespan: float = 0.0
    #: First few deadlock/stall messages, verbatim (self-describing:
    #: they name the blamed edge and the active fault plan).
    failure_notes: tuple[str, ...] = ()

    @property
    def n_runs(self) -> int:
        return self.n_random + self.n_directed

    @property
    def race_free(self) -> bool:
        return not self.blames and self.n_deadlocks == 0

    @property
    def survival_rate(self) -> float:
        """Fraction of runs that finished with every edge ordered
        correctly -- no violation, no deadlock, no guard stall.
        Recovered guard waits count as survival: that is the hybrid
        runtime doing its job."""
        if self.n_runs == 0:
            return 1.0
        failed = self.n_racy_runs + self.n_deadlocks + self.n_stalls
        return (self.n_runs - failed) / self.n_runs

    def render(self) -> str:
        lines = [
            f"{self.machine.upper()} fault campaign [{self.plan.describe()}]: "
            f"{self.n_runs} runs ({self.n_random} random + {self.n_directed} "
            f"directed), {self.total_overruns} overruns injected"
        ]
        if self.race_free:
            lines.append("  no races observed")
        else:
            lines.append(
                f"  RACES: {self.n_racy_runs} racy run(s), "
                f"{self.total_violations} violation(s) on "
                f"{len(self.blames)} edge(s)"
            )
            for blame in self.blames:
                lines.append(f"    {blame.describe()}")
        if self.n_guard_saves or self.n_stalls:
            lines.append(
                f"  GUARDS: {self.n_guard_saves} recovered wait(s), "
                f"{self.n_stalls} watchdog stall(s)"
            )
        if self.n_deadlocks:
            lines.append(f"  DEADLOCKS: {self.n_deadlocks} run(s) hung")
        for note in self.failure_notes:
            lines.append(f"    {note}")
        lines.append(
            f"  survival {self.survival_rate:.0%}, "
            f"mean makespan {self.mean_makespan:.1f}"
        )
        return "\n".join(lines)


@dataclass
class _EdgeTally:
    n_violated: int = 0
    worst_excess: int = 0
    from_random: bool = False


def _make_controller(program: MachineProgram, machine: str):
    if machine == "sbm":
        return SBMController(program)
    if machine == "dbm":
        return DBMController(program)
    raise ValueError(f"unknown machine {machine!r} (expected 'sbm' or 'dbm')")


def _producer_witness(schedule: Schedule, g: NodeId) -> frozenset[NodeId]:
    """The producer's stream up to and including ``g``."""
    pe, pos = schedule.position_of(g)
    return frozenset(
        item for item in schedule.streams[pe][: pos + 1]
        if not isinstance(item, Barrier)
    )


def _anti_consumer_witness(schedule: Schedule, i: NodeId) -> frozenset[NodeId]:
    """Every instruction not on the consumer's processor."""
    pe = schedule.processor_of(i)
    return frozenset(
        node for node in schedule.scheduled_nodes if schedule.processor_of(node) != pe
    )


def _chain_witness(schedule: Schedule, g: NodeId, i: NodeId) -> frozenset[NodeId]:
    """The producer's stream through ``g`` *plus* every stream segment
    along the longest max path ``dom -> LastBar(g)`` -- the exact nodes
    whose latencies the ``T_max(g)`` bound is made of.  Stretching only
    these realizes the proof's worst case on the producer side while the
    consumer side (whose bound uses minimum latencies, untouched here)
    runs as early as possible."""
    slow = set(_producer_witness(schedule, g))
    q = timing_quantities(schedule, g, i)
    if q.dom == q.last_g:
        return frozenset(slow)
    try:
        paths = k_longest_max_paths(schedule.barrier_dag(), q.dom, q.last_g)
    except PathExplosionError:
        return frozenset(slow)
    if not paths:
        return frozenset(slow)
    _, path = paths[0]
    on_path = set(zip(path, path[1:]))
    for stream in schedule.streams:
        prev: int | None = None
        segment: list[NodeId] = []
        for item in stream:
            if isinstance(item, Barrier):
                if prev is not None and (prev, item.id) in on_path:
                    slow.update(segment)
                prev = item.id
                segment = []
            else:
                segment.append(item)
    return frozenset(slow)


@dataclass(frozen=True)
class _RunSpec:
    """One fully-determined execution: sampler, rng seed, run class."""

    sampler: object  # DurationSampler
    seed: int
    is_random: bool


@dataclass(frozen=True)
class _RunOutcome:
    """The picklable residue of one execution a worker ships back."""

    kind: str  # "ok" | "deadlock" | "stall"
    #: ``(producer, consumer, excess)`` per observed order violation.
    violations: tuple[tuple[NodeId, NodeId, int], ...]
    n_overruns: int
    makespan: int
    guard_saves: int
    is_random: bool
    note: str = ""


#: What every run of one campaign shares: program, machine, plan, guard policy.
_Context = tuple[MachineProgram, str, FaultPlan, "GuardPolicy | None"]


def _execute_spec(ctx: _Context, spec: _RunSpec) -> _RunOutcome:
    """Execute one spec (worker-side; must stay importable for pickling)."""
    program, machine, plan, guard_policy = ctx
    rng = random.Random(spec.seed)
    context = "" if plan.is_null else plan.describe()
    if program.guards:
        from repro.hybrid.controller import HybridController

        controller = HybridController.for_program(
            program, machine, guard_policy, fault_context=context
        )
    else:
        controller = _make_controller(program, machine)
    if plan.barrier_jitter:
        controller = FaultyController(controller, plan, rng)
    try:
        trace = run_machine(
            program,
            controller,
            machine,
            spec.sampler,
            rng,
            allow_overrun=True,
            guard_policy=guard_policy,
        )
    except DeadlockError as exc:
        return _RunOutcome("deadlock", (), 0, 0, 0, spec.is_random, str(exc))
    except GuardStall as exc:
        return _RunOutcome("stall", (), 0, 0, 0, spec.is_random, str(exc))
    violations = tuple(
        (v.producer, v.consumer, v.producer_finish - v.consumer_start)
        for v in trace.verify(program.edges, context)
    )
    return _RunOutcome(
        "ok",
        violations,
        len(trace.overruns),
        trace.makespan,
        trace.guard_saves,
        spec.is_random,
    )


def _execute_slice(
    task: tuple[_Context, list[_RunSpec]],
) -> list[_RunOutcome]:
    """Worker: execute one slice of specs in order."""
    ctx, specs = task
    return [_execute_spec(ctx, spec) for spec in specs]


def _execute_all(
    ctx: _Context,
    specs: list[_RunSpec],
    jobs: int,
) -> list[_RunOutcome]:
    """Run every spec, on :func:`~repro.perf.parallel.ordered_pool` when
    asked and possible.

    Slices come back in spec order regardless of worker scheduling, and
    every per-run rng is derived from the spec's own seed, so the
    parallel path is bit-identical to the serial one (pinned by the
    digest-parity regression test).  The pool folds each worker's
    metrics, timings and spans into the caller's collectors.
    """
    if jobs > 1 and len(specs) > 1 and fork_available():
        size = max(1, len(specs) // (jobs * 4))
        tasks = ((ctx, specs[lo:lo + size]) for lo in range(0, len(specs), size))
        return [
            outcome
            for outcomes in ordered_pool(_execute_slice, tasks, jobs)
            for outcome in outcomes
        ]
    return _execute_slice((ctx, specs))


def run_campaign(
    schedule: Schedule,
    machine: str = "sbm",
    plan: FaultPlan | None = None,
    runs: int = 50,
    seed: int = 0,
    directed: bool = True,
    mode: str = "conservative",
    hybrid: "HybridPlan | None" = None,
    guard_policy: GuardPolicy | None = None,
    jobs: int | None = 1,
) -> CampaignReport:
    """Execute a seeded fault campaign against a finished schedule.

    ``mode`` names the insertion mode the schedule was built with (it
    drives the blame classification and the directed-witness targeting).
    Deterministic for a given ``(schedule, plan, runs, seed)`` --
    including under ``jobs > 1``, which fans the independent runs out
    over a fork pool (``None`` consults ``REPRO_JOBS``, ``0`` means all
    cores) and merges outcomes in submission order.

    Passing a :class:`~repro.hybrid.plan.HybridPlan` as ``hybrid``
    executes the *hybrid* program instead: the same streams and barriers
    plus the plan's dynamic guard table, run under a
    :class:`~repro.hybrid.controller.HybridController` with the
    ``guard_policy`` watchdog.  Guard recoveries and stalls are tallied
    on the report.
    """
    plan = plan or FaultPlan()
    guards = hybrid.guards if hybrid is not None else None
    program = MachineProgram.from_schedule(schedule, guards=guards)
    if machine not in ("sbm", "dbm"):
        raise ValueError(f"unknown machine {machine!r} (expected 'sbm' or 'dbm')")
    slow = straggler_nodes(schedule, plan)
    random_sampler = FaultySampler(plan, UniformSampler(), slow)

    specs: list[_RunSpec] = [
        _RunSpec(random_sampler, seed * 1_000_003 + k, is_random=True)
        for k in range(runs)
    ]
    if directed:
        margin = robustness_margin(schedule, mode)
        for k, edge in enumerate(margin.edges[:MAX_WITNESS_EDGES]):
            witnesses = (
                _producer_witness(schedule, edge.producer),
                _anti_consumer_witness(schedule, edge.consumer),
                _chain_witness(schedule, edge.producer, edge.consumer),
            )
            for w, slow_set in enumerate(witnesses):
                specs.append(
                    _RunSpec(
                        _DirectedSampler(plan, slow_set, slow),
                        seed * 1_000_003 + runs + 3 * k + w,
                        is_random=False,
                    )
                )
    n_directed = sum(1 for s in specs if not s.is_random)

    ctx = (program, machine, plan, guard_policy)
    outcomes = _execute_all(ctx, specs, resolve_jobs(jobs))

    tallies: dict[tuple[NodeId, NodeId], _EdgeTally] = {}
    n_racy = 0
    n_deadlocks = 0
    n_stalls = 0
    n_guard_saves = 0
    total_violations = 0
    total_overruns = 0
    makespans: list[int] = []
    notes: list[str] = []
    for outcome in outcomes:
        if outcome.kind == "deadlock":
            n_deadlocks += 1
            if len(notes) < MAX_FAILURE_NOTES:
                notes.append(outcome.note)
            continue
        if outcome.kind == "stall":
            n_stalls += 1
            if len(notes) < MAX_FAILURE_NOTES:
                notes.append(outcome.note)
            continue
        total_overruns += outcome.n_overruns
        n_guard_saves += outcome.guard_saves
        makespans.append(outcome.makespan)
        if not outcome.violations:
            continue
        n_racy += 1
        total_violations += len(outcome.violations)
        for g, i, excess in outcome.violations:
            tally = tallies.setdefault((g, i), _EdgeTally())
            tally.n_violated += 1
            tally.worst_excess = max(tally.worst_excess, excess)
            tally.from_random = tally.from_random or outcome.is_random

    blames = []
    for (g, i), tally in tallies.items():
        verdict = classify_edge(schedule, g, i, mode)
        if verdict.kind is ResolutionKind.TIMING:
            kind = "timing-optimal" if verdict.via_optimal else "timing"
            slack = timing_quantities(schedule, g, i).slack
        else:
            kind = verdict.kind.value
            slack = None
        blames.append(
            EdgeBlame(
                producer=g,
                consumer=i,
                kind=kind,
                static_slack=slack,
                n_runs_violated=tally.n_violated,
                worst_excess=tally.worst_excess,
                directed_only=not tally.from_random,
            )
        )
    blames.sort(key=lambda b: (-b.worst_excess, str(b.producer), str(b.consumer)))

    return CampaignReport(
        machine=machine,
        plan=plan,
        n_random=runs,
        n_directed=n_directed,
        n_racy_runs=n_racy,
        n_deadlocks=n_deadlocks,
        total_violations=total_violations,
        total_overruns=total_overruns,
        blames=tuple(blames),
        n_stalls=n_stalls,
        n_guard_saves=n_guard_saves,
        mean_makespan=sum(makespans) / len(makespans) if makespans else 0.0,
        failure_notes=tuple(notes),
    )


def campaign_digest(report: CampaignReport) -> str:
    """A stable digest of everything a campaign observed.

    Covers the run counts, every blame line, the guard tallies, and the
    mean makespan -- so any behavioural drift between the serial and
    parallel campaign paths (or across refactors that must preserve
    blame reports) changes the digest.  The determinism regression test
    pins serial vs ``jobs=N`` equality with it.
    """
    record = {
        "machine": report.machine,
        "plan": report.plan.describe(),
        "n_random": report.n_random,
        "n_directed": report.n_directed,
        "n_racy_runs": report.n_racy_runs,
        "n_deadlocks": report.n_deadlocks,
        "n_stalls": report.n_stalls,
        "n_guard_saves": report.n_guard_saves,
        "total_violations": report.total_violations,
        "total_overruns": report.total_overruns,
        "mean_makespan": report.mean_makespan,
        "failure_notes": list(report.failure_notes),
        "blames": [
            [
                str(b.producer),
                str(b.consumer),
                b.kind,
                b.static_slack,
                b.n_runs_violated,
                b.worst_excess,
                b.directed_only,
            ]
            for b in report.blames
        ],
    }
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
