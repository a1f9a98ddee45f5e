"""Property tests for incremental derived-view maintenance (perf PR).

:class:`~repro.core.schedule.Schedule` keeps its barrier dag, dominator
tree, fire times, and happens-before views *alive* across mutations --
appends leave them untouched, barrier insertions and replacements evolve
them in place -- instead of invalidating and rebuilding from the streams.
These tests pin the contract that makes that safe:

* after **any** mutation sequence (scheduler-driven or adversarially
  random) every materialized view is equal to a cold scratch rebuild;
* the end-to-end corpus digest is bit-identical to the value recorded
  before the optimization, so no observable scheduling decision moved;
* ``REPRO_CHECK_INCREMENTAL=1`` wires the same scratch cross-check into
  every mutation, and the full pipeline runs clean under it.
"""

from __future__ import annotations

import random

import pytest

from repro.barriers.dominators import DominatorTree
from repro.core.merging import merge_all_overlapping
from repro.core.schedule import Schedule
from repro.core.scheduler import SchedulerConfig, schedule_dag
from repro.experiments.sweeps import ExperimentPoint, run_corpus
from repro.faults.harden import harden_schedule
from repro.obs.metrics import collect_metrics
from repro.perf.parallel import results_digest
from repro.synth.generator import GeneratorConfig
from repro.timing import Interval, interval_max

from tests.conftest import make_case

#: results_digest of the paper's standard 100-block corpus point,
#: captured on the codebase *before* the incremental-view optimization.
#: The digest covers every edge resolution (kind, barrier, dominator,
#: secondary, merges), the stats summary, and the list order -- if any
#: scheduling decision shifts, this test fails.
PRE_OPTIMIZATION_DIGEST = (
    "3efead027d799e23985327d9f41c0b81bf7eba4ef09e397e6a81fdb75ac9ab7c"
)


def assert_views_match_scratch(sched: Schedule) -> None:
    """Every materialized derived view equals a cold rebuild."""
    bd = sched.barrier_dag()
    scratch = sched._scratch_barrier_dag()
    assert set(bd.barrier_ids) == set(scratch.barrier_ids)
    evolved_edges = {(e.src, e.dst): e.weight for e in bd.edges()}
    scratch_edges = {(e.src, e.dst): e.weight for e in scratch.edges()}
    assert evolved_edges == scratch_edges
    assert bd.fire_times() == scratch.fire_times()
    for bid in bd.barrier_ids:
        assert bd.descendants(bid) == scratch.descendants(bid)

    assert sched.fire_times() == scratch.fire_times()

    dom = sched.dominator_tree()
    fresh = DominatorTree(scratch)
    assert dom._idom == fresh._idom
    for u in bd.barrier_ids:
        for v in bd.barrier_ids:
            assert dom.dominates(u, v) == fresh.dominates(u, v)

    scratch_hb = sched._scratch_hb_successors()
    assert sched.hb_barrier_descendants() == (
        sched._scratch_hb_barrier_descendants(scratch_hb)
    )


def materialize(sched: Schedule) -> None:
    """Force every cache live so subsequent mutations *patch*, not rebuild."""
    sched.barrier_dag()
    sched.dominator_tree()
    sched.fire_times()
    sched.hb_successors()
    sched.hb_barrier_descendants()


class TestSchedulerDrivenEquivalence:
    """The real pipeline, with the built-in cross-check armed: every
    mutation the scheduler performs is verified against scratch rebuilds
    inside :meth:`Schedule._verify_incremental` (AssertionError on any
    divergence)."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("machine", ["sbm", "dbm"])
    def test_pipeline_clean_under_cross_check(self, monkeypatch, seed, machine):
        monkeypatch.setenv("REPRO_CHECK_INCREMENTAL", "1")
        case = make_case(n_statements=24, n_variables=6, seed=seed)
        cfg = SchedulerConfig(n_pes=4, machine=machine, seed=seed)
        result = schedule_dag(case.dag, cfg)
        assert result.schedule._check  # the flag actually armed the checks
        assert_views_match_scratch(result.schedule)

    @pytest.mark.parametrize("seed", range(3))
    def test_optimal_mode_clean_under_cross_check(self, monkeypatch, seed):
        monkeypatch.setenv("REPRO_CHECK_INCREMENTAL", "1")
        case = make_case(n_statements=18, n_variables=5, seed=seed)
        cfg = SchedulerConfig(n_pes=3, insertion="optimal", seed=seed)
        result = schedule_dag(case.dag, cfg)
        assert_views_match_scratch(result.schedule)


class TestRandomMutationEquivalence:
    """Adversarial interleavings that the scheduler itself would never
    produce: appends to arbitrary processors, barrier placements at
    arbitrary (acyclic) stream positions, and merge sweeps -- with all
    caches forced live between mutations so the evolve/patch paths, not
    the cold builders, are what is being tested."""

    @pytest.mark.parametrize("seed", range(10))
    def test_views_match_after_random_mutations(self, seed):
        rng = random.Random(seed)
        case = make_case(n_statements=26, n_variables=6, seed=seed)
        n_pes = rng.choice([2, 3, 4])
        sched = Schedule(case.dag, n_pes)
        materialize(sched)

        for node in case.dag.real_nodes:
            sched.append_instruction(rng.randrange(n_pes), node)
            if rng.random() < 0.35:
                pes = [
                    pe for pe in range(n_pes)
                    if len(sched.streams[pe]) > 1 and rng.random() < 0.6
                ]
                placements = {
                    pe: rng.randint(1, len(sched.streams[pe])) for pe in pes
                }
                if placements and not sched.insertion_creates_hb_cycle(
                    placements
                ):
                    sched.insert_barrier(placements)
            if rng.random() < 0.3:
                materialize(sched)
            if rng.random() < 0.15:
                merge_all_overlapping(sched)

        merge_all_overlapping(sched)
        assert_views_match_scratch(sched)

    @pytest.mark.parametrize("seed", range(4))
    def test_mid_sequence_views_match(self, seed):
        """Check equality *during* the sequence, not just at the end."""
        rng = random.Random(1000 + seed)
        case = make_case(n_statements=16, n_variables=5, seed=seed)
        sched = Schedule(case.dag, 3)
        for step, node in enumerate(case.dag.real_nodes):
            materialize(sched)
            sched.append_instruction(rng.randrange(3), node)
            if step % 3 == 2:
                pe = rng.randrange(3)
                placements = {pe: len(sched.streams[pe])}
                if not sched.insertion_creates_hb_cycle(placements):
                    sched.insert_barrier(placements)
            assert_views_match_scratch(sched)


def assert_makespan_matches_scratch(sched: Schedule) -> None:
    """``makespan``/``completion``/``completion_hi`` read the tail tables;
    each must equal the per-PE walk over the streams against scratch
    fire times."""
    fire = sched._scratch_barrier_dag().fire_times()
    scratch = [sched._scratch_completion(pe, fire) for pe in range(sched.n_pes)]
    assert [sched.completion(pe) for pe in range(sched.n_pes)] == scratch
    assert [sched.completion_hi(pe) for pe in range(sched.n_pes)] == [
        c.hi for c in scratch
    ]
    assert sched.makespan() == interval_max(scratch)


#: (machine, insertion, merge_barriers, barrier_latency, n_pes)
MAKESPAN_CONFIGS = [
    ("sbm", "conservative", None, 0, 8),
    ("sbm", "optimal", None, 2, 8),
    ("sbm", "conservative", False, 0, 8),
    ("dbm", "conservative", None, 0, 8),
    ("dbm", "optimal", True, 3, 8),
    ("sbm", "conservative", None, 2, 1),
    ("dbm", "optimal", None, 0, 1),
    ("sbm", "conservative", None, 0, 1024),
    ("sbm", "optimal", False, 2, 1024),
    ("dbm", "conservative", True, 1, 1024),
]


class TestMakespanTables:
    """The makespan is a join over maintained per-PE tail tables, cached
    per revision: after every kind of mutation it must equal the join of
    scratch per-PE completions."""

    @pytest.mark.parametrize(
        "machine,insertion,merge,latency,n_pes", MAKESPAN_CONFIGS
    )
    def test_makespan_exact_after_every_mutation(
        self, monkeypatch, machine, insertion, merge, latency, n_pes
    ):
        monkeypatch.delenv("REPRO_CHECK_INCREMENTAL", raising=False)
        seen: set[str] = set()

        def checked(name):
            orig = getattr(Schedule, name)

            def wrapper(self, *args, **kwargs):
                out = orig(self, *args, **kwargs)
                seen.add(name)
                assert_makespan_matches_scratch(
                    out if isinstance(out, Schedule) else self
                )
                return out

            monkeypatch.setattr(Schedule, name, wrapper)

        for name in (
            "append_instruction", "insert_barrier", "replace_barrier", "with_dag"
        ):
            checked(name)
        merging = machine == "sbm" if merge is None else merge
        # Seed 2 merges while scheduling; seed 1 makes the ε-hardening
        # pass (re-binding to an inflated DAG, then back) insert barriers.
        for seed in (1, 2):
            case = make_case(n_statements=30, n_variables=6, seed=seed)
            cfg = SchedulerConfig(
                n_pes=n_pes, machine=machine, insertion=insertion,
                merge_barriers=merge, barrier_latency=latency, seed=seed,
            )
            result = schedule_dag(case.dag, cfg)
            assert_makespan_matches_scratch(result.schedule)
            report = harden_schedule(
                result.schedule, 0.5, mode=insertion, merge=merging
            )
            assert_makespan_matches_scratch(report.schedule)
        expect = {"append_instruction", "with_dag"}
        if n_pes > 1:
            expect.add("insert_barrier")
            if merging:
                expect.add("replace_barrier")
        assert seen == expect

    def test_makespan_cached_per_revision(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_INCREMENTAL", raising=False)
        calls: list[int] = []
        fire_times = Schedule.fire_times

        def spy(self):
            calls.append(self.revision)
            return fire_times(self)

        monkeypatch.setattr(Schedule, "fire_times", spy)
        case = make_case(n_statements=12, n_variables=4, seed=0)
        nodes = list(case.dag.real_nodes)
        sched = Schedule(case.dag, 4)
        sched.append_instruction(0, nodes[0])
        first = sched.makespan()
        assert len(calls) == 1
        assert sched.makespan() is first
        assert len(calls) == 1  # unchanged revision: no fire-time read
        sched.append_instruction(0, nodes[1])
        second = sched.makespan()
        assert len(calls) == 2 and calls[-1] == sched.revision
        assert second == first + case.dag.latency(nodes[1])
        assert_makespan_matches_scratch(sched)

    def test_cross_check_covers_tail_tables_and_makespan(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INCREMENTAL", "1")
        case = make_case(n_statements=24, n_variables=6, seed=2)
        sched = schedule_dag(case.dag, SchedulerConfig(n_pes=8)).schedule
        walks: list[int] = []
        scratch_completion = Schedule._scratch_completion

        def spy(self, pe, fire):
            walks.append(pe)
            return scratch_completion(self, pe, fire)

        monkeypatch.setattr(Schedule, "_scratch_completion", spy)
        clone = sched.with_dag(case.dag)  # fresh, unverified caches
        with collect_metrics() as m:
            clone.makespan()
        assert walks == list(range(8))  # the makespan was cross-checked
        assert m.counter("views.check.mismatches") == 0
        with_makespan = m.counter("views.check.checked")
        clone._makespan_rev = -1
        with collect_metrics() as m:
            clone._verify_incremental()
        assert m.counter("views.check.checked") == with_makespan - 1
        clone.makespan()

        clone._makespan = Interval(0, 0)
        with collect_metrics() as m, pytest.raises(AssertionError, match="makespan"):
            clone._verify_incremental()
        assert m.counter("views.check.mismatches") == 1
        for table in ("_tail_lo", "_tail_hi", "_last_bid"):
            broken = sched.with_dag(case.dag)
            getattr(broken, table)[3] += 1
            with pytest.raises(AssertionError, match="tail tables"):
                broken._verify_incremental()


class TestDigestParity:
    def test_corpus_digest_unchanged(self):
        """End-to-end: the 100-block corpus produces bit-identical
        resolutions, merges, stats, and list orders to the
        pre-optimization codebase."""
        point = ExperimentPoint(
            generator=GeneratorConfig(n_statements=20, n_variables=8),
            scheduler=SchedulerConfig(n_pes=8),
            count=100,
            master_seed=0,
        )
        results = run_corpus(point, jobs=1)
        assert results_digest(results) == PRE_OPTIMIZATION_DIGEST
