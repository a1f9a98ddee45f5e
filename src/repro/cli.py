"""Command-line interface: ``python -m repro`` / ``repro-sbm``.

Subcommands mirror the pipeline stages:

``generate``    emit a random synthetic basic block (mini-language source)
``compile``     compile source (file or stdin) and print tuples + DAG
``schedule``    schedule source onto a barrier MIMD; print streams,
                embedding, barrier dag, sync fractions, quality report
``simulate``    schedule then execute under a duration sampler; print the
                trace and a Gantt chart
``explain``     schedule, then report the provenance of every decision:
                node->PE assignment rules, the producer/consumer edge
                whose failed timing proof forced each barrier, and every
                merge accept/reject with its reason
``flow``        schedule a structured program (if/while extension) and
                execute it dynamically with verified timing
``faults``      fault-injection campaign: races, blame, ε-hardening
``experiment``  run one of the paper's experiments (fig14..fig18,
                table1, ranges, merging, ablations, robustness, ...)
``perf``        run the standard perf workload and emit a BENCH_*.json
                trajectory record (see docs/performance.md); appends an
                entry to the perf-trajectory series by default
``diff``        compare two run records (``--record FILE``) and localize
                the first divergence: assignment -> ordering -> barrier
                set -> fire times -> metrics, with provenance-backed
                explanations of the diverging decision
``watch``       perf-trajectory watchdog: judge the latest ``perf``
                entry against the prior series; exit 1 on a flagged
                regression (the CI perf-smoke gate)

Examples::

    repro-sbm generate --statements 20 --variables 8 --seed 7
    repro-sbm generate -s 30 | repro-sbm schedule --pes 8
    repro-sbm simulate --pes 4 --runs 3 examples/block.src
    repro-sbm simulate --trace out.json examples/block.src   # Perfetto
    repro-sbm simulate --timeline machine.json examples/block.src
    repro-sbm explain --pes 8 --runtime examples/block.src
    repro-sbm schedule --merge on --record a.json examples/block.src
    repro-sbm schedule --merge off --record b.json examples/block.src
    repro-sbm diff a.json b.json
    repro-sbm watch --output watch_report.md
    repro-sbm faults --epsilon 0.25 --runs 50 --seed 7
    repro-sbm experiment fig15 --count 30 --jobs 4
    repro-sbm perf --count 25 --jobs 0 --output BENCH_perf.json
    repro-sbm perf --live --profile perf.folded   # status line + flamegraph
    repro-sbm watch --explain                     # name the regressed series

Global (pre-subcommand) flags: ``-v/--verbose`` raises diagnostic
verbosity (repeat for debug), ``-q/--quiet`` shows errors only.
``--trace FILE`` on ``schedule``/``simulate``/``explain``/``perf``
writes a span trace (Chrome trace JSON, or JSONL for a ``.jsonl``
suffix) of the run; ``--profile FILE`` on the same subcommands plus
``experiment`` writes folded flamegraph stacks and collects the
per-kernel/memory/GC resource profile; ``perf --live [FILE]`` streams
progress heartbeats (TTY status line, or JSONL); ``watch --explain``
attributes a flagged regression to the stages/kernels that slowed
down.  See docs/observability.md.

Bad inputs (missing files, malformed source, out-of-range parameters)
exit with status 2 and a one-line diagnostic, never a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, nullcontext

from repro.core.scheduler import SchedulerConfig, schedule_dag
from repro.ir import compile_source, generate_tuples, optimize, parse_block
from repro.ir.dag import InstructionDAG
from repro.machine.durations import BimodalSampler, MaxSampler, MinSampler, UniformSampler
from repro.machine.program import MachineProgram
from repro.machine.dbm import simulate_dbm
from repro.machine.sbm import simulate_sbm
from repro.obs.logging import configure as _configure_logging, get_logger
from repro.perf import DEFAULT_TRAJECTORY
from repro.perf.timers import stage
from repro.synth.generator import GeneratorConfig, generate_block
from repro.viz.embedding import render_barrier_dag, render_embedding
from repro.viz.gantt import render_gantt

__all__ = ["main"]

_LOG = get_logger("cli")

#: ``experiment`` name -> runner, called with the :mod:`repro.experiments`
#: package (imported only when an experiment runs) and the parsed args.
_EXPERIMENTS = {
    "table1": lambda ex, args: ex.table1_instruction_mix(),
    "fig14": lambda ex, args: ex.figure14_scatter(count=args.count),
    "fig15": lambda ex, args: ex.figure15_statements(count=args.count),
    "fig16": lambda ex, args: ex.figure16_variables(count=args.count),
    "fig17": lambda ex, args: ex.figure17_processors(count=args.count),
    "fig18": lambda ex, args: ex.figure18_vliw(count=args.count),
    "ranges": lambda ex, args: ex.overall_ranges(
        count_per_point=max(4, args.count // 4)
    ),
    "merging": lambda ex, args: ex.merging_experiment(count=args.count),
    "roundrobin": lambda ex, args: ex.ablation_round_robin(count=args.count),
    "ordering": lambda ex, args: ex.ablation_ordering(count=args.count),
    "lookahead": lambda ex, args: ex.ablation_lookahead(count=args.count),
    "timing": lambda ex, args: ex.ablation_timing_variation(count=args.count),
    "secondary": lambda ex, args: ex.secondary_effect(count=args.count),
    "optimal": lambda ex, args: ex.optimal_vs_conservative(count=args.count),
    "barriercost": lambda ex, args: ex.barrier_cost_experiment(count=args.count),
    "flowoverhead": lambda ex, args: ex.flow_overhead_experiment(count=args.count),
    "kernels": lambda ex, args: ex.kernel_suite_experiment(
        synthetic_count=args.count
    ),
    "syncelim": lambda ex, args: ex.sync_elimination_experiment(count=args.count),
    "robustness": lambda ex, args: ex.robustness_experiment(
        count=max(4, args.count // 4)
    ),
    "hybrid": lambda ex, args: ex.hybrid_experiment(
        count=max(4, args.count // 4), jobs=None
    ),
}

_SAMPLERS = {
    "uniform": UniformSampler,
    "min": MinSampler,
    "max": MaxSampler,
    "bimodal": BimodalSampler,
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sbm",
        description="Static scheduling for barrier MIMD architectures "
        "(Zaafrani, Dietz, O'Keefe 1990) -- reproduction toolkit",
    )
    # Global verbosity flags live on the top-level parser (before the
    # subcommand).  The quiet flag uses its own dest: several subcommands
    # define a -q of their own ("fractions only") and must not clobber it.
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more diagnostics on stderr (repeat for debug)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        dest="log_quiet",
        action="store_true",
        help="errors only on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a random synthetic basic block")
    gen.add_argument("--statements", "-s", type=int, default=20)
    gen.add_argument("--variables", "-v", type=int, default=8)
    gen.add_argument("--constants", "-c", type=int, default=4)
    gen.add_argument("--seed", type=int, default=0)

    comp = sub.add_parser("compile", help="compile source to tuples and a DAG")
    comp.add_argument("source", nargs="?", help="source file (default: stdin)")
    comp.add_argument("--no-optimize", action="store_true")

    sched = sub.add_parser("schedule", help="schedule a basic block")
    _add_schedule_args(sched)

    sim = sub.add_parser("simulate", help="schedule and execute a basic block")
    _add_schedule_args(sim)
    sim.add_argument("--runs", type=int, default=1)
    sim.add_argument("--sampler", choices=sorted(_SAMPLERS), default="uniform")
    sim.add_argument("--sim-seed", type=int, default=0)
    sim.add_argument(
        "--timeline",
        metavar="FILE",
        default=None,
        help="write run 0 as a per-PE machine timeline with barrier flow "
        "events (Perfetto-loadable Chrome trace JSON)",
    )

    expl = sub.add_parser(
        "explain",
        help="schedule a block and report the provenance of every decision",
    )
    _add_schedule_args(expl)
    expl.add_argument(
        "--json",
        action="store_true",
        help="emit the report as machine-readable JSON instead of text",
    )
    expl.add_argument(
        "--runtime",
        action="store_true",
        help="also simulate one run and cross-link the executed critical "
        "path to the decisions that placed its barriers",
    )

    flow = sub.add_parser(
        "flow", help="schedule and run a structured (if/while) program"
    )
    flow.add_argument("source", nargs="?", help="source file (default: stdin)")
    flow.add_argument("--pes", "-p", type=_positive_int, default=4)
    flow.add_argument("--machine", choices=("sbm", "dbm"), default="sbm")
    flow.add_argument("--seed", type=int, default=0)
    flow.add_argument(
        "--input",
        "-i",
        action="append",
        default=[],
        metavar="VAR=INT",
        help="initial variable binding (repeatable)",
    )
    flow.add_argument("--runs", type=int, default=1)

    flt = sub.add_parser(
        "faults",
        help="fault-injection campaign: detect races, blame edges, ε-harden",
    )
    flt.add_argument(
        "source",
        nargs="?",
        help="source file (default: stdin if piped, else a generated block)",
    )
    flt.add_argument("--pes", "-p", type=_positive_int, default=4)
    flt.add_argument("--machine", choices=("sbm", "dbm"), default="sbm")
    flt.add_argument(
        "--insertion", choices=("conservative", "optimal"), default="conservative"
    )
    flt.add_argument("--seed", type=int, default=0)
    flt.add_argument("--no-optimize", action="store_true")
    flt.add_argument(
        "--statements",
        "-s",
        type=_positive_int,
        default=30,
        help="size of the auto-generated block when no source is given",
    )
    flt.add_argument(
        "--epsilon",
        type=float,
        default=0.25,
        help="multiplicative latency overrun budget (fraction of max latency)",
    )
    flt.add_argument("--runs", type=_positive_int, default=50)
    flt.add_argument(
        "--p-overrun", type=float, default=1.0, help="per-instruction overrun probability"
    )
    flt.add_argument("--spike-prob", type=float, default=0.0)
    flt.add_argument(
        "--spike", type=_nonnegative_int, default=0, help="max additive interrupt spike"
    )
    flt.add_argument(
        "--stragglers",
        default="",
        metavar="PE[,PE...]",
        help="processors whose overrun budget is multiplied by --straggler-factor",
    )
    flt.add_argument("--straggler-factor", type=float, default=2.0)
    flt.add_argument(
        "--jitter", type=_nonnegative_int, default=0, help="max barrier-release jitter"
    )
    flt.add_argument(
        "--spike-window",
        action="append",
        default=[],
        metavar="LO:HI",
        help="restrict interrupt spikes to the machine-time window "
        "[LO, HI); repeatable, windows must not overlap",
    )
    flt.add_argument(
        "--no-harden", action="store_true", help="skip the ε-hardening pass"
    )
    flt.add_argument(
        "--no-directed", action="store_true", help="random runs only, no witnesses"
    )
    flt.add_argument(
        "--mode",
        choices=("static", "hybrid"),
        default="static",
        help="hybrid also campaigns the schedule with fragile timing "
        "edges demoted to runtime data guards",
    )
    flt.add_argument(
        "--hybrid-epsilon",
        type=float,
        default=None,
        metavar="EPS",
        help="fragility budget for --mode hybrid (default: the fault "
        "plan's own worst-case stretch)",
    )
    _add_perf_args(flt)

    dot = sub.add_parser(
        "dot", help="emit Graphviz DOT for a block's DAG and barrier dag"
    )
    dot.add_argument("source", nargs="?", help="source file (default: stdin)")
    dot.add_argument("--pes", "-p", type=_positive_int, default=8)
    dot.add_argument("--seed", type=int, default=0)
    dot.add_argument(
        "--what",
        choices=("dag", "barriers", "both"),
        default="both",
        help="which graph(s) to emit",
    )

    arch = sub.add_parser(
        "archive", help="schedule a corpus and write per-benchmark JSONL records"
    )
    arch.add_argument("output", help="JSONL file to write")
    arch.add_argument("--statements", "-s", type=int, default=60)
    arch.add_argument("--variables", "-v", type=int, default=10)
    arch.add_argument("--pes", "-p", type=_positive_int, default=8)
    arch.add_argument("--count", type=int, default=100)
    arch.add_argument("--seed", type=int, default=0)

    exp = sub.add_parser("experiment", help="run one of the paper's experiments")
    exp.add_argument("name", choices=sorted(_EXPERIMENTS))
    exp.add_argument("--count", type=int, default=50, help="benchmarks per point")
    _add_perf_args(exp)
    exp.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every point instead of reusing the on-disk sweep cache",
    )
    _add_profile_arg(exp)

    perf = sub.add_parser(
        "perf",
        help="run the standard perf workload; emit a BENCH_*.json record",
    )
    perf.add_argument(
        "--count",
        type=_positive_int,
        default=None,
        help="benchmarks per sweep point (default: the preset's standard "
        "count, e.g. 25 for default, 100 for paper3500)",
    )
    perf.add_argument(
        "--preset",
        choices=("default", "paper3500", "scale1024"),
        default="default",
        help="workload preset: 'paper3500' runs the paper-scale 35-point "
        "evaluation (3500 benchmarks at the default count), 'scale1024' "
        "the 1024-PE stress sweep",
    )
    perf.add_argument("--seed", type=int, default=0)
    perf.add_argument(
        "--output",
        "-o",
        default="BENCH_perf.json",
        help="report path ('-' prints the JSON to stdout only)",
    )
    perf.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a span trace of the run (Chrome trace JSON; "
        "'.jsonl' suffix selects JSONL)",
    )
    _add_profile_arg(perf)
    perf.add_argument(
        "--live",
        metavar="FILE",
        nargs="?",
        const="",
        default=None,
        help="stream progress heartbeats during the run: with no FILE, "
        "a status line on stderr (JSONL heartbeats when stderr is not "
        "a terminal); with FILE, machine-readable JSONL to that file",
    )
    perf.add_argument(
        "--trajectory",
        metavar="FILE",
        default=None,
        help="trajectory series to append the run to "
        f"(default: {DEFAULT_TRAJECTORY})",
    )
    perf.add_argument(
        "--no-trajectory",
        action="store_true",
        help="do not append this run to the trajectory series",
    )
    perf.add_argument(
        "--label",
        default="",
        help="label stored in the appended trajectory entry",
    )
    _add_perf_args(perf)

    dif = sub.add_parser(
        "diff",
        help="compare two run records and localize the first divergence",
    )
    dif.add_argument("record_a", help="run record written by --record")
    dif.add_argument("record_b", help="run record written by --record")
    dif.add_argument(
        "--json",
        action="store_true",
        help="emit the diff as machine-readable JSON instead of text",
    )

    wat = sub.add_parser(
        "watch",
        help="perf-trajectory watchdog: flag regressions across the series",
    )
    wat.add_argument(
        "--trajectory",
        metavar="FILE",
        default=str(DEFAULT_TRAJECTORY),
        help="trajectory series to judge (JSONL, one entry per perf run)",
    )
    wat.add_argument(
        "--output",
        "-o",
        metavar="FILE",
        default=None,
        help="also write the report as markdown (the CI artifact)",
    )
    wat.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="latest wall/stage time may be at most FACTOR x the median "
        "of prior entries (plus an absolute noise floor)",
    )
    wat.add_argument(
        "--json",
        action="store_true",
        help="emit the verdicts as machine-readable JSON instead of text",
    )
    wat.add_argument(
        "--explain",
        action="store_true",
        help="diff the latest entry's stage/kernel profiles against the "
        "prior same-workload runs and name the top regressed series",
    )

    return parser


def _add_profile_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--profile",
        metavar="FILE",
        default=None,
        help="write folded flamegraph stacks of the run (speedscope/"
        "flamegraph.pl input) and collect per-kernel/memory/GC "
        "accounting",
    )


def _add_perf_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs",
        "-j",
        type=_nonnegative_int,
        default=None,
        help="worker processes for corpus points (0 = all cores; "
        "default: the REPRO_JOBS environment variable, else serial)",
    )
    p.add_argument(
        "--backend",
        choices=("python", "numpy", "auto"),
        default=None,
        help="scheduling-kernel backend (default: the REPRO_BACKEND "
        "environment variable, else auto)",
    )


def _add_schedule_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("source", nargs="?", help="source file (default: stdin)")
    p.add_argument("--pes", "-p", type=_positive_int, default=8)
    p.add_argument("--machine", choices=("sbm", "dbm"), default="sbm")
    p.add_argument("--insertion", choices=("conservative", "optimal"), default="conservative")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-optimize", action="store_true")
    p.add_argument(
        "--mode",
        choices=("static", "hybrid"),
        default="static",
        help="hybrid demotes fragile timing edges (slack margin below "
        "--hybrid-epsilon) to runtime data guards instead of trusting "
        "the static proof",
    )
    p.add_argument(
        "--hybrid-epsilon",
        type=float,
        default=0.25,
        metavar="EPS",
        help="fragility budget for --mode hybrid: timing edges whose "
        "relative slack margin is below EPS are guarded",
    )
    p.add_argument(
        "--merge",
        choices=("auto", "on", "off"),
        default="auto",
        help="barrier merging (auto = the machine's default: on for SBM, "
        "off for DBM)",
    )
    p.add_argument("--quiet", "-q", action="store_true", help="fractions only")
    p.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a span trace of the run (Chrome trace JSON; "
        "'.jsonl' suffix selects JSONL)",
    )
    _add_profile_arg(p)
    p.add_argument(
        "--record",
        metavar="FILE",
        default=None,
        help="write a versioned run record (JSON) for `repro-sbm diff`",
    )
    p.add_argument(
        "--label",
        default="",
        help="label stored in the run record (default: the source path)",
    )


def _read_source(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_generate(args) -> int:
    config = GeneratorConfig(
        n_statements=args.statements,
        n_variables=args.variables,
        n_constants=args.constants,
    )
    block = generate_block(config, args.seed)
    print(block.source())
    return 0


def _cmd_compile(args) -> int:
    block = parse_block(_read_source(args.source))
    program = generate_tuples(block)
    print("== raw tuples ==")
    print(program.render())
    if not args.no_optimize:
        program = optimize(program)
        print("\n== optimized tuples ==")
        print(program.render())
    dag = InstructionDAG.from_program(program)
    print("\n== instruction DAG ==")
    print(dag.render())
    print(
        f"\n{len(program)} instructions, {dag.implied_synchronizations} implied "
        f"synchronizations, critical path {dag.critical_path()}"
    )
    return 0


def _schedule_from_args(args):
    # Stage wraps so a --trace of schedule/simulate covers the full
    # pipeline, not just the stages schedule_dag opens internally.
    with stage("generate"):
        dag = compile_source(
            _read_source(args.source), run_optimizer=not args.no_optimize
        )
    config = SchedulerConfig(
        n_pes=args.pes,
        machine=args.machine,
        insertion=args.insertion,
        seed=args.seed,
        merge_barriers={"auto": None, "on": True, "off": False}[args.merge],
        mode=args.mode,
        hybrid_epsilon=args.hybrid_epsilon if args.mode == "hybrid" else 0.0,
    )
    with stage("schedule"):
        result = schedule_dag(dag, config)
    return dag, result


def _record_label(args) -> str:
    return args.label or args.source or "stdin"


def _provenance_scope(args):
    """A provenance recorder when ``--record`` asks for one, else None.

    Records carry the scheduler's decision provenance so ``diff`` can
    name the diverging decision; without ``--record`` the scheduling
    runs unobserved, exactly as before.
    """
    if getattr(args, "record", None):
        from repro.obs.provenance import collect_provenance

        return collect_provenance()
    return nullcontext(None)


def _write_record(args, result, recorder, trace=None, analysis=None) -> None:
    from repro.obs.diff import run_record, write_run_record

    record = run_record(
        result,
        provenance=recorder,
        trace=trace,
        analysis=analysis,
        label=_record_label(args),
    )
    write_run_record(record, args.record)
    print(f"wrote run record {args.record}")


def _cmd_schedule(args) -> int:
    from repro.analysis import analyze_schedule

    with _provenance_scope(args) as recorder:
        _, result = _schedule_from_args(args)
    if not args.quiet:
        print("== barrier embedding ==")
        print(render_embedding(result.schedule))
        print("\n== barrier dag ==")
        print(render_barrier_dag(result.schedule))
        print()
    print(result.describe())
    print(analyze_schedule(result).render())
    if result.hybrid is not None:
        print()
        print("== hybrid demotion plan ==")
        print(result.hybrid.render())
    if args.record:
        _write_record(args, result, recorder)
    return 0


def _cmd_flow(args) -> int:
    from repro.flow import execute_flow_schedule, parse_program, schedule_program

    program = parse_program(_read_source(args.source))
    env: dict[str, int] = {}
    for binding in args.input:
        name, _, value = binding.partition("=")
        if not name or not value.lstrip("-").isdigit():
            raise SystemExit(f"bad --input {binding!r}; expected VAR=INT")
        env[name.strip()] = int(value)
    config = SchedulerConfig(n_pes=args.pes, machine=args.machine, seed=args.seed)
    flow = schedule_program(program, config)
    print(flow.cfg.render())
    print()
    print(flow.describe())
    for run in range(args.runs):
        trace = execute_flow_schedule(flow, env, rng=args.seed + run)
        bound = flow.static_path_bound(trace.block_sequence)
        print(f"\nrun {run}: {trace.describe()}")
        print(f"  path bound {bound}; final state:")
        for name, value in sorted(trace.final_state().items()):
            print(f"    {name} = {value}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.obs.runtime import analyze_trace

    with _provenance_scope(args) as recorder:
        _, result = _schedule_from_args(args)
    guards = result.hybrid.guards if result.hybrid is not None else None
    program = MachineProgram.from_schedule(result.schedule, guards=guards)
    sim = simulate_sbm if args.machine == "sbm" else simulate_dbm
    sampler = _SAMPLERS[args.sampler]()
    first: tuple | None = None  # (trace, analysis) of run 0
    for run in range(args.runs):
        trace = sim(program, sampler, rng=args.sim_seed + run)
        trace.assert_sound(program.edges)
        analysis = analyze_trace(program, trace)
        if first is None:
            first = (trace, analysis)
        if not args.quiet:
            print(f"== run {run} ==")
            print(render_gantt(program, trace))
            print(analysis.render())
            print()
        else:
            print(trace.describe())
    print(result.describe())
    print(f"static makespan bound {result.makespan}")
    if result.hybrid is not None:
        print(result.hybrid.describe())
        if first is not None:
            t = first[0]
            print(
                f"run 0 data-guard waits: {len(t.guard_waits)}"
                f" ({t.guard_saves} recovered)"
            )
    if args.timeline and first is not None:
        from repro.obs.runtime_export import write_machine_trace

        write_machine_trace(program, first[0], args.timeline, first[1])
        print(f"wrote machine timeline {args.timeline}")
    if args.record:
        trace, analysis = first if first is not None else (None, None)
        _write_record(args, result, recorder, trace=trace, analysis=analysis)
    return 0


def _cmd_explain(args) -> int:
    from repro.obs.explain import explain_result
    from repro.obs.provenance import collect_provenance
    from repro.obs.spans import DISABLED

    if DISABLED:
        _LOG.warning(
            "REPRO_OBS_DISABLE is set; no decisions will be recorded"
        )
    with collect_provenance() as recorder:
        _, result = _schedule_from_args(args)
    report = explain_result(result, recorder)
    analysis = None
    if args.runtime:
        from repro.obs.runtime import analyze_trace

        program = MachineProgram.from_schedule(result.schedule)
        sim = simulate_sbm if args.machine == "sbm" else simulate_dbm
        trace = sim(program, rng=args.seed)
        trace.assert_sound(program.edges)
        analysis = analyze_trace(program, trace)
    if args.json:
        import json

        data = report.as_dict()
        if analysis is not None:
            data["runtime"] = analysis.as_dict()
        print(json.dumps(data, indent=1, sort_keys=True))
    else:
        print(report.render())
        if analysis is not None:
            print()
            print(analysis.render())
            for line in _critical_decisions(analysis, recorder):
                print(line)
    if args.record:
        _write_record(args, result, recorder, analysis=analysis)
    return 0


def _critical_decisions(analysis, recorder) -> list[str]:
    """Cross-link executed-critical-path barriers to their provenance."""
    lines = []
    for bid in analysis.critical_barriers():
        decision = recorder.barrier_decision(bid)
        if decision is not None:
            lines.append(
                f"  critical b{bid}: forced by {decision.producer} -> "
                f"{decision.consumer} (slack {decision.slack})"
            )
            continue
        absorbed = [
            m
            for m in recorder.merges
            if m.accepted and m.survivor == bid
        ]
        if absorbed:
            merged = ", ".join(f"b{m.other}" for m in absorbed)
            lines.append(f"  critical b{bid}: merged barrier (absorbed {merged})")
        else:
            lines.append(f"  critical b{bid}: no insertion decision (initial)")
    return lines


def _faults_source(args) -> str:
    """Source for the ``faults`` command: file, piped stdin, or generated."""
    if args.source is not None:
        return _read_source(args.source)
    try:
        if not sys.stdin.isatty():
            text = sys.stdin.read()
            if text.strip():
                return text
    except OSError:  # stdin closed or unreadable: fall back to generation
        pass
    config = GeneratorConfig(n_statements=args.statements)
    return generate_block(config, args.seed).source()


def _parse_stragglers(spec: str, n_pes: int) -> frozenset[int]:
    if not spec.strip():
        return frozenset()
    pes = set()
    for part in spec.split(","):
        part = part.strip()
        if not part.isdigit():
            raise ValueError(f"bad --stragglers entry {part!r}; expected a PE index")
        pe = int(part)
        if pe >= n_pes:
            raise ValueError(f"--stragglers PE {pe} out of range for {n_pes} PEs")
        pes.add(pe)
    return frozenset(pes)


def _parse_spike_windows(specs: list[str]) -> tuple[tuple[int, int], ...]:
    windows = []
    for spec in specs:
        lo, sep, hi = spec.partition(":")
        lo, hi = lo.strip(), hi.strip()
        if not sep or not lo.isdigit() or not hi.isdigit():
            raise ValueError(
                f"bad --spike-window {spec!r}; expected LO:HI "
                "(non-negative integers, LO < HI)"
            )
        windows.append((int(lo), int(hi)))
    return tuple(windows)


def _cmd_faults(args) -> int:
    from repro.faults import (
        FaultPlan,
        harden_schedule,
        robustness_margin,
        run_campaign,
    )

    dag = compile_source(_faults_source(args), run_optimizer=not args.no_optimize)
    config = SchedulerConfig(
        n_pes=args.pes,
        machine=args.machine,
        insertion=args.insertion,
        seed=args.seed,
    )
    result = schedule_dag(dag, config)
    plan = FaultPlan(
        epsilon=args.epsilon,
        p_overrun=args.p_overrun,
        spike_prob=args.spike_prob,
        spike_magnitude=args.spike,
        spike_windows=_parse_spike_windows(args.spike_window),
        straggler_pes=_parse_stragglers(args.stragglers, args.pes),
        straggler_factor=args.straggler_factor,
        barrier_jitter=args.jitter,
    )

    print(result.describe())
    print()
    print("== static robustness margin ==")
    print(robustness_margin(result.schedule, args.insertion).render())
    print()
    print("== fault campaign (as scheduled) ==")
    report = run_campaign(
        result.schedule,
        args.machine,
        plan,
        runs=args.runs,
        seed=args.seed,
        directed=not args.no_directed,
        mode=args.insertion,
        jobs=args.jobs,
    )
    print(report.render())

    if args.mode == "hybrid":
        from repro.hybrid import hybridize_schedule

        budget = (
            args.hybrid_epsilon
            if args.hybrid_epsilon is not None
            else plan.worst_stretch
        )
        hyb = hybridize_schedule(result.schedule, budget, args.insertion)
        print()
        print("== hybrid demotion plan ==")
        print(hyb.render())
        print()
        print("== fault campaign (hybrid) ==")
        hybrid_report = run_campaign(
            result.schedule,
            args.machine,
            plan,
            runs=args.runs,
            seed=args.seed,
            directed=not args.no_directed,
            mode=args.insertion,
            hybrid=hyb,
            jobs=args.jobs,
        )
        print(hybrid_report.render())

    if args.no_harden or plan.is_null:
        return 0

    print()
    print("== epsilon-hardening ==")
    hardened = harden_schedule(
        result.schedule,
        plan=plan,
        mode=args.insertion,
        merge=args.machine == "sbm",
    )
    print(hardened.render())
    print()
    print("== fault campaign (hardened) ==")
    hardened_report = run_campaign(
        hardened.schedule,
        args.machine,
        plan,
        runs=args.runs,
        seed=args.seed,
        directed=not args.no_directed,
        mode=args.insertion,
        jobs=args.jobs,
    )
    print(hardened_report.render())
    if not hardened_report.race_free and not plan.barrier_jitter:
        # Duration-only plans are provably covered by hardening; a race
        # here is a bug in the toolchain, not in the user's input.
        _LOG.error("hardening failed to eliminate races -- this is a bug")
        return 1
    return 0


def _cmd_dot(args) -> int:
    from repro.viz.dot import barrier_dag_to_dot, instruction_dag_to_dot

    dag = compile_source(_read_source(args.source))
    if args.what in ("dag", "both"):
        print(instruction_dag_to_dot(dag))
    if args.what in ("barriers", "both"):
        result = schedule_dag(dag, SchedulerConfig(n_pes=args.pes, seed=args.seed))
        print(barrier_dag_to_dot(result.schedule))
    return 0


def _cmd_archive(args) -> int:
    from repro.experiments.archive import archive_corpus, stats_from_archive
    from repro.experiments.sweeps import ExperimentPoint

    point = ExperimentPoint(
        generator=GeneratorConfig(
            n_statements=args.statements, n_variables=args.variables
        ),
        scheduler=SchedulerConfig(n_pes=args.pes),
        count=args.count,
        master_seed=args.seed,
    )
    written = archive_corpus(point, args.output)
    print(f"wrote {written} records to {args.output}")
    print(stats_from_archive(args.output).render())
    return 0


@contextmanager
def _perf_env(args, cache: bool | None = None):
    """Scope the REPRO_JOBS / REPRO_BACKEND / REPRO_CACHE knobs to one
    command.

    The experiment functions reach run_point/sweep several layers down;
    the jobs/cache choices travel via the environment variables those
    helpers already resolve.  Scoping (rather than plain assignment)
    keeps in-process callers of :func:`main` -- the test suite -- from
    leaking configuration between invocations.
    """
    overrides: dict[str, str] = {}
    if args.jobs is not None:
        overrides["REPRO_JOBS"] = str(args.jobs)
    if getattr(args, "backend", None) is not None:
        overrides["REPRO_BACKEND"] = args.backend
    if cache is not None:
        overrides["REPRO_CACHE"] = "1" if cache else "0"
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _cmd_experiment(args) -> int:
    import repro.experiments

    with _perf_env(args, cache=not args.no_cache):
        result = _EXPERIMENTS[args.name](repro.experiments, args)
    print(result.render())
    return 0


@contextmanager
def _live_progress(args):
    """Scope the ``perf --live`` heartbeat stream around a run.

    Bare ``--live`` renders a TTY status line on stderr (falling back
    to JSONL heartbeats with a warning when stderr is not a terminal);
    ``--live FILE`` streams machine-readable JSONL to the file.  Bad
    combinations raise for :func:`main`'s exit-2 diagnostic."""
    live = getattr(args, "live", None)
    if live is None:
        yield
        return
    from repro.obs.progress import (
        JSONLSink,
        ProgressMeter,
        TTYStatusSink,
        collect_progress,
    )

    if live == "":
        if args.output == "-":
            raise ValueError(
                "--live without FILE draws a status line and conflicts "
                "with --output - (JSON on stdout); give --live a FILE "
                "for a machine-readable stream"
            )
        if sys.stderr.isatty():
            sink = TTYStatusSink(sys.stderr)
        else:
            _LOG.warning(
                "--live: stderr is not a terminal; falling back to "
                "JSONL heartbeats"
            )
            sink = JSONLSink(sys.stderr)
    else:
        _preflight_output(live, "--live stream")
        sink = JSONLSink(
            open(live, "w", encoding="utf-8"), owns_stream=True
        )
    meter = ProgressMeter(sink.emit)
    try:
        with collect_progress(meter):
            yield
        meter.finish()
    finally:
        sink.close()


def _cmd_perf(args) -> int:
    from repro.perf.report import run_perf_report

    with _perf_env(args), _live_progress(args):
        report = run_perf_report(
            count=args.count, master_seed=args.seed, preset=args.preset
        )
    print(report.render())
    if args.output and args.output != "-":
        path = report.write(args.output)
        print(f"wrote {path}")
    else:
        import json

        print(json.dumps(report.data, indent=1, sort_keys=True))
    if not args.no_trajectory:
        from repro.perf.report import append_trajectory

        path = append_trajectory(
            report.data,
            args.trajectory or DEFAULT_TRAJECTORY,
            label=args.label,
        )
        print(f"appended trajectory entry to {path}")
    return 0


def _cmd_diff(args) -> int:
    from repro.obs.diff import diff_runs, load_run_record

    diff = diff_runs(
        load_run_record(args.record_a), load_run_record(args.record_b)
    )
    if args.json:
        import json

        print(json.dumps(diff.as_dict(), indent=1, sort_keys=True))
    else:
        print(diff.render())
    return 0 if diff.identical else 1


def _cmd_watch(args) -> int:
    from repro.obs.watch import (
        WatchConfig,
        explain_regression,
        load_trajectory,
        watch_trajectory,
    )

    entries = load_trajectory(args.trajectory)
    report = watch_trajectory(entries, WatchConfig(factor=args.factor))
    explain = explain_regression(entries) if args.explain else None
    if args.json:
        import json

        data = report.as_dict()
        if explain is not None:
            data["explain"] = explain.as_dict()
        print(json.dumps(data, indent=1, sort_keys=True))
    else:
        print(report.render())
        if explain is not None:
            print(explain.render())
    if args.output:
        markdown = report.render_markdown()
        if explain is not None:
            markdown = markdown.rstrip("\n") + "\n\n" + explain.render_markdown()
        with open(args.output, "w", encoding="utf-8") as fp:
            fp.write(markdown)
        print(f"wrote {args.output}")
    return 0 if report.ok else 1


def _preflight_output(path: str, what: str) -> None:
    """Fail *before* the run when an output path cannot be written.

    Without this, a misspelled ``--trace``/``--profile`` directory
    surfaces only after minutes of corpus work.  The check raises
    ``OSError`` for :func:`main`'s one-line exit-2 diagnostic path.
    """
    parent = os.path.dirname(os.path.abspath(path)) or "."
    if not os.path.isdir(parent):
        raise OSError(
            f"cannot write {what} {path!r}: {parent!r} is not a directory"
        )
    if os.path.isdir(path):
        raise OSError(f"cannot write {what} {path!r}: is a directory")
    probe = path if os.path.exists(path) else parent
    if not os.access(probe, os.W_OK):
        raise OSError(f"cannot write {what} {path!r}: permission denied")


def _run_observed(args, run) -> int:
    """Run a handler under the observation outputs its flags request.

    ``--trace FILE`` writes a span trace; ``--profile FILE`` writes
    folded flamegraph stacks and collects the per-kernel/memory/GC
    resource profile.  Both share ONE tracer -- collectors nest
    innermost-wins, so stacking a second ``collect_trace`` would starve
    the outer one.  Output paths are preflighted (bad paths exit 2
    before any work); the files are written only on success, a failing
    run keeps the plain error path."""
    trace_path = getattr(args, "trace", None)
    profile_path = getattr(args, "profile", None)
    if not trace_path and not profile_path:
        return run(args)
    from repro.obs.prof import collect_profile, write_folded
    from repro.obs.spans import DISABLED, collect_trace

    if DISABLED:
        _LOG.warning(
            "REPRO_OBS_DISABLE is set; trace/profile outputs will be empty"
        )
    if trace_path:
        _preflight_output(trace_path, "trace")
    if profile_path:
        _preflight_output(profile_path, "profile")
    profiling = collect_profile() if profile_path else nullcontext(None)
    with collect_trace() as tracer, profiling as prof:
        status = run(args)
    if trace_path:
        from repro.obs.export import write_trace

        write_trace(tracer, trace_path)
        _LOG.info(
            "wrote trace to %s (%d spans, %d events)",
            trace_path,
            len(tracer.spans),
            len(tracer.events),
        )
    if profile_path:
        write_folded(tracer, profile_path)
        _LOG.info(
            "wrote folded stacks to %s (%d spans)",
            profile_path,
            len(tracer.spans),
        )
        # ``perf`` prints its own profile block from the report; for the
        # other subcommands the collected accounting surfaces here.
        if prof is not None and args.command != "perf" and (
            prof.kernels or prof.stage_rss or prof.bytes
        ):
            print(prof.render(), file=sys.stderr)
    return status


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _configure_logging(-1 if args.log_quiet else args.verbose)
    handlers = {
        "generate": _cmd_generate,
        "compile": _cmd_compile,
        "schedule": _cmd_schedule,
        "simulate": _cmd_simulate,
        "explain": _cmd_explain,
        "flow": _cmd_flow,
        "faults": _cmd_faults,
        "dot": _cmd_dot,
        "archive": _cmd_archive,
        "experiment": _cmd_experiment,
        "perf": _cmd_perf,
        "diff": _cmd_diff,
        "watch": _cmd_watch,
    }
    try:
        return _run_observed(args, handlers[args.command])
    except (OSError, ValueError) as exc:
        # Covers missing/unreadable source files, ParseError/CycleError
        # (both ValueError subclasses), and domain validation errors --
        # a one-line diagnostic instead of a traceback, exit status 2.
        print(f"repro-sbm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
