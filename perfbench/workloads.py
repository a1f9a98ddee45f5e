"""The benchmark's three workloads: set-up, timed runs and traced runs.

Every workload draws its inputs from the ``--seed`` argument only and
drives ``repro`` through its public library functions or its CLI.  The
library is imported inside :func:`setup` (never at module import), so a
set-up probe process measures the imports it pays.

``paper_sweep``
    Every leg of the ``paper3500`` preset, serially, ``SWEEP_COUNT``
    cases per point (below the default batch of 100, so the batched
    generator over-draws), each schedule executed once and checked.
``wide1024``
    1024-PE SBM at 40, 60 and 80 statements, one full batch per point,
    through the 2-worker zero-copy path (``repro.perf.shm``) that
    ``experiment --jobs 2`` uses.
``cli_cold``
    One fresh ``repro-sbm`` process at a time, cycling ``generate``,
    ``schedule`` and ``simulate`` over a pool of single blocks.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe.py"
WORK = ROOT / ".bench_work"

#: Cases per ``paper_sweep`` point: the CI smoke size, under one batch.
SWEEP_COUNT = 20
#: Cases per ``wide1024`` point: exactly one full batch.
WIDE_COUNT = 100
WIDE_STATEMENTS = (40, 60, 80)
WIDE_JOBS = 2
#: Corpus passes per timed run, however slow the host: the first fills
#: caches, the rest are timed.
MIN_PASSES = 3
#: Blocks in the ``cli_cold`` input pool; the quality metrics average
#: over all of them, so the pool is large enough to be steady by seed.
CLI_POOL = 800
CLI_PES = 8
CLI_SUBCOMMANDS = ("generate", "schedule", "simulate")
#: Invocations per subcommand in a traced ``cli_cold`` run.
CLI_TRACED_ROUNDS = 2
#: Fresh-process samples per import probe in a traced run.
PROBE_REPEATS = 3

#: Environment variables that would change or skip the workload.
HERMETIC_VARS = (
    "REPRO_JOBS",
    "REPRO_BATCH",
    "REPRO_BACKEND",
    "REPRO_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_CHECK_INCREMENTAL",
    "REPRO_CHECK_KERNELS",
    "REPRO_OBS_DISABLE",
    "REPRO_BENCH_COUNT",
)

KERNELS = ("descbits", "splice", "paths", "domin", "merge", "assign", "genvec", "batch")

WORKLOADS = ("paper_sweep", "wide1024", "cli_cold")


def child_env() -> dict[str, str]:
    """The environment of every child process: hermetic, ``src`` first."""
    env = {k: v for k, v in os.environ.items() if k not in HERMETIC_VARS}
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


@dataclass
class Outcome:
    """Attempted/failed tallies and the failure messages of one run."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def crash(self, n: int, what: str, exc: BaseException) -> None:
        """Count ``n`` failed cases lost to ``exc``, noting where it rose."""
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        self.fail(n, f"{what}: {exc!r} at {Path(frame.filename).name}:{frame.lineno}")

    def fail(self, n: int, note: str) -> None:
        self.failed += n
        if len(self.notes) < 20:
            self.notes.append(note)

    def recheck(self, other: "Outcome") -> None:
        """Add failures found by re-checking cases already attempted."""
        self.failed += other.failed
        self.notes.extend(other.notes[: 20 - len(self.notes)])


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Env:
    """What :func:`setup` imported and prepared."""

    workload: str
    seed: int
    lib: dict
    points: list = field(default_factory=list)
    pool: list = field(default_factory=list)
    workdir: Path | None = None
    #: In-process schedules of the ``cli_cold`` pool, built on first use.
    reference: list | None = None

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _import_library() -> dict:
    from repro import kernels
    from repro.core import scheduler
    from repro.experiments import sweeps
    from repro.machine import dbm, program, sbm
    from repro.metrics import stats
    from repro.perf import parallel, report
    from repro.synth import generator
    import repro.ir as ir

    return {
        "kernels": kernels,
        "scheduler": scheduler,
        "sweeps": sweeps,
        "dbm": dbm,
        "program": program,
        "sbm": sbm,
        "stats": stats,
        "parallel": parallel,
        "report": report,
        "generator": generator,
        "ir": ir,
    }


def sweep_points(lib: dict, seed: int) -> list[tuple[str, object]]:
    """``(label, ExperimentPoint)`` for every ``paper3500`` leg point."""
    sweeps = lib["sweeps"]
    base = sweeps.ExperimentPoint(
        generator=lib["generator"].GeneratorConfig(n_statements=20, n_variables=8),
        scheduler=lib["scheduler"].SchedulerConfig(n_pes=8),
        count=SWEEP_COUNT,
    )
    master_seeds = point_seeds(seed)
    points = []
    for axis, values, overrides in lib["report"].PRESETS["paper3500"]:
        leg = base
        for over_axis, over_value in overrides.items():
            leg = sweeps._set_axis(leg, over_axis, over_value)
        tag = ",".join(f"{k}={v}" for k, v in overrides.items())
        for value in values:
            label = f"{axis}={value}" + (f" [{tag}]" if tag else "")
            point = sweeps._set_axis(leg, axis, value)
            points.append((label, point.with_(master_seed=next(master_seeds))))
    return points


def point_seeds(seed: int):
    """Master seeds for successive sweep points.

    Each point draws its own corpus: with one master seed for every
    point, all points would reuse the same case seeds, and the quality
    means would rest on ``count`` draws instead of every case.
    """
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


def wide_points(lib: dict, seed: int) -> list[tuple[str, object]]:
    sweeps = lib["sweeps"]
    master_seeds = point_seeds(seed)
    return [
        (
            f"n_statements={n} n_pes=1024",
            sweeps.ExperimentPoint(
                generator=lib["generator"].GeneratorConfig(
                    n_statements=n, n_variables=8
                ),
                scheduler=lib["scheduler"].SchedulerConfig(n_pes=1024),
                count=WIDE_COUNT,
                master_seed=next(master_seeds),
            ),
        )
        for n in WIDE_STATEMENTS
    ]


def cli_pool(lib: dict, seed: int) -> list[dict]:
    """The seeded pool of single blocks ``cli_cold`` cycles through."""
    rng = random.Random(seed)
    generator = lib["generator"]
    pool = []
    for index in range(CLI_POOL):
        n = rng.randint(10, 30)
        block_seed = rng.getrandbits(31)
        config = generator.GeneratorConfig(n_statements=n, n_variables=8)
        source = generator.generate_block(config, block_seed).source()
        pool.append(
            {"index": index, "n": n, "seed": block_seed, "source": source + "\n"}
        )
    return pool


def cli_argv(sub: str, block: dict, path: Path) -> list[str]:
    if sub == "generate":
        return ["generate", "-s", str(block["n"]), "-v", "8", "--seed", str(block["seed"])]
    argv = [sub, str(path), "--pes", str(CLI_PES), "--seed", str(block["seed"])]
    if sub == "simulate":
        argv += ["--sim-seed", str(block["seed"])]
    return argv


def cli_invocation(i: int, env: Env) -> tuple[str, dict, list[str]]:
    """The ``i``-th invocation of the cycle: subcommand, block, argv."""
    sub = CLI_SUBCOMMANDS[i % len(CLI_SUBCOMMANDS)]
    block = env.pool[(i // len(CLI_SUBCOMMANDS)) % len(env.pool)]
    path = env.workdir / f"block{block['index']}.src"
    return sub, block, cli_argv(sub, block, path)


def run_child(argv: list[str], workdir: Path) -> tuple[int, str, float, float]:
    """Run one child to completion: exit code, stdout, wall s, max RSS MB."""
    err_path = workdir / "stderr.txt"
    start = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err,
            env=child_env(),
            cwd=ROOT,
        )
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = out.decode("utf-8", "replace")
    if proc.returncode != 0:
        text += err_path.read_text("utf-8", "replace")
    return proc.returncode, text, wall, usage.ru_maxrss / 1024.0


def child_pids() -> list[int]:
    """Live and zombie children of this process, read from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, then the parent pid.
        if int(stat.rsplit(b")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def stop_children() -> None:
    """Stop and reap every process this run started.

    The zero-copy driver's ``SharedMemory`` blocks start the
    ``multiprocessing`` resource tracker, which would otherwise outlive
    the run; it is shut down first so it can clean up, then anything
    still left is killed.  Every child is waited for.
    """
    tracker_mod = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_mod, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *argv]


def setup(workload: str, seed: int) -> Env:
    """Imports, inputs and warm-up: everything before timing starts."""
    lib = _import_library()
    env = Env(workload, seed, lib)
    if workload == "cli_cold":
        WORK.mkdir(exist_ok=True)
        env.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK))
        env.pool = cli_pool(lib, seed)
        for block in env.pool:
            (env.workdir / f"block{block['index']}.src").write_text(block["source"])
        # Warm-up (bytecode and page caches): every subcommand loads the
        # same modules, so one invocation covers them all.
        run_child(cli_command(cli_invocation(0, env)[2]), env.workdir)
        return env
    env.points = (sweep_points if workload == "paper_sweep" else wide_points)(lib, seed)
    # Warm-up on a small point with a seed the run never uses, so the
    # generator's seed-keyed caches hold nothing the timed run needs.
    label, point = env.points[0]
    warm = point.with_(count=4, master_seed=seed + 7_919)
    corpus_pass(env, [(label, warm)], jobs=1, compact=False, check=True, outcome=Outcome())
    return env


# ---------------------------------------------------------------------------
# corpus passes


def check_case(lib: dict, result, sim_seed: int, tracer: Tracer | None = None) -> int:
    """Execute one schedule on its machine model and check every edge.

    Returns the number of DAG edges checked; raises on an unsound trace.
    """
    if tracer is not None:
        with tracer.case(result.config.seed):
            return check_case(lib, result, sim_seed)
    program = lib["program"].MachineProgram.from_schedule(result.schedule)
    if result.config.machine == "sbm":
        trace = lib["sbm"].simulate_sbm(program, rng=sim_seed)
    else:
        trace = lib["dbm"].simulate_dbm(program, rng=sim_seed)
    trace.assert_sound(program.edges)
    return len(program.edges)


@dataclass
class PointRun:
    label: str
    cases: int
    wall: float
    digest: str | None
    stats: object | None
    results: list | None = None
    edges_checked: int = 0
    #: Wall time of the ``run_corpus`` call alone (generate + schedule).
    compute: float = 0.0


def corpus_pass(
    env: Env,
    points,
    jobs: int,
    compact: bool,
    check: bool,
    outcome: Outcome,
    keep: bool = False,
    tracer: Tracer | None = None,
) -> list[PointRun]:
    """Generate, schedule, reduce, digest (and check) every point once."""
    lib = env.lib
    runs = []
    for label, point in points:
        start = time.perf_counter()
        edges = 0
        outcome.attempted += point.count
        try:
            results = lib["sweeps"].run_corpus(point, jobs=jobs, compact=compact)
            compute = time.perf_counter() - start
            stats = lib["stats"].aggregate_results(results)
            if check:
                for result in results:
                    try:
                        edges += check_case(lib, result, env.seed, tracer)
                    except Exception as exc:  # unsound trace or crash: one case
                        outcome.crash(1, f"{label} case {result.config.seed}", exc)
            digest = lib["parallel"].results_digest(results)
        except Exception as exc:  # the whole point is lost
            outcome.crash(point.count, label, exc)
            results, stats, digest, compute = None, None, None, 0.0
        wall = time.perf_counter() - start
        if not keep:
            results = None  # free the schedules outside the timed span
        runs.append(PointRun(label, point.count, wall, digest, stats, results, edges, compute))
    return runs


def combined_digest(runs: list[PointRun]) -> str:
    blob = json.dumps([(r.label, r.digest) for r in runs])
    return hashlib.sha256(blob.encode()).hexdigest()


def quality(runs: list[PointRun]) -> dict[str, float]:
    """The paper's section 5 numbers, as means over every case."""
    done = [r for r in runs if r.stats is not None and r.stats.n_benchmarks]
    n = sum(r.stats.n_benchmarks for r in done)
    if not n:
        return {}

    def mean(get) -> float:
        return sum(get(r.stats) * r.stats.n_benchmarks for r in done) / n

    return {
        "barrier_frac": mean(lambda s: s.barrier.mean),
        "static_frac": mean(lambda s: s.static.mean),
        "barriers_per_case": mean(lambda s: s.mean_barriers),
        "makespan_max_mean": mean(lambda s: s.mean_makespan_max),
    }


def compare_digests(reference, runs, outcome: Outcome, what: str) -> None:
    """Count every case of a point whose digest differs as failed."""
    for ref, run in zip(reference, runs):
        if ref.digest is not None and run.digest is not None and ref.digest != run.digest:
            outcome.fail(run.cases, f"{run.label}: {what} digest mismatch")


# ---------------------------------------------------------------------------
# statistics


def latency_summary(samples: list[float]) -> dict:
    """Median and the highest percentile with >= 10 samples beyond it.

    Below 21 samples no percentile above the median has 10 beyond it;
    the tail then keeps a quarter of the samples beyond it instead (the
    maximum below 4 samples).
    """
    values = sorted(samples)
    n = len(values)
    mid = values[(n - 1) // 2] if n % 2 else (values[n // 2 - 1] + values[n // 2]) / 2
    beyond = 10 if n >= 21 else n // 4
    return {
        "p50": mid,
        "tail": values[n - 1 - beyond],
        "tail_pct": 100.0 * (n - beyond) / n,
        "samples": n,
        "beyond": beyond,
    }


def median(values: list[float]) -> float:
    return latency_summary(values)["p50"]


def peak_rss_mb(children: bool = False) -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss / 1024.0


# ---------------------------------------------------------------------------
# untraced (end-to-end) runs


def timed_corpus(env: Env, seconds: float, outcome: Outcome) -> tuple[dict, dict]:
    """Repeat the corpus until ``seconds`` pass; return metrics and info."""
    wide = env.workload == "wide1024"
    jobs = WIDE_JOBS if wide else 1
    reps: list[list[PointRun]] = []
    start = time.perf_counter()
    last = 0.0
    # At least MIN_PASSES (a cold one and two timed); beyond that, stop
    # before a pass that would likely overrun the window.
    while len(reps) < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        runs = corpus_pass(env, env.points, jobs=jobs, compact=wide, check=not wide, outcome=outcome)
        last = sum(r.wall for r in runs)
        if reps:
            compare_digests(reps[0], runs, outcome, "repeat")
        reps.append(runs)
    window = time.perf_counter() - start
    rss = peak_rss_mb(children=wide)
    if wide:
        # Workers return compact rows; check every case on full schedules
        # and require the same digests (outside the timed window).
        verify = Outcome()
        serial = corpus_pass(env, env.points, jobs=1, compact=False, check=True, outcome=verify)
        compare_digests(reps[0], serial, verify, "parallel vs serial")
        outcome.recheck(verify)
    # The first pass fills the generator's seed-keyed caches; the
    # statistics describe the passes after it.
    timed = reps[1:] or reps
    throughput = [sum(r.cases for r in rep) / sum(r.wall for r in rep) for rep in timed]
    # One sample per sweep-point call: every case of a point is
    # delivered when the call returns.
    samples = [r.wall * 1000.0 for rep in timed for r in rep]
    lat = latency_summary(samples)
    metrics = {
        "cases_per_s": median(throughput),
        "cli_ms_p50": lat["p50"],
        "cli_ms_tail": lat["tail"],
        "peak_rss_mb": rss,
        **quality(reps[0]),
    }
    info = {
        "reps": len(reps),
        "cases_per_s_by_rep": throughput,
        "window_s": window,
        "tail": lat,
        "digest": combined_digest(reps[0]),
    }
    return metrics, info


def reference_results(env: Env) -> list:
    """In-process schedules of every pool block, as the CLI computes them."""
    lib = env.lib
    if env.reference is None:
        config = lib["scheduler"].SchedulerConfig
        env.reference = [
            lib["scheduler"].schedule_dag(
                lib["ir"].compile_source(block["source"]),
                config(n_pes=CLI_PES, seed=block["seed"]),
            )
            for block in env.pool
        ]
    return env.reference


def cli_digest(env: Env) -> str:
    results = reference_results(env)
    blob = json.dumps(
        [block["source"] for block in env.pool]
        + [env.lib["parallel"].results_digest(results)]
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def check_cli_output(env: Env, sub: str, block: dict, code: int, out: str) -> str | None:
    """``None`` when one invocation's output is right, else the reason."""
    if code != 0:
        return f"exit {code}: {out.strip().splitlines()[-1:]}"
    if sub == "generate":
        return None if out == block["source"] else "generated block differs"
    result = reference_results(env)[block["index"]]
    expected = [result.describe()]
    if sub == "simulate":
        expected.append(f"static makespan bound {result.makespan}")
    missing = [line for line in expected if line not in out.splitlines()]
    return f"missing {missing[0]!r}" if missing else None


def cli_quality(env: Env) -> dict[str, float]:
    results = reference_results(env)
    stats = env.lib["stats"].aggregate_results(results)
    return {
        "barrier_frac": stats.barrier.mean,
        "static_frac": stats.static.mean,
        "barriers_per_case": stats.mean_barriers,
        "makespan_max_mean": stats.mean_makespan_max,
    }


def timed_cli(env: Env, seconds: float, outcome: Outcome) -> tuple[dict, dict]:
    records = []
    start = time.perf_counter()
    # Whole cycles only, so every subcommand gets the same share.
    while len(records) % len(CLI_SUBCOMMANDS) or not records or time.perf_counter() - start < seconds:
        sub, block, argv = cli_invocation(len(records), env)
        code, out, wall, rss = run_child(cli_command(argv), env.workdir)
        records.append((sub, block, code, out, wall, rss))
    window = time.perf_counter() - start
    outcome.attempted += len(records)
    for sub, block, code, out, _wall, _rss in records:
        problem = check_cli_output(env, sub, block, code, out)
        if problem is not None:
            outcome.fail(1, f"{sub} block {block['index']}: {problem}")
    lat = latency_summary([r[4] * 1000.0 for r in records])
    metrics = {
        "cases_per_s": len(records) / window,
        "cli_ms_p50": lat["p50"],
        "cli_ms_tail": lat["tail"],
        "peak_rss_mb": max(r[5] for r in records),
        **cli_quality(env),
    }
    by_sub = {
        sub: median([r[4] * 1000.0 for r in records if r[0] == sub])
        for sub in CLI_SUBCOMMANDS
        if any(r[0] == sub for r in records)
    }
    info = {
        "invocations": len(records),
        "window_s": window,
        "tail": lat,
        "p50_ms_by_subcommand": by_sub,
        "digest": cli_digest(env),
    }
    return metrics, info


def run_timed(env: Env, seconds: float, outcome: Outcome) -> tuple[dict, dict]:
    if env.workload == "cli_cold":
        return timed_cli(env, seconds, outcome)
    return timed_corpus(env, seconds, outcome)


# ---------------------------------------------------------------------------
# traced (per-layer) runs


def probe_run(argv: list[str]) -> dict:
    """Run a probe child to completion and parse its last JSON line."""
    WORK.mkdir(exist_ok=True)
    code, out, _wall, _rss = run_child(argv, WORK)
    if code != 0:
        raise RuntimeError(f"probe {argv[1:]} failed: {out.strip()[-300:]}")
    return json.loads(out.strip().splitlines()[-1])


def probe(*args: str) -> dict:
    """Run one ``probe.py`` mode in a fresh interpreter."""
    return probe_run([sys.executable, str(PROBE), *args])


def cli_layer(env: Env) -> dict[str, float]:
    """Start-up costs of the ``repro.cli`` layer, from fresh processes."""
    WORK.mkdir(exist_ok=True)
    metrics = {}
    for key, module in (
        ("cli.interp_ms", None),
        ("cli.import_ms", "repro.cli"),
        ("cli.numpy_import_ms", "numpy"),
        ("cli.networkx_import_ms", "networkx"),
    ):
        if module is None:
            walls = [run_child([sys.executable, "-c", "pass"], WORK)[2] for _ in range(PROBE_REPEATS)]
            metrics[key] = median(walls) * 1000.0
        else:
            metrics[key] = median(
                [probe("import", module)["import_s"] for _ in range(PROBE_REPEATS)]
            ) * 1000.0
    pool = env.pool or cli_pool(env.lib, env.seed)[:1]
    workdir = env.workdir or Path(tempfile.mkdtemp(prefix="probe-", dir=WORK))
    try:
        block = pool[0]
        path = workdir / f"block{block['index']}.src"
        path.write_text(block["source"])
        for sub in CLI_SUBCOMMANDS:
            found = probe("modules", *cli_argv(sub, block, path))
            metrics[f"cli.modules_loaded.{sub}"] = found["modules"]
    finally:
        if env.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    return metrics


def _layer_metrics(summary: dict, cases: int) -> dict[str, float]:
    self_s, calls = summary["self_s"], summary["calls"]
    m = {}
    for layer in ("label", "order", "assign", "insert", "finalize"):
        m[f"core.{layer}_s"] = self_s.get(f"core.{layer}", 0.0)
        m[f"core.{layer}_calls"] = calls.get(f"core.{layer}", 0)
    m["core.batch_s"] = self_s.get("core.batch", 0.0) + self_s.get("core.schedule", 0.0)
    m["core.makespan_s"] = self_s.get("core.makespan", 0.0)
    m["core.makespan_calls_per_case"] = calls.get("core.makespan", 0) / cases if cases else 0.0
    m["synth.compile_s"] = self_s.get("synth.compile", 0.0) + self_s.get("synth.generate", 0.0)
    m["metrics.aggregate_s"] = self_s.get("metrics.aggregate", 0.0)
    m["machine.build_s"] = self_s.get("machine.build", 0.0)
    m["machine.simulate_s"] = self_s.get("machine.simulate", 0.0)
    m["machine.check_s"] = self_s.get("machine.check", 0.0)
    m["perf.digest_s"] = self_s.get("perf.digest", 0.0)
    return m


def _kernel_metrics(calls: dict[str, int]) -> dict[str, int]:
    """Per-kernel dispatch counts from a ``kernels_info()["calls"]`` tally."""
    return {
        f"kernels.{backend}_calls.{kernel}": calls.get(f"kernels.calls.{kernel}.{backend}", 0)
        for kernel in KERNELS
        for backend in ("numpy", "python")
    }


def _count_metrics(results: list, compiled: int) -> dict[str, float]:
    n = len(results)
    counts = [r.counts for r in results]
    return {
        "synth.cases_compiled": compiled,
        "synth.cases_used": n,
        "synth.use_ratio": n / compiled if compiled else 0.0,
        "ir.nodes_per_case": sum(len(r.schedule.dag) for r in results) / n if n else 0.0,
        "ir.edges_per_case": sum(c.total_edges for c in counts) / n if n else 0.0,
        "core.merges_per_case": sum(c.merges for c in counts) / n if n else 0.0,
        "core.repairs": sum(c.repairs for c in counts),
        "barriers.path_explosions": sum(c.path_explosions for c in counts),
    }


def traced_corpus(env: Env, outcome: Outcome) -> tuple[dict, dict]:
    """Untraced and traced serial passes with full schedules.

    The untraced pass runs twice and the second is the baseline: the
    first fills the generator's seed-keyed caches, as the traced pass
    then finds them.
    """
    lib = env.lib
    corpus_pass(env, env.points, jobs=1, compact=False, check=True, outcome=outcome)
    untraced = corpus_pass(env, env.points, jobs=1, compact=False, check=True, outcome=outcome)
    untraced_wall = sum(r.wall for r in untraced)
    lib["kernels"].reset_calls()
    with Tracer() as tracer:
        traced = corpus_pass(
            env, env.points, jobs=1, compact=False, check=True, outcome=outcome,
            keep=True, tracer=tracer,
        )
    kernel_m = _kernel_metrics(lib["kernels"].kernels_info()["calls"])
    compare_digests(untraced, traced, outcome, "traced vs untraced")
    summary = tracer.summary()
    results = [res for run in traced if run.results for res in run.results]
    m = _layer_metrics(summary, len(results))
    m.update(kernel_m)
    m.update(_count_metrics(results, summary["units"].get("synth.compile", 0)))
    m["machine.edges_checked"] = sum(r.edges_checked for r in traced)
    dispatch = 0.0
    if env.workload == "wide1024":
        serial_compute = sum(r.compute for r in untraced)
        verify = Outcome()
        compact = corpus_pass(env, env.points, jobs=WIDE_JOBS, compact=True, check=False, outcome=verify)
        compare_digests(traced, compact, verify, "parallel vs serial")
        outcome.recheck(verify)
        dispatch = sum(r.wall for r in compact)
        m["perf.parallel_efficiency"] = serial_compute / (WIDE_JOBS * dispatch)
    else:
        m["perf.parallel_efficiency"] = 0.0
    m["perf.dispatch_s"] = dispatch
    wall = sum(r.wall for r in traced)
    m["unattributed_s"] = wall - summary["covered_s"]
    m["unattributed_frac"] = m["unattributed_s"] / wall
    m["trace.overhead_frac"] = wall / untraced_wall - 1.0
    m["trace.wall_s"] = wall
    info = {
        "digest": combined_digest(traced),
        "untraced_digest": combined_digest(untraced),
        "spans": summary["spans"],
        "distinct_case_ids": summary["cases"],
    }
    return m, info


def traced_cli(env: Env, outcome: Outcome) -> tuple[dict, dict]:
    """Invocations run plain, then through ``probe.py cli``, which installs
    the tracer in the child; the two outputs must be identical."""
    n = CLI_TRACED_ROUNDS * len(CLI_SUBCOMMANDS)
    plain_walls, traced_walls, summaries, used = [], [], [], []
    edges = 0
    for i in range(n):
        sub, block, argv = cli_invocation(i, env)
        outcome.attempted += 1
        code, out, wall, _ = run_child(cli_command(argv), env.workdir)
        plain_walls.append(wall)
        problem = check_cli_output(env, sub, block, code, out)
        tcode, tout, twall, _ = run_child([sys.executable, str(PROBE), "cli", *argv], env.workdir)
        traced_walls.append(twall)
        body, _, last = tout.rstrip("\n").rpartition("\n")
        if problem is None and (tcode != 0 or body + "\n" != out):
            problem = "traced output differs"
        if problem is not None:
            outcome.fail(1, f"{sub} block {block['index']}: {problem}")
            continue
        summaries.append(json.loads(last))
        if sub != "generate":
            used.append(reference_results(env)[block["index"]])
        if sub == "simulate":
            edges += used[-1].counts.total_edges
    summary = {"self_s": {}, "calls": {}, "units": {}, "kernels": {}}
    for s in summaries:
        for key in summary:
            for k, v in s[key].items():
                summary[key][k] = summary[key].get(k, 0) + v
    covered = sum(s["covered_s"] for s in summaries)
    wall = sum(s["wall_s"] for s in summaries)
    m = _layer_metrics(summary, summary["calls"].get("core.schedule", 0))
    m.update(_kernel_metrics(summary["kernels"]))
    compiled = summary["units"].get("synth.compile", 0)
    m.update(_count_metrics(used, compiled))
    m["machine.edges_checked"] = edges
    m["perf.dispatch_s"] = 0.0
    m["perf.parallel_efficiency"] = 0.0
    m["unattributed_s"] = wall - covered
    m["unattributed_frac"] = (wall - covered) / wall if wall else 0.0
    m["trace.overhead_frac"] = sum(traced_walls) / sum(plain_walls) - 1.0
    m["trace.wall_s"] = wall
    return m, {"digest": cli_digest(env), "invocations": n}


def run_traced(env: Env, outcome: Outcome) -> tuple[dict, dict]:
    if env.workload == "cli_cold":
        metrics, info = traced_cli(env, outcome)
    else:
        metrics, info = traced_corpus(env, outcome)
    metrics.update(cli_layer(env))
    return metrics, info
