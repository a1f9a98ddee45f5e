"""The repo benchmark: one seeded workload, timed end to end or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced pass and reports the per-layer metrics.
Every case is checked.  The report ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402

#: End-to-end metrics (``--trace 0``): unit and better direction.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cases_per_s": ("1/s", "higher"),
    "cli_ms_p50": ("ms", "lower"),
    "cli_ms_tail": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "barrier_frac": ("fraction", "lower"),
    "static_frac": ("fraction", "higher"),
    "barriers_per_case": ("count", "lower"),
    "makespan_max_mean": ("cycles", "lower"),
}

_LAYER_UNITS = {"_s": "s", "_ms": "ms", "_calls": "count", "_frac": "fraction"}


def layer_unit(name: str) -> str:
    for suffix, unit in _LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    if name.endswith(("_ratio", "_efficiency")):
        return "fraction"
    return "count"


#: Per-layer metrics (``--trace 1``) and their better direction.
PER_LAYER = {
    **{
        f"cli.{k}": "lower"
        for k in (
            "interp_ms",
            "import_ms",
            "numpy_import_ms",
            "networkx_import_ms",
            "modules_loaded.generate",
            "modules_loaded.schedule",
            "modules_loaded.simulate",
        )
    },
    "synth.compile_s": "lower",
    "synth.cases_compiled": "lower",
    "synth.cases_used": "higher",
    "synth.use_ratio": "higher",
    "ir.nodes_per_case": "lower",
    "ir.edges_per_case": "lower",
    **{
        f"core.{layer}_{what}": "lower"
        for layer in ("label", "order", "assign", "insert", "finalize")
        for what in ("s", "calls")
    },
    "core.batch_s": "lower",
    "core.makespan_s": "lower",
    "core.makespan_calls_per_case": "lower",
    "core.merges_per_case": "higher",
    "core.repairs": "lower",
    "barriers.path_explosions": "lower",
    **{
        f"kernels.{backend}_calls.{kernel}": "lower"
        for kernel in wl.KERNELS
        for backend in ("numpy", "python")
    },
    "metrics.aggregate_s": "lower",
    "machine.build_s": "lower",
    "machine.simulate_s": "lower",
    "machine.check_s": "lower",
    "machine.edges_checked": "higher",
    "perf.dispatch_s": "lower",
    "perf.parallel_efficiency": "higher",
    "perf.digest_s": "lower",
    "unattributed_s": "lower",
    "unattributed_frac": "lower",
    "trace.overhead_frac": "lower",
    "trace.wall_s": "lower",
}

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def host_fingerprint(lib: dict) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "backend": lib["kernels"].resolved_backend(),
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(args, own_s: float) -> tuple[float, list[float]]:
    """Median set-up time over this process and two fresh probes."""
    samples = [own_s]
    for _ in range(2):
        found = wl.probe_run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"]
        )
        samples.append(found["setup_s"])
    return wl.median(samples), samples


def reference_note(workload: str, seed: int, digest: str) -> str:
    ref = json.loads(REFERENCE.read_text())
    expected = ref["digests"].get(workload)
    if seed != ref["seed"]:
        return f"reference digest is for seed {ref['seed']}; not comparable"
    if expected == digest:
        return f"same as the seed-{seed} reference"
    return f"DIFFERS from the seed-{seed} reference {expected}"


def emit(metrics: dict, units) -> list[str]:
    lines = []
    for name in sorted(metrics):
        unit, better = units(name)
        lines.append(f"  {name:<34} {metrics[name]:>16.6g} {unit:<8} ({better} is better)")
    return lines


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (wl.SRC / "repro").is_dir():
        print(f"perfbench: no repro sources under {wl.SRC}", file=sys.stderr)
        return 2
    for var in wl.HERMETIC_VARS:
        os.environ.pop(var, None)
    sys.path.insert(0, str(wl.SRC))

    env = wl.setup(args.workload, args.seed)
    try:
        own_setup = time.perf_counter() - START
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        outcome = wl.Outcome()
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("host " + json.dumps(host_fingerprint(env.lib), sort_keys=True))
        if args.trace:
            metrics, info = wl.run_traced(env, outcome)
            declared = set(PER_LAYER)
            units = lambda n: (layer_unit(n), PER_LAYER[n])  # noqa: E731
        else:
            setup_s, samples = measure_setup(args, own_setup)
            metrics, info = wl.run_timed(env, args.seconds, outcome)
            metrics["setup_s"] = setup_s
            info["setup_samples_s"] = samples
            declared = set(END_TO_END)
            units = END_TO_END.__getitem__
    finally:
        env.close()
    if set(metrics) != declared:
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ declared)}")
    print("metrics:")
    print("\n".join(emit(metrics, units)))
    if "tail" in info:
        tail = info["tail"]
        print(f"  cli_ms_tail is p{tail['tail_pct']:.1f} of {tail['samples']} samples "
              f"({tail['beyond']} beyond it)")
    # A case can fail twice (a timed pass and its re-check); count it once.
    failed = min(outcome.failed, outcome.attempted)
    print(f"failed_frac {failed / outcome.attempted:.6g} ({failed} of {outcome.attempted})")
    for note in outcome.notes:
        print(f"  failure: {note}")
    print(f"results_digest {info['digest']} ({reference_note(args.workload, args.seed, info['digest'])})")
    print("info " + json.dumps({k: v for k, v in info.items() if k != "digest"}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units(name)[0]}
            for name, value in sorted(metrics.items())
        },
    }))
    return 0


def _terminate(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def run(argv: list[str]) -> int:
    """``main``, then stop every process the run started, however it ends.

    SIGTERM is turned into ``SystemExit`` so that it, too, passes through
    the clean-up.
    """
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return main(argv)
    finally:
        wl.stop_children()
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
