"""Tests of the benchmark itself: names, seeding, tracing, failure counting.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
The workloads are shrunk (fewer cases per point, a smaller block pool)
so the suite finishes in about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to a few cases."""
    monkeypatch.setattr(wl, "SWEEP_COUNT", 2)
    monkeypatch.setattr(wl, "WIDE_COUNT", 3)
    monkeypatch.setattr(wl, "CLI_POOL", 3)
    monkeypatch.setattr(wl, "CLI_TRACED_ROUNDS", 1)
    monkeypatch.setattr(wl, "PROBE_REPEATS", 1)


@pytest.fixture(scope="module")
def lib():
    return wl._import_library()


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_benchmark_json():
    data = spec()
    assert [w["name"] for w in data["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in data["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in data["per_layer"]} == {
        name: (bench_run.layer_unit(name), better)
        for name, better in bench_run.PER_LAYER.items()
    }
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in data["end_to_end"])


def test_untraced_run_prints_every_end_to_end_metric(small, monkeypatch, capsys):
    # A developer's shell must not change the workload.
    monkeypatch.setenv("REPRO_BATCH", "1")
    monkeypatch.setenv("REPRO_BACKEND", "python")
    assert bench_run.main(["--workload", "paper_sweep", "--seed", "3", "--seconds", "0.1"]) == 0
    out = capsys.readouterr().out
    result = last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(bench_run.END_TO_END)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3 * 35 * 2  # at least three passes
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert '"backend": "numpy"' in out and "failed_frac 0 " in out
    assert "REPRO_BATCH" not in os.environ and "REPRO_BACKEND" not in os.environ


def test_traced_run_matches_untraced_digest_and_removes_wrappers(small, capsys):
    assert bench_run.run(["--workload", "wide1024", "--seed", "5", "--trace", "1"]) == 0
    # The shared-memory driver's resource tracker and pool workers are gone.
    assert wl.child_pids() == []
    out = capsys.readouterr().out
    result = last_json(out)
    assert set(result["metrics"]) == set(bench_run.PER_LAYER)
    assert result["correct"], out
    info = json.loads([line for line in out.splitlines() if line.startswith("info ")][0][5:])
    digest = [line for line in out.splitlines() if line.startswith("results_digest")][0].split()[1]
    assert info["untraced_digest"] == digest
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["core.makespan_calls_per_case"] == int(metrics["core.makespan_calls_per_case"])
    # Three cases per point still draw a full batch of 100 seeds.
    assert metrics["synth.cases_used"] == 9 and metrics["synth.cases_compiled"] == 300
    assert metrics["synth.use_ratio"] == 9 / 300
    assert metrics["perf.dispatch_s"] > 0 and metrics["core.assign_calls"] > 0
    assert tracing.installed_wrappers() == []


def test_traced_cli_run_reports_layers_from_the_child(small, capsys):
    assert bench_run.main(["--workload", "cli_cold", "--seed", "2", "--trace", "1"]) == 0
    result = last_json(capsys.readouterr().out)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"]
    assert metrics["core.insert_calls"] > 0 and metrics["cli.import_ms"] > 0
    assert metrics["cli.modules_loaded.schedule"] > 0


def test_tracer_restores_every_patched_attribute(lib):
    from repro.core.schedule import Schedule
    from repro.machine.program import MachineProgram

    makespan = Schedule.__dict__["makespan"]
    build = MachineProgram.__dict__["from_schedule"]
    schedule_dag = lib["scheduler"].schedule_dag
    with tracing.Tracer():
        assert tracing.installed_wrappers()
        assert lib["scheduler"].schedule_dag is not schedule_dag
    assert tracing.installed_wrappers() == []
    assert Schedule.__dict__["makespan"] is makespan
    assert MachineProgram.__dict__["from_schedule"] is build
    assert lib["scheduler"].schedule_dag is schedule_dag


def test_a_different_seed_changes_inputs_and_digest(small, lib):
    digests = []
    for seed in (1, 2):
        env = wl.Env("paper_sweep", seed, lib)
        env.points = wl.sweep_points(lib, seed)[:3]
        runs = wl.corpus_pass(env, env.points, jobs=1, compact=False, check=True, outcome=wl.Outcome())
        digests.append(wl.combined_digest(runs))
    assert digests[0] != digests[1]
    assert wl.cli_pool(lib, 1)[0]["source"] != wl.cli_pool(lib, 2)[0]["source"]
    again = wl.Env("paper_sweep", 1, lib)
    again.points = wl.sweep_points(lib, 1)[:3]
    runs = wl.corpus_pass(again, again.points, jobs=1, compact=False, check=True, outcome=wl.Outcome())
    assert wl.combined_digest(runs) == digests[0]


def test_unsound_trace_and_crash_are_counted_not_fatal(small, lib, monkeypatch):
    from repro.machine.trace import ExecutionTrace

    env = wl.Env("paper_sweep", 4, lib)
    env.points = wl.sweep_points(lib, 4)[:3]
    original = ExecutionTrace.assert_sound
    calls = {"n": 0}

    def unsound_once(self, edges, context=""):
        calls["n"] += 1
        if calls["n"] == 1:
            raise AssertionError("injected unsound trace")
        return original(self, edges, context)

    monkeypatch.setattr(ExecutionTrace, "assert_sound", unsound_once)
    run_corpus = lib["sweeps"].run_corpus
    crash_label = env.points[1][0]

    def crash_second(point, **kwargs):
        if point is env.points[1][1]:
            raise RuntimeError("injected crash")
        return run_corpus(point, **kwargs)

    monkeypatch.setattr(lib["sweeps"], "run_corpus", crash_second)
    outcome = wl.Outcome()
    runs = wl.corpus_pass(env, env.points, jobs=1, compact=False, check=True, outcome=outcome)
    assert outcome.attempted == 6
    assert outcome.failed == 1 + 2
    assert any("injected unsound" in n for n in outcome.notes)
    assert any(crash_label in n and "injected crash" in n for n in outcome.notes)
    assert runs[0].digest and runs[1].digest is None and runs[2].digest


def test_failing_cli_invocation_is_counted(small, lib):
    env = wl.setup("cli_cold", 6)
    try:
        (env.workdir / "block0.src").write_text("this is ( not a block\n")
        outcome = wl.Outcome()
        metrics, info = wl.timed_cli(env, 0.1, outcome)
    finally:
        env.close()
    # Invocation 0 is ``generate`` (no file); 1 and 2 read the bad file.
    assert outcome.attempted == 3
    assert outcome.failed == 2
    assert all("exit 2" in note for note in outcome.notes)
    assert info["invocations"] == 3


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    summary = wl.latency_summary([float(i) for i in range(1, 101)])
    assert summary["tail"] == 90.0 and summary["tail_pct"] == 90.0
    assert summary["p50"] == 50.5
    few = wl.latency_summary([3.0, 1.0, 2.0])
    assert few["tail"] == 3.0 and few["tail_pct"] == 100.0
    fifteen = wl.latency_summary([float(i) for i in range(1, 16)])
    assert fifteen["tail"] == 12.0 and fifteen["beyond"] == 3


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec_ = spec()
    proc = subprocess.run(
        spec_["command"] + ["--workload", "paper_sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
