"""The runtime needs no networkx: it is a test-only reference oracle.

A fresh interpreter with ``networkx`` blocked in ``sys.modules`` (so any
``import networkx`` raises) runs the conventional-MIMD model and the E18
sync-elimination experiment end to end.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from tests.conftest import child_env

BLOCK = Path(__file__).resolve().parents[1] / "examples" / "block.src"

SCRIPT = f"""
import sys
sys.modules["networkx"] = None

from repro.core.scheduler import SchedulerConfig, schedule_dag
from repro.experiments.syncelim_exp import sync_elimination_experiment
from repro.ir import compile_source
from repro.machine.mimd import simulate_conventional_mimd

stats = sync_elimination_experiment(count=2)
assert stats.n_benchmarks == 2 and stats.mean_structural <= stats.mean_naive
dag = compile_source(open({str(BLOCK)!r}).read())
sim = simulate_conventional_mimd(schedule_dag(dag, SchedulerConfig(n_pes=8)).schedule)
assert sim.makespan > 0 and sim.n_after_reduction <= sim.n_cross_edges
"""


def test_mimd_and_syncelim_run_without_networkx():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        stdin=subprocess.DEVNULL,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
