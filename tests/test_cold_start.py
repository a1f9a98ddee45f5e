"""Cold start: a one-block ``repro-sbm`` run loads only what it uses.

Each subcommand runs in a fresh ``python -X importtime -m repro.cli``
process; the interpreter's import log names every module the run
loaded.  The heavy dependencies and the subsystems a one-block run never
touches must be absent, and the output must equal what the library
computes in this (fully imported) process for the same block.
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_schedule
from repro.cli import main
from repro.core.scheduler import SchedulerConfig, schedule_dag
from repro.ir import compile_source
from repro.synth.generator import GeneratorConfig, generate_block
from tests.conftest import child_env

BLOCK = Path(__file__).resolve().parents[1] / "examples" / "block.src"

#: ``examples/block.src`` is ``repro-sbm generate`` with these arguments.
GENERATE = ["generate", "-s", "20", "-v", "8", "--seed", "7"]

COMMANDS = {
    "generate": GENERATE,
    "schedule": ["schedule", str(BLOCK)],
    "simulate": ["simulate", str(BLOCK)],
}

#: Modules a one-block generate/schedule/simulate must not load.
UNUSED = ("numpy", "networkx", "repro.experiments", "repro.perf.report", "repro.faults")


def _fresh_run(argv: list[str]) -> tuple[str, set[str]]:
    """Stdout of ``python -m repro.cli ARGV`` and the modules it imported."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro.cli", *argv],
        capture_output=True,
        text=True,
        stdin=subprocess.DEVNULL,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    return proc.stdout, imported


def _in_process(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def test_example_block_is_the_documented_generate_output():
    block = generate_block(GeneratorConfig(n_statements=20, n_variables=8), 7)
    assert BLOCK.read_text() == block.source() + "\n"


@pytest.mark.parametrize("sub", sorted(COMMANDS))
def test_fresh_cli_skips_heavy_modules_and_matches_library(sub):
    out, imported = _fresh_run(COMMANDS[sub])
    assert "repro.core.scheduler" in imported
    assert not imported & set(UNUSED), sorted(imported & set(UNUSED))
    assert out == _in_process(COMMANDS[sub])
    if sub == "generate":
        assert out == BLOCK.read_text()
        return
    result = schedule_dag(compile_source(BLOCK.read_text()), SchedulerConfig(n_pes=8))
    lines = out.splitlines()
    assert result.describe() in lines
    if sub == "schedule":
        assert out.endswith(analyze_schedule(result).render() + "\n")
    else:
        assert f"static makespan bound {result.makespan}" in lines
