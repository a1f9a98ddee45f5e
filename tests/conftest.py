"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

import repro
from repro.timing import Interval
from repro.ir import compile_source, parse_block
from repro.ir.dag import InstructionDAG
from repro.synth.corpus import compile_case
from repro.synth.generator import GeneratorConfig

# A hand-written block exercising every opcode, loads, dead stores, CSE
# opportunities and constant folding.
SAMPLE_SOURCE = """
b = i + a
f = f & d
e = f - x
i = (j + f) - i
a = a + b
h = f & d
g = c + e
k = 2 * 3
m = k / 0
n = b % 5
p = b * c
q = b | e
"""

# The figure 1 benchmark from the paper (reconstructed from the tuple
# listing): statements chosen so code generation + optimization yield the
# same shapes of tuples as the figure.
FIGURE1_SOURCE = """
b = i + a
i = (f + j) - i
a = a + b
h = f & d
e = h - f
g = c + e
"""


@pytest.fixture
def sample_dag() -> InstructionDAG:
    return compile_source(SAMPLE_SOURCE)


@pytest.fixture
def sample_block():
    return parse_block(SAMPLE_SOURCE)


@pytest.fixture
def figure1_dag() -> InstructionDAG:
    return compile_source(FIGURE1_SOURCE)


def make_case(
    n_statements: int = 30,
    n_variables: int = 8,
    seed: int = 0,
):
    """Compile one synthetic benchmark (convenience for tests)."""
    return compile_case(
        GeneratorConfig(n_statements=n_statements, n_variables=n_variables), seed
    )


def random_env(block, seed: int = 0) -> dict[str, int]:
    """An initial memory binding every live-in variable of ``block``."""
    rng = random.Random(seed)
    return {name: rng.randint(-100, 100) for name in block.live_in_variables()}


def chain_dag(lengths: list[tuple[int, int]]) -> InstructionDAG:
    """A single dependence chain with the given (min,max) latencies."""
    latencies = {k: Interval(lo, hi) for k, (lo, hi) in enumerate(lengths)}
    edges = [(k, k + 1) for k in range(len(lengths) - 1)]
    return InstructionDAG.build(latencies, edges)


def diamond_dag() -> InstructionDAG:
    """a -> {b, c} -> d with mixed latencies."""
    latencies = {
        "a": Interval(1, 4),
        "b": Interval(1, 1),
        "c": Interval(16, 24),
        "d": Interval(1, 1),
    }
    edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    return InstructionDAG.build(latencies, edges)


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports this ``repro``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
