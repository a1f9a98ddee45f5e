"""repro: Static Scheduling for Barrier MIMD Architectures (1990), rebuilt.

A complete, tested reimplementation of Zaafrani, Dietz & O'Keefe,
"Static Scheduling for Barrier MIMD Architectures" (Purdue TR-EE 90-10 /
ICPP 1990): the synthetic-benchmark compiler front end, the list
scheduler with conservative and "optimal" barrier insertion and SBM
barrier merging, cycle-accurate SBM/DBM/VLIW/conventional-MIMD execution
models, and the paper's full evaluation harness.

Quickstart::

    from repro import (GeneratorConfig, SchedulerConfig, compile_source,
                       generate_block, schedule_dag, fractions_of)

    block = generate_block(GeneratorConfig(n_statements=30, n_variables=8), 42)
    dag = compile_source(block.source())
    result = schedule_dag(dag, SchedulerConfig(n_pes=8))
    print(result.describe())
    print(fractions_of(result).render())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.timing": ("Interval", "ZERO"),
        "repro.ir": (
            "BasicBlock",
            "DEFAULT_TIMING",
            "InstructionDAG",
            "Opcode",
            "TimingModel",
            "TupleProgram",
            "compile_block",
            "compile_source",
            "generate_tuples",
            "interpret",
            "optimize",
            "parse_block",
        ),
        "repro.synth": (
            "BenchmarkCase",
            "GeneratorConfig",
            "generate_block",
            "generate_corpus",
        ),
        "repro.core": (
            "Schedule",
            "ScheduleResult",
            "SchedulerConfig",
            "SyncCounts",
            "schedule_dag",
        ),
        "repro.barriers": ("Barrier", "BarrierDag", "BarrierMask", "DominatorTree"),
        "repro.machine": (
            "DBMSimulator",
            "ExecutionTrace",
            "MachineProgram",
            "SBMSimulator",
            "UniformSampler",
            "VLIWSchedule",
            "simulate_conventional_mimd",
            "simulate_dbm",
            "simulate_sbm",
            "vliw_schedule",
        ),
        "repro.metrics": ("SyncFractions", "aggregate_results", "fractions_of"),
        "repro.viz": ("render_barrier_dag", "render_embedding", "render_gantt"),
        "repro.analysis": ("analyze_schedule",),
        "repro.io": (
            "load_program",
            "program_from_json",
            "program_to_json",
            "save_program",
        ),
    },
)
__all__.append("__version__")
