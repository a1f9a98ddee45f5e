"""Machine-level execution models (paper sections 3.2 and 6).

The scheduler's output is lowered to a :class:`~repro.machine.program.MachineProgram`
-- per-processor op streams plus barrier bit masks -- and executed by:

* :mod:`repro.machine.sbm` -- the Static Barrier MIMD: a FIFO queue of
  barrier masks; only the queue head may fire (figure 11);
* :mod:`repro.machine.dbm` -- the Dynamic Barrier MIMD: associative
  matching lets any barrier whose participants are all waiting fire;
* :mod:`repro.machine.vliw` -- the lock-step VLIW comparison model of
  section 6 (all instructions at maximum time, no asynchrony);
* :mod:`repro.machine.mimd` -- a conventional MIMD with directed
  producer/consumer synchronization, the "what would have happened
  without barrier scheduling" baseline.

Instruction durations are drawn by pluggable samplers
(:mod:`repro.machine.durations`); executing a schedule under thousands of
random draws and asserting every producer finishes before its consumers
start is the system-level soundness oracle used by the test suite.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.machine.durations": (
            "BimodalSampler",
            "DurationSampler",
            "FixedSampler",
            "MaxSampler",
            "MinSampler",
            "UniformSampler",
        ),
        "repro.machine.program": ("BarrierRef", "MachineOp", "MachineProgram"),
        "repro.machine.trace": ("DeadlockError", "ExecutionTrace", "OrderViolation"),
        "repro.machine.sbm": ("SBMSimulator", "simulate_sbm"),
        "repro.machine.dbm": ("DBMSimulator", "simulate_dbm"),
        "repro.machine.vliw": ("VLIWSchedule", "vliw_schedule"),
        "repro.machine.mimd": ("ConventionalMIMDResult", "simulate_conventional_mimd"),
        "repro.machine.rtl": ("ClockedDBM", "ClockedSBM", "run_clocked"),
    },
)
