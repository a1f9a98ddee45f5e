"""EXTENSION: scheduling beyond a single basic block (paper section 7).

The paper's evaluation is restricted to straight-line basic blocks; its
conclusion lists "extension of the basic scheduling techniques to more
complex code structures (including arbitrary control flow)" as ongoing
work (the [OKee90] dissertation).  This package implements that
extension in the most conservative, clearly-correct form:

* a structured language layer -- ``if``/``else`` and ``while`` over the
  section 2 assignment language (:mod:`repro.flow.ast`,
  :mod:`repro.flow.parser`);
* lowering to a control-flow graph of basic blocks, each ending in a
  branch on a computed value (:mod:`repro.flow.cfg`);
* per-block barrier-MIMD scheduling using the unmodified section 4
  algorithms, with a machine-wide barrier at every block boundary --
  the barrier re-zeroes timing skew, so each block starts from the
  exact-synchrony state the intra-block analysis assumes
  (:mod:`repro.flow.schedule`);
* a reference interpreter and a multi-block machine executor that runs
  the per-block schedules along the dynamically taken path, verifying
  every dynamic producer/consumer instance
  (:mod:`repro.flow.interp`, :mod:`repro.flow.executor`).

Everything here is an extension beyond the 1990 paper and is marked as
such in DESIGN.md; the core reproduction does not depend on it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.flow.ast": ("FlowProgram", "IfStmt", "WhileStmt"),
        "repro.flow.parser": ("parse_program",),
        "repro.flow.cfg": ("CFG", "BasicBlockNode", "build_cfg"),
        "repro.flow.interp": ("run_program",),
        "repro.flow.schedule": ("FlowSchedule", "schedule_program"),
        "repro.flow.executor": ("FlowTrace", "execute_flow_schedule"),
    },
)
