"""In-memory span tracer installed around the library's layer boundaries.

The benchmark times each layer of ``repro`` by replacing the layer's
public functions with timing wrappers for the duration of a traced pass,
then restoring the originals.  Nothing under ``src/`` is edited: the
wrappers live here and are patched into every loaded ``repro`` module
that holds a reference to the wrapped function (so ``from x import f``
call sites are covered too).

Each span records ``(name, start, end, parent index, case id, work
units)``.  A span opened inside another inherits its case id, so every
span under one ``schedule_dag`` call carries that case's seed.  Spans stay in memory
until :meth:`Tracer.summary` reduces them; a span's *self* time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: Layer span name -> wrapped targets.  A target is
#: ``("func", module, attribute)`` for a module-level function or
#: ``("method", module, class, attribute)`` for a plain, class or static
#: method.
LAYERS: dict[str, tuple[tuple[str, ...], ...]] = {
    "synth.compile": (
        ("func", "repro.synth.genvec", "compile_cases"),
        ("func", "repro.synth.corpus", "compile_case"),
        ("func", "repro.ir", "compile_source"),
    ),
    "synth.generate": (("func", "repro.synth.generator", "generate_block"),),
    "core.batch": (("func", "repro.core.batchrun", "schedule_cases"),),
    # ``_list_schedule`` is the per-case step batched scheduling calls
    # without going through ``schedule_dag``.
    "core.schedule": (
        ("func", "repro.core.scheduler", "schedule_dag"),
        ("func", "repro.core.scheduler", "_list_schedule"),
    ),
    "core.label": (
        ("func", "repro.core.labeling", "compute_heights"),
        ("func", "repro.kernels.batch", "heights_batch"),
    ),
    "core.order": (("func", "repro.core.ordering", "order_nodes"),),
    "core.assign": (
        ("method", "repro.core.assignment", "ListPolicy", "choose"),
        ("method", "repro.core.assignment", "RoundRobinPolicy", "choose"),
        ("method", "repro.core.assignment", "LookaheadPolicy", "choose"),
    ),
    "core.insert": (
        ("method", "repro.core.barrier_insert", "BarrierInserter", "ensure_edge"),
    ),
    "core.finalize": (
        ("func", "repro.core.validate", "finalize_schedule"),
        ("func", "repro.core.validate", "repair_schedule"),
        ("func", "repro.kernels.batch", "first_candidates"),
    ),
    "core.makespan": (("method", "repro.core.schedule", "Schedule", "makespan"),),
    "metrics.aggregate": (("func", "repro.metrics.stats", "aggregate_results"),),
    "machine.build": (
        ("method", "repro.machine.program", "MachineProgram", "from_schedule"),
    ),
    "machine.simulate": (
        ("func", "repro.machine.sbm", "simulate_sbm"),
        ("func", "repro.machine.dbm", "simulate_dbm"),
    ),
    "machine.check": (
        ("method", "repro.machine.trace", "ExecutionTrace", "assert_sound"),
    ),
    "perf.digest": (("func", "repro.perf.parallel", "results_digest"),),
}


def _case_of_config(args, kwargs):
    config = kwargs.get("config", args[1] if len(args) > 1 else None)
    return None if config is None else config.seed


#: Spans that start a new case id instead of inheriting their parent's.
CASE_KEYS = {"core.schedule": _case_of_config}

#: Work units one call represents, by wrapped function (default 1): a
#: batched compile call compiles one case per attempt seed.
UNITS = {"compile_cases": lambda args, kwargs: len(kwargs.get("seeds", args[1]))}


class Tracer:
    """Collects spans from installed wrappers; one per traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[tuple[int, object]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        case_key = CASE_KEYS.get(name)
        units = UNITS.get(fn.__name__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent, case = stack[-1] if stack else (-1, None)
            if case_key is not None:
                case = case_key(args, kwargs)
            n = 1 if units is None else units(args, kwargs)
            spans.append(None)
            stack.append((index, case))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, case, n)

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> "Tracer":
        """Patch every layer target; :meth:`uninstall` restores them."""
        for name, targets in LAYERS.items():
            for target in targets:
                kind, module_name = target[0], target[1]
                module = importlib.import_module(module_name)
                if kind == "func":
                    original = getattr(module, target[2])
                    wrapped = self._wrap(original, name)
                    for mod in list(sys.modules.values()):
                        if not getattr(mod, "__name__", "").startswith("repro"):
                            continue
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, attr, wrapped)
                else:
                    cls = getattr(module, target[2])
                    raw = cls.__dict__[target[3]]
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self._wrap(raw.__func__, name))
                    else:
                        wrapped = self._wrap(raw, name)
                    self._patch(cls, target[3], wrapped)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def case(self, case_id):
        """Give spans opened inside (outside any layer call) a case id."""
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((parent, case_id))
        try:
            yield
        finally:
            self._stack.pop()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reduction ------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self time, outermost call and unit counts, coverage.

        ``calls`` counts spans not nested in a span of the same name (a
        recursive or re-entrant layer call is one call); ``units`` sums
        those spans' work units (see :data:`UNITS`).  ``covered`` is
        the sum of every span's self time -- the part of the traced wall
        that some layer accounts for.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        units: dict[str, int] = defaultdict(int)
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent, _case, n = span
            self_s[name] += (end - start) - child[i]
            if parent < 0 or self.spans[parent][0] != name:
                calls[name] += 1
                units[name] += n
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "units": dict(units),
            "covered_s": sum(self_s.values()),
            "spans": len(self.spans),
            "cases": len({s[4] for s in self.spans if s and s[4] is not None}),
        }


def installed_wrappers() -> list[str]:
    """Names of layer targets that currently hold a wrapper (for tests)."""
    found = []
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    inner = getattr(cvalue, "__func__", cvalue)
                    if hasattr(inner, "__perfbench_original__"):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    return found
