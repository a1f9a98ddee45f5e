"""Plain-text visualization of schedules and executions.

:func:`render_embedding` draws the barrier embedding of figure 9
(vertical processor streams crossed by horizontal barrier lines);
:func:`render_gantt` draws a timeline of one simulated execution; and
:func:`render_barrier_dag` pretty-prints the barrier partial order with
fire-time windows.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.viz.embedding": ("render_embedding", "render_barrier_dag"),
        "repro.viz.gantt": ("render_gantt",),
        "repro.viz.dot": ("barrier_dag_to_dot", "cfg_to_dot", "instruction_dag_to_dot"),
    },
)
