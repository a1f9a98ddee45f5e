"""Hybrid static/dynamic scheduling (see :mod:`repro.hybrid.plan`).

Compiler side: :func:`hybridize_schedule` classifies timing-proved edges
against an ε budget and demotes the fragile ones to dynamic data guards;
:func:`hybrid_program` lowers the (unchanged) schedule with the guard
table attached.  Runtime side: :class:`HybridController` executes static
barriers natively while the engine resolves guards under a
timeout/bounded-retry watchdog (:class:`~repro.machine.engine.GuardPolicy`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.hybrid.plan": (
            "EdgeDemotion",
            "HybridPlan",
            "hybrid_program",
            "hybridize_schedule",
        ),
        "repro.hybrid.controller": ("HybridController",),
    },
)
__all__.sort()
