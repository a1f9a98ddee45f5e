"""Barrier synchronization substrate (paper sections 3.1 and 4.4).

The *barrier dag* ``(B, <_b)`` is the partially ordered set of barriers in
a schedule; its edges carry the ``[min,max]`` execution time of the code
regions between consecutive barriers.  All of the paper's static-timing
machinery -- dominator trees, longest min/max paths from a common
dominating barrier, and the k-longest-path overlap analysis of the
"optimal" insertion algorithm -- lives here.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.barriers.model": ("Barrier",),
        "repro.barriers.dag": ("BarrierDag", "BarrierEdge"),
        "repro.barriers.dominators": ("DominatorTree",),
        "repro.barriers.mask": ("BarrierMask",),
        "repro.barriers.paths": (
            "PathExplosionError",
            "all_paths",
            "k_longest_max_paths",
            "longest_min_path_with_forced_max",
        ),
    },
)
