"""Package re-exports resolved on first attribute access (PEP 562).

A package ``__init__`` names the submodule that defines each of its
public names instead of importing them all; the submodule is imported
the first time one of its names is read.  So ``import repro`` -- or
``import repro.core`` -- costs only what the caller touches, and a
one-block ``repro-sbm schedule`` never loads numpy, networkx or the
experiment harness.

Resolved values are looked up on every access rather than copied into
the package namespace, so a name patched on its defining module (as a
profiler or a test double does) is seen through the package as well.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for *package*.

    *exports* maps each defining module to the names it contributes,
    in ``__all__`` order.  Usage, in a package ``__init__``::

        __getattr__, __dir__, __all__ = lazy_exports(__name__, {
            "repro.metrics.fractions": ("SyncFractions", "fractions_of"),
        })
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(module), name)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, list(origin)
