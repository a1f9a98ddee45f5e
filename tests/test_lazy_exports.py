"""Package re-exports resolved on first access (``repro._lazy``)."""

from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys
import types

import pytest

import repro
from tests.conftest import child_env

LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.barriers",
    "repro.core",
    "repro.experiments",
    "repro.faults",
    "repro.flow",
    "repro.hybrid",
    "repro.machine",
    "repro.metrics",
    "repro.obs",
    "repro.perf",
    "repro.synth",
    "repro.viz",
)


def _uses_helper(package: types.ModuleType) -> bool:
    hook = vars(package).get("__getattr__")
    return getattr(hook, "__module__", None) == "repro._lazy"


def test_every_reexporting_package_is_lazy():
    packages = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    found = {name for name in packages if _uses_helper(importlib.import_module(name))}
    assert found == set(LAZY_PACKAGES)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    assert package.__all__ and len(set(package.__all__)) == len(package.__all__)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    listed = dir(package)
    for attr in package.__all__:
        value = getattr(package, attr)
        # A submodule of the same name would shadow the export.
        assert not isinstance(value, types.ModuleType), attr
        assert namespace[attr] is value, attr
        assert attr in listed, attr


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"module '{name}' has no attribute 'no_such_name'"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


def test_fresh_import_is_light_and_results_pickle():
    """``import repro`` loads no subsystem; a result built through the
    lazy names survives the pickle round trip the worker pools use."""
    code = (
        "import pickle, sys\n"
        "import repro\n"
        "heavy = {'numpy', 'networkx', 'repro.core', 'repro.experiments'}\n"
        "assert not heavy & set(sys.modules), sorted(heavy & set(sys.modules))\n"
        "dag = repro.compile_source('a = x + y\\nb = a * 3\\nc = b - x\\n')\n"
        "result = repro.schedule_dag(dag, repro.SchedulerConfig(n_pes=4))\n"
        "assert type(result) is repro.ScheduleResult\n"
        "back = pickle.loads(pickle.dumps(result))\n"
        "from repro.perf import results_digest\n"
        "assert results_digest([back]) == results_digest([result])\n"
        "assert back.describe() == result.describe()\n"
        "print('ok')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
