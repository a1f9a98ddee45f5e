"""Fresh-process probes for the ``repro.cli`` layer.

Run by the benchmark with ``PYTHONPATH`` pointing at ``src``; each mode
prints one JSON object as its last stdout line.

``probe.py import MODULE``
    Time ``import MODULE`` in this fresh interpreter.
``probe.py modules ARGV...``
    Run ``repro-sbm ARGV...`` (output discarded) and count the modules
    the process then holds.
``probe.py cli ARGV...``
    Run ``repro-sbm ARGV...`` with the benchmark's layer tracer
    installed; print the command's output, then the trace summary.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "import":
        start = time.perf_counter()
        importlib.import_module(args[0])
        print(json.dumps({"import_s": time.perf_counter() - start}))
        return 0
    start = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - start
    if mode == "modules":
        with contextlib.redirect_stdout(io.StringIO()):
            code = repro.cli.main(args)
        print(json.dumps({"modules": len(sys.modules)}))
        return code
    if mode != "cli":
        raise SystemExit(f"unknown probe mode {mode!r}")
    from repro import kernels
    from tracing import Tracer

    kernels.reset_calls()
    tracer = Tracer().install()
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = repro.cli.main(args)
    finally:
        main_s = time.perf_counter() - start
        tracer.uninstall()
    summary = tracer.summary()
    summary["self_s"]["cli.import"] = import_s
    summary["calls"]["cli.import"] = 1
    summary["covered_s"] += import_s
    summary["wall_s"] = import_s + main_s
    summary["kernels"] = kernels.kernels_info()["calls"]
    sys.stdout.write(out.getvalue())
    print(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
