"""Backend dispatch policy and python/numpy parity (:mod:`repro.kernels`).

The pure-python loops are the specification; the numpy kernels are
accelerators that must be bit-identical.  These tests pin

* the ``REPRO_BACKEND`` dispatch contract (python / numpy / auto, the
  per-kernel size thresholds, check-mode override, invalid values);
* corpus ``results_digest`` parity between backends -- with
  ``REPRO_CHECK_KERNELS=1`` forcing every kernel on (so small corpora
  actually exercise them) and with ``REPRO_CHECK_INCREMENTAL=1``
  layered on top;
* that every kernel in :data:`repro.kernels.THRESHOLDS` engages on a
  workload it was built for, without check mode.
"""

from __future__ import annotations

import pytest

from repro import kernels
from repro.cli import main
from repro.core.scheduler import SchedulerConfig
from repro.experiments.sweeps import ExperimentPoint, run_corpus
from repro.obs.metrics import collect_metrics
from repro.perf.parallel import results_digest
from repro.synth.generator import GeneratorConfig


def corpus_digest(n_pes=8, n_statements=24, count=6, master_seed=11):
    point = ExperimentPoint(
        generator=GeneratorConfig(n_statements=n_statements, n_variables=8),
        scheduler=SchedulerConfig(n_pes=n_pes),
        count=count,
        master_seed=master_seed,
    )
    return results_digest(run_corpus(point, jobs=1))


class TestDispatchPolicy:
    def test_python_setting_never_engages(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        for kernel in kernels.THRESHOLDS:
            assert not kernels.use_numpy(kernel, 10**6)
        assert kernels.resolved_backend() == "python"

    @pytest.mark.parametrize("setting", ["auto", "numpy"])
    def test_thresholds_gate_every_backend(self, monkeypatch, setting):
        monkeypatch.setenv("REPRO_BACKEND", setting)
        monkeypatch.delenv("REPRO_CHECK_KERNELS", raising=False)
        for kernel, threshold in kernels.THRESHOLDS.items():
            assert not kernels.use_numpy(kernel, threshold - 1)
            assert kernels.use_numpy(kernel, threshold) == kernels.have_numpy()

    def test_check_mode_overrides_thresholds(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.setenv("REPRO_CHECK_KERNELS", "1")
        for kernel in kernels.THRESHOLDS:
            assert kernels.use_numpy(kernel, 1) == kernels.have_numpy()

    def test_empty_setting_means_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "")
        assert kernels.backend_setting() == "auto"
        monkeypatch.delenv("REPRO_BACKEND")
        assert kernels.backend_setting() == "auto"

    def test_invalid_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "cuda")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            kernels.backend_setting()
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            kernels.use_numpy("assign", 10**6)

    def test_invalid_backend_is_cli_exit_two(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BACKEND", "cuda")
        rc = main(
            ["perf", "--count", "1", "--jobs", "1", "-o", "-",
             "--no-trajectory"]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("repro-sbm: error:")

    def test_cli_backend_flag_scopes_environment(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        rc = main(
            ["perf", "--count", "1", "--jobs", "1", "--backend", "python",
             "-o", "-", "--no-trajectory"]
        )
        assert rc == 0
        assert '"setting": "python"' in capsys.readouterr().out
        import os

        assert "REPRO_BACKEND" not in os.environ  # scope was restored

    def test_kernels_info_shape(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        info = kernels.kernels_info()
        assert info["setting"] == "auto"
        assert info["resolved"] in ("python", "numpy")
        assert info["thresholds"] == kernels.THRESHOLDS
        assert isinstance(info["calls"], dict)

    def test_count_tallies_module_and_registry(self):
        kernels.reset_calls()
        with collect_metrics() as metrics:
            kernels.count("assign", "numpy")
            kernels.count("assign", "python")
            kernels.count("assign", "numpy")
        calls = kernels.kernels_info()["calls"]
        assert calls["kernels.calls.assign.numpy"] == 2
        assert calls["kernels.calls.assign.python"] == 1
        counters = metrics.as_dict()["counters"]
        assert counters["kernels.backend.numpy"] == 2
        kernels.reset_calls()
        assert kernels.kernels_info()["calls"] == {}

    def test_verify_counts_and_raises_on_mismatch(self):
        with collect_metrics() as metrics:
            kernels.verify("batch", [1, 2], [1, 2])
            with pytest.raises(AssertionError, match="cross-check"):
                kernels.verify("batch", [1, 2], [1, 3])
        counters = metrics.as_dict()["counters"]
        assert counters["kernels.check.checked"] == 2
        assert counters["kernels.check.mismatches"] == 1


class TestDigestParity:
    """Scheduling results must be bit-identical across backends."""

    def test_forced_kernels_match_python(self, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.setenv("REPRO_BACKEND", "python")
        baseline = corpus_digest()
        # Check mode forces every kernel on AND cross-checks each call
        # against the python implementation in-line.
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        monkeypatch.setenv("REPRO_CHECK_KERNELS", "1")
        with collect_metrics() as metrics:
            checked = corpus_digest()
        assert checked == baseline
        counters = metrics.as_dict()["counters"]
        assert counters.get("kernels.check.checked", 0) > 0
        assert counters.get("kernels.check.mismatches", 0) == 0

    def test_forced_kernels_match_python_with_incremental_checks(
        self, monkeypatch
    ):
        pytest.importorskip("numpy")
        monkeypatch.setenv("REPRO_BACKEND", "python")
        baseline = corpus_digest(n_statements=30, count=4, master_seed=3)
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        monkeypatch.setenv("REPRO_CHECK_KERNELS", "1")
        monkeypatch.setenv("REPRO_CHECK_INCREMENTAL", "1")
        assert (
            corpus_digest(n_statements=30, count=4, master_seed=3) == baseline
        )

    def test_natural_threshold_crossing_matches_python(self, monkeypatch):
        # 128 PEs crosses the assign threshold and 16 cases cross the
        # genvec and batch thresholds, all without check mode: no
        # accelerator may outlive the workload it was built for, and the
        # vectorized step-[2] scan must draw identical tie-break choices.
        pytest.importorskip("numpy")
        monkeypatch.delenv("REPRO_CHECK_KERNELS", raising=False)
        monkeypatch.setenv("REPRO_BACKEND", "python")
        baseline = corpus_digest(n_pes=128, n_statements=40, count=16)
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        kernels.reset_calls()
        assert corpus_digest(n_pes=128, n_statements=40, count=16) == baseline
        calls = kernels.kernels_info()["calls"]
        for kernel in kernels.THRESHOLDS:
            assert calls.get(f"kernels.calls.{kernel}.numpy", 0) > 0, kernel

