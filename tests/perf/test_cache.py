"""The on-disk sweep cache: keys, round-trips, hits, and escape hatches."""

from __future__ import annotations

import json

import pytest

from repro.core.scheduler import SchedulerConfig
from repro.experiments.sweeps import ExperimentPoint, run_point, sweep
from repro.perf.cache import (
    cache_dir,
    load_point_stats,
    point_cache_key,
    resolve_cache,
    stats_from_json,
    stats_to_json,
    store_point_stats,
)
from repro.synth.generator import GeneratorConfig


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    return tmp_path / "cache"


def point(**kw):
    defaults = dict(
        generator=GeneratorConfig(n_statements=12, n_variables=5),
        scheduler=SchedulerConfig(n_pes=4),
        count=3,
        master_seed=5,
    )
    defaults.update(kw)
    return ExperimentPoint(**defaults)


class TestKey:
    def test_stable(self):
        assert point_cache_key(point()) == point_cache_key(point())

    def test_varies_with_every_input(self):
        base = point_cache_key(point())
        assert point_cache_key(point(master_seed=6)) != base
        assert point_cache_key(point(count=4)) != base
        assert (
            point_cache_key(point(scheduler=SchedulerConfig(n_pes=8))) != base
        )
        assert (
            point_cache_key(
                point(generator=GeneratorConfig(n_statements=13, n_variables=5))
            )
            != base
        )

    def test_varies_with_version(self, monkeypatch):
        base = point_cache_key(point())
        monkeypatch.setattr("repro.perf.cache.__version__", "0.0.0-test")
        assert point_cache_key(point()) != base


class TestResolve:
    def test_default_off(self):
        assert resolve_cache(None) is False

    def test_env_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert resolve_cache(None) is True

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert resolve_cache(False) is False

    def test_bad_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "maybe")
        with pytest.raises(ValueError):
            resolve_cache(None)


class TestRoundTrip:
    def test_exact_stats_round_trip(self):
        stats = run_point(point(), cache=False)
        assert stats_from_json(stats_to_json(stats)) == stats

    def test_store_load(self):
        p = point()
        stats = run_point(p, cache=False)
        path = store_point_stats(p, stats)
        assert path.is_file()
        assert load_point_stats(p) == stats

    def test_miss_is_none(self):
        assert load_point_stats(point(master_seed=404)) is None

    def test_corrupt_entry_is_a_miss(self):
        p = point()
        path = store_point_stats(p, run_point(p, cache=False))
        path.write_text("{not json")
        assert load_point_stats(p) is None
        path.write_text(json.dumps({"format": "something.else"}))
        assert load_point_stats(p) is None


class TestRunPointIntegration:
    def test_hit_is_served_from_disk(self):
        """Poison the stored entry: a second run_point must return the
        poisoned stats, proving it consulted the cache, not the pipeline."""
        from dataclasses import replace

        p = point()
        real = run_point(p, cache=True)
        store_point_stats(p, replace(real, total_repairs=777))
        assert run_point(p, cache=True).total_repairs == 777
        assert run_point(p, cache=False).total_repairs == real.total_repairs

    def test_sweep_passthrough(self, isolated_cache):
        out = sweep(point(), "scheduler.n_pes", [2, 4], cache=True)
        assert len(list(isolated_cache.glob("sweeps/*.json"))) == 2
        again = sweep(point(), "scheduler.n_pes", [2, 4], cache=True)
        assert [stats for _, stats in out] == [stats for _, stats in again]

    def test_cache_dir_override(self, isolated_cache):
        assert str(cache_dir()).startswith(str(isolated_cache))
