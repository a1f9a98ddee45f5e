"""On-disk content-addressed cache of corpus statistics.

Re-running an experiment or benchmark recomputes every parameter point
from scratch even though the pipeline is bit-deterministic in the point.
This cache exploits that determinism: :func:`point_cache_key` derives a
stable SHA-256 from the *complete* content of an
:class:`~repro.experiments.sweeps.ExperimentPoint` (generator
parameters, every scheduler knob, the timing model's name and latency
table, corpus size, master seed) plus the package version, and
:func:`store_point_stats` / :func:`load_point_stats` persist the reduced
:class:`~repro.metrics.stats.CorpusStats` under that key.

Invalidation is purely by key: change any input or bump
``repro.__version__`` and the old entries are simply never looked up
again (delete the cache directory to reclaim the space).

Layout: one JSON file per point under :func:`cache_dir` (default
``~/.cache/repro-sbm/sweeps``, override with ``REPRO_CACHE_DIR``).
Caching is opt-in: pass ``cache=True`` to the sweep helpers or set
``REPRO_CACHE=1`` (the CLI experiment runner turns it on unless invoked
with ``--no-cache``).  Cache hits return the stats recorded at compute
time, including the *original* run's stage timings.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro import __version__
from repro.metrics.fractions import SyncFractions
from repro.metrics.stats import CorpusStats, FractionAggregate
from repro.obs.metrics import inc
from repro.perf.timers import StageTimings

if TYPE_CHECKING:  # avoid the circular import with experiments.sweeps
    from repro.experiments.sweeps import ExperimentPoint

__all__ = [
    "cache_dir",
    "resolve_cache",
    "point_cache_key",
    "load_point_stats",
    "store_point_stats",
    "stats_to_json",
    "stats_from_json",
]

_FORMAT = "repro.sweep-cache.v1"

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off", ""}


def resolve_cache(cache: bool | None = None) -> bool:
    """Resolve the effective cache switch (``None`` consults ``REPRO_CACHE``)."""
    if cache is not None:
        return cache
    text = os.environ.get("REPRO_CACHE", "").strip().lower()
    if text in _TRUTHY:
        return True
    if text in _FALSY:
        return False
    raise ValueError(f"REPRO_CACHE must be a boolean flag, got {text!r}")


def cache_dir() -> Path:
    """The sweep-cache directory (``REPRO_CACHE_DIR`` overrides the default)."""
    root = os.environ.get("REPRO_CACHE_DIR", "").strip()
    base = Path(root) if root else Path.home() / ".cache" / "repro-sbm"
    return base / "sweeps"


def _point_content(point: "ExperimentPoint") -> dict:
    """The complete, JSON-stable content of a point (the hash preimage)."""
    timing = point.timing
    return {
        "format": _FORMAT,
        "version": __version__,
        "generator": asdict(point.generator),
        "scheduler": asdict(point.scheduler),
        "timing": {
            "name": timing.name,
            "latencies": {
                op.name: [iv.lo, iv.hi] for op, iv in sorted(
                    timing.latencies.items(), key=lambda kv: kv[0].name
                )
            },
        },
        "count": point.count,
        "master_seed": point.master_seed,
    }


def point_cache_key(point: "ExperimentPoint") -> str:
    """Stable SHA-256 key of a point's content plus the package version."""
    blob = json.dumps(_point_content(point), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def stats_to_json(stats: CorpusStats) -> dict:
    """Encode :class:`CorpusStats` losslessly as JSON-compatible data."""
    data = asdict(stats)
    data["timings"] = stats.timings.as_dict() if stats.timings else None
    return data


def stats_from_json(data: dict) -> CorpusStats:
    """Decode :func:`stats_to_json` output."""
    aggregates = {
        name: FractionAggregate(**data[name])
        for name in ("barrier", "serialized", "static", "no_runtime_sync")
    }
    timings = data.get("timings")
    return CorpusStats(
        n_benchmarks=data["n_benchmarks"],
        **aggregates,
        mean_implied_syncs=data["mean_implied_syncs"],
        mean_barriers=data["mean_barriers"],
        mean_merges=data["mean_merges"],
        mean_makespan_min=data["mean_makespan_min"],
        mean_makespan_max=data["mean_makespan_max"],
        mean_processors_used=data["mean_processors_used"],
        total_repairs=data["total_repairs"],
        secondary_fraction=data["secondary_fraction"],
        per_benchmark=tuple(
            SyncFractions(**fr) for fr in data.get("per_benchmark", ())
        ),
        timings=StageTimings.from_dict(timings) if timings else None,
    )


def load_point_stats(point: "ExperimentPoint") -> CorpusStats | None:
    """Return the cached stats for ``point``, or ``None`` on a miss (or on
    any unreadable/foreign entry -- misses are never errors).  Outcomes
    are counted on the active obs registry as ``cache.sweep.hits`` /
    ``cache.sweep.misses``."""
    stats = _load_point_stats(point)
    inc("cache.sweep.hits" if stats is not None else "cache.sweep.misses")
    return stats


def _load_point_stats(point: "ExperimentPoint") -> CorpusStats | None:
    path = cache_dir() / f"{point_cache_key(point)}.json"
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if data.get("format") != _FORMAT:
        return None
    try:
        return stats_from_json(data["stats"])
    except (KeyError, TypeError, ValueError):
        return None


def store_point_stats(point: "ExperimentPoint", stats: CorpusStats) -> Path:
    """Persist ``stats`` for ``point``; returns the entry path.

    The write is atomic (temp file + rename) so concurrent sweeps sharing
    a cache directory can only ever observe complete entries.
    """
    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{point_cache_key(point)}.json"
    record = {
        "format": _FORMAT,
        "point": _point_content(point),
        "stats": stats_to_json(stats),
    }
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
