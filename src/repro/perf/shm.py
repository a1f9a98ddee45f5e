"""Zero-copy parallel corpus driver over shared-memory arenas.

The pickling pool (:func:`repro.perf.parallel.run_cases_parallel`)
ships case seeds out and has every worker run the python generator on
its slice.  For generator configs the vectorized path covers, this
driver moves generation into one parent-side pass and shares its
output without pickling it:

* **Input.**  The parent draws the *entire* corpus in one vectorized
  pass (:func:`repro.synth.genvec.draw_corpus`) and places the drawn
  arrays -- seeds, constants, targets, opcodes, operand kinds/indices
  -- in ``multiprocessing.shared_memory`` blocks.  Workers attach
  read-only and compile their slice straight out of the arena
  (:func:`repro.synth.genvec.compile_drawn_cases`); no case data is
  pickled.

* **Output.**  Workers hand the compiled slice to the worker body both
  drivers share, :func:`repro.perf.parallel.schedule_slice`, and ship
  its compact rows home; the parent rebuilds them into
  :class:`~repro.perf.parallel.CompactResult` rows with
  :func:`~repro.perf.parallel.compact_results`.

Bit-identity holds because the drawn corpus is exactly the serial
case-seed sequence, workers run the unmodified compile + schedule code
on it, and digest records are computed by the same
:func:`~repro.perf.parallel.digest_record` the serial digest uses.  The
slices run through the same :func:`~repro.perf.parallel.ordered_pool`
as the pickling pool, so worker observation and result order are
handled in one place.

:func:`run_cases_shm` returns ``None`` whenever it cannot apply --
``jobs <= 1``, no ``fork``, a generator config the vectorized path
does not cover, or a backend/threshold that resolves to python -- and
:func:`repro.experiments.sweeps.run_corpus` falls back to the pickling
pool.
"""

from __future__ import annotations

from multiprocessing import shared_memory

from repro import kernels
from repro.core.scheduler import SchedulerConfig
from repro.ir.ops import TimingModel
from repro.obs import prof as obs_prof
from repro.perf.parallel import (
    CompactResult,
    chunk_bounds,
    compact_results,
    draw_seeds,
    fork_available,
    ordered_pool,
    schedule_slice,
)
from repro.perf.timers import stage
from repro.synth import genvec
from repro.synth.generator import GeneratorConfig

__all__ = ["CorpusArena", "run_cases_shm"]

class CorpusArena:
    """A drawn corpus's arrays in named shared-memory blocks.

    ``create`` copies each array into its own block once; ``attach``
    maps the blocks back as numpy views without copying.  The creator
    owns the blocks and must call :meth:`destroy`; attachers call
    :meth:`close` when their views are dead.
    """

    def __init__(self, blocks: dict, manifest: dict, owner: bool) -> None:
        self._blocks = blocks
        self.manifest = manifest  # name -> (shm name, shape, dtype str)
        self._owner = owner

    @classmethod
    def create(cls, arrays: dict) -> "CorpusArena":
        np = kernels.numpy()
        blocks: dict = {}
        manifest: dict = {}
        try:
            for name, arr in arrays.items():
                shm = shared_memory.SharedMemory(
                    create=True, size=max(1, arr.nbytes)
                )
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
                view[...] = arr
                blocks[name] = shm
                manifest[name] = (shm.name, arr.shape, arr.dtype.str)
        except Exception:
            for shm in blocks.values():
                shm.close()
                shm.unlink()
            raise
        prof = obs_prof.current_profiler()
        if prof is not None:
            prof.add_bytes(
                "shm.arena", sum(shm.size for shm in blocks.values())
            )
        return cls(blocks, manifest, owner=True)

    @classmethod
    def attach(cls, manifest: dict) -> tuple["CorpusArena", dict]:
        """Map an existing arena; returns ``(arena, arrays)`` views."""
        np = kernels.numpy()
        blocks: dict = {}
        arrays: dict = {}
        for name, (shm_name, shape, dtype) in manifest.items():
            # Attaching does not re-register with the resource tracker
            # (only ``create=True`` does), so worker-side close() is the
            # whole cleanup story; the creator alone unlinks.
            shm = shared_memory.SharedMemory(name=shm_name)
            blocks[name] = shm
            arrays[name] = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=shm.buf
            )
        return cls(blocks, manifest, owner=False), arrays

    def close(self) -> None:
        for shm in self._blocks.values():
            shm.close()

    def destroy(self) -> None:
        """Close and unlink; creator-side teardown."""
        for shm in self._blocks.values():
            shm.close()
            if self._owner:
                shm.unlink()


def _run_shm_chunk(
    payload: tuple[
        dict, GeneratorConfig, TimingModel, SchedulerConfig, int, int
    ],
) -> tuple[list[tuple], str]:
    """Worker: compile ``[lo, hi)`` out of the arena, then schedule it.

    ``payload`` is ``(arena manifest, generator, timing, scheduler, lo,
    hi)``; returns the :func:`~repro.perf.parallel.schedule_slice` rows.
    """
    manifest, generator, timing, scheduler, lo, hi = payload
    arena, arrays = CorpusArena.attach(manifest)
    try:
        sliced = {name: arr[lo:hi] for name, arr in arrays.items()}
        with stage("generate"):
            drawn = genvec.DrawnCorpus.from_arrays(sliced)
            cases = genvec.compile_drawn_cases(drawn, generator, timing)
    finally:
        # from_arrays copied the slice out; no views outlive the attach.
        arena.close()
    return schedule_slice(cases, scheduler)


def run_cases_shm(
    generator: GeneratorConfig,
    count: int,
    master_seed: int,
    timing: TimingModel,
    scheduler: SchedulerConfig,
    jobs: int,
) -> "list[CompactResult] | None":
    """Run a corpus point through the zero-copy driver.

    Returns compact results in the exact serial case order, or ``None``
    when the driver cannot apply (see the module docstring); callers
    then fall back to the pickling pool.
    """
    if jobs <= 1 or count <= 0 or not fork_available():
        return None
    if not genvec.supported(generator):
        return None
    if not kernels.use_numpy("genvec", count):
        return None

    seeds = draw_seeds(master_seed, count)
    with stage("generate"):  # the parent's share: the vectorized draws
        drawn = genvec.draw_corpus(generator, seeds)
        arena = CorpusArena.create(drawn.arrays())
    tasks = (
        (arena.manifest, generator, timing, scheduler, lo, hi)
        for lo, hi in chunk_bounds(count)
    )
    try:
        return compact_results(
            ordered_pool(_run_shm_chunk, tasks, jobs), scheduler, seeds
        )
    finally:
        arena.destroy()
