"""Unified mapping engine: one compiled substrate, many mapping jobs.

:class:`MappingEngine` is the single entry point the experiment drivers,
the CLI and the benchmarks ride on.  It owns the compiled-RRG build
cache (see :func:`repro.arch.compiled.compiled_rrg_for`), so every job
targeting the same :class:`~repro.arch.params.ArchParams` shares one
flat-array substrate, and it exposes batch mapping with a worker pool:

- :meth:`MappingEngine.map` — place and route one program (what
  :func:`repro.analysis.experiments.map_program` delegates to);
- :meth:`MappingEngine.map_batch` — map many programs concurrently.
  The compiled RRG is read-only during routing, so jobs share it
  safely; each routing job allocates its own scratch buffers.

Choosing ``backend`` and ``workers`` for :meth:`MappingEngine.map_batch`:

- ``backend="thread"`` (default) runs jobs in a thread pool.  Batch
  jobs are pure-Python CPU work, so with the GIL the pool mostly helps
  when jobs block (different grids compiling, I/O in callers) or on
  free-threaded builds; ``workers=1`` (the default) is the safe
  sequential baseline and never slower for a single program.
- ``backend="process"`` fans jobs out to a ``ProcessPoolExecutor`` —
  the one that beats the GIL.  Programs, placements and routes are
  picklable; each worker process builds (and caches) its own compiled
  substrate, and the parent re-binds results to *its* cached substrate,
  so the returned :class:`MappedProgram` objects are indistinguishable
  from thread-backend results.  Worth it when per-job routing time
  dwarfs the ~1-10 ms pickling + process dispatch overhead (big grids,
  many contexts); for tiny jobs stay on threads.

Scratch buffers: all routing entry points lease their Dijkstra scratch
from :data:`repro.route.pathfinder.SCRATCH_POOL`, so sequential batch
jobs reuse one allocation and concurrent jobs hold one each (workers in
a process pool each own a per-process pool).

Routing *within* one program parallelises per context only in
share-unaware mode — share-aware routing reuses earlier contexts'
routes, which is a sequential dependency by construction.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from collections.abc import Sequence

from repro.arch.compiled import CompiledRRG, compiled_rrg_for
from repro.arch.params import ArchParams
from repro.place.placer import place_program
from repro.route.pathfinder import route_program_compiled

_BATCH_BACKENDS = ("thread", "process")


def _process_map_job(
    program, params: ArchParams | None, share_aware: bool, seed: int,
    effort: float, route_workers: int | None = None,
):
    """Top-level worker for the process backend (must be picklable).

    Returns ``(params, placements, routes)`` — deliberately *not* the
    :class:`MappedProgram`, so the worker never ships its substrate back
    over the pipe; the parent re-binds the (small) mapping artifacts to
    its own cached substrate.
    """
    from repro.analysis.experiments import _fit_params

    if params is None:
        params = _fit_params(program)
    mapped = MappingEngine().map(
        program, params, share_aware=share_aware, seed=seed, effort=effort,
        route_workers=route_workers,
    )
    return params, mapped.placements, mapped.routes


class MappingEngine:
    """Place-and-route engine sharing one compiled RRG across jobs."""

    def __init__(self, workers: int | None = None) -> None:
        #: default worker count for :meth:`map_batch` (``None`` = 1).
        self.workers = workers

    # -- substrate --------------------------------------------------------- #
    def compiled(self, params: ArchParams) -> CompiledRRG:
        """The (cached) compiled routing substrate for ``params``."""
        return compiled_rrg_for(params)

    # -- single job --------------------------------------------------------- #
    def map(
        self,
        program,
        params: ArchParams | None = None,
        share_aware: bool = True,
        seed: int = 0,
        effort: float = 0.5,
        rrg: CompiledRRG | None = None,
        route_workers: int | None = None,
    ):
        """Place and route every context of ``program``.

        Returns a :class:`~repro.analysis.experiments.MappedProgram`.
        ``rrg`` overrides the cached substrate; ``route_workers``
        parallelises context routing in share-unaware mode.
        """
        from repro.analysis.experiments import MappedProgram, _fit_params

        if params is None:
            params = _fit_params(program)
        compiled = self.compiled(params) if rrg is None else rrg
        placements = place_program(
            program, params, seed=seed, share_aware=share_aware, effort=effort
        )
        routes = route_program_compiled(
            compiled, program, placements,
            share_aware=share_aware, workers=route_workers,
        )
        return MappedProgram(
            program, params, placements, routes, compiled, share_aware
        )

    # -- batch -------------------------------------------------------------- #
    def iter_map_batch(
        self,
        programs: Sequence,
        params: ArchParams | None = None,
        share_aware: bool = True,
        seed: int = 0,
        effort: float = 0.5,
        workers: int | None = None,
        backend: str = "thread",
        route_workers: int | None = None,
    ):
        """Streaming form of :meth:`map_batch`: yield each
        :class:`~repro.analysis.experiments.MappedProgram` as soon as it
        (and everything before it) is done, in ``programs`` order.

        Parallel backends submit the whole batch up front, so the rows
        a streaming consumer sees are exactly what :meth:`map_batch`
        would collect — just earlier.
        """
        if backend not in _BATCH_BACKENDS:
            raise ValueError(
                f"backend must be one of {_BATCH_BACKENDS}, got {backend!r}"
            )
        if params is not None:
            # warm the cache once so parallel jobs never race a build
            self.compiled(params)
        n = workers if workers is not None else self.workers
        if n is None and backend == "process":
            # an explicit process request defaults to all cores (matching
            # SweepRunner) rather than silently degrading to sequential
            n = os.cpu_count() or 1
        jobs = list(programs)
        if not n or n <= 1 or len(jobs) <= 1:
            for p in jobs:
                yield self.map(p, params, share_aware=share_aware,
                               seed=seed, effort=effort,
                               route_workers=route_workers)
            return
        if backend == "process":
            yield from self._iter_map_batch_process(
                jobs, params, share_aware, seed, effort, n, route_workers
            )
            return
        pool = ThreadPoolExecutor(max_workers=min(n, len(jobs)))
        try:
            futures = [
                pool.submit(self.map, p, params, share_aware=share_aware,
                            seed=seed, effort=effort,
                            route_workers=route_workers)
                for p in jobs
            ]
            for f in futures:
                yield f.result()
        finally:
            # don't block an abandoned generator on the rest of the batch
            pool.shutdown(wait=False, cancel_futures=True)

    def map_batch(
        self,
        programs: Sequence,
        params: ArchParams | None = None,
        share_aware: bool = True,
        seed: int = 0,
        effort: float = 0.5,
        workers: int | None = None,
        backend: str = "thread",
        route_workers: int | None = None,
    ) -> list:
        """Map every program, sharing the compiled substrate.

        ``params=None`` auto-fits a grid per program (jobs with equal
        fitted params still share one compiled RRG through the cache).
        ``workers`` (default: the engine's ``workers``) sizes the pool;
        ``1`` or ``None`` maps sequentially — except under
        ``backend="process"``, where an unset worker count defaults to
        all cores (asking for the process pool and getting the GIL
        would be a silent no-op).  ``backend`` picks the pool flavour —
        ``"thread"`` or ``"process"`` (see the module docstring for
        when each wins).  Results keep the order of ``programs``; a
        failing job raises its error at collection, after all jobs
        were submitted.
        """
        return list(self.iter_map_batch(
            programs, params, share_aware=share_aware, seed=seed,
            effort=effort, workers=workers, backend=backend,
            route_workers=route_workers,
        ))

    def _iter_map_batch_process(
        self, jobs: list, params: ArchParams | None, share_aware: bool,
        seed: int, effort: float, n: int, route_workers: int | None = None,
    ):
        """Process-pool batch: ship jobs out, re-bind results locally.

        Workers return ``(fitted params, placements, routes)``; the
        parent attaches each result to its own cached substrate so
        callers see the usual substrate sharing
        (``out[i].rrg is out[j].rrg`` for equal params).
        """
        from repro.analysis.experiments import MappedProgram

        pool = ProcessPoolExecutor(max_workers=min(n, len(jobs)))
        try:
            futures = [
                pool.submit(_process_map_job, p, params, share_aware,
                            seed, effort, route_workers)
                for p in jobs
            ]
            for program, fut in zip(jobs, futures):
                fitted, placements, routes = fut.result()
                compiled = self.compiled(fitted)
                yield MappedProgram(
                    program, fitted, placements, routes, compiled,
                    share_aware,
                )
        finally:
            # don't block an abandoned generator on the rest of the batch
            pool.shutdown(wait=False, cancel_futures=True)


#: Shared default engine — what the module-level convenience APIs use,
#: so independent callers still hit one compiled-RRG cache.
DEFAULT_ENGINE = MappingEngine()
