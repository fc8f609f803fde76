"""Unified mapping engine: one compiled substrate, many mapping jobs.

:class:`MappingEngine` is the single entry point the experiment drivers,
the CLI and the benchmarks ride on.  It owns the compiled-RRG build
cache (see :func:`repro.arch.compiled.compiled_rrg_for`), so every job
targeting the same :class:`~repro.arch.params.ArchParams` shares one
flat-array substrate:

- :meth:`MappingEngine.map` — place and route one program (what
  :func:`repro.analysis.experiments.map_program` delegates to);
- :func:`map_job` — the picklable item function behind batch mapping.
  The api ``Session`` fans a batch out through
  :meth:`repro.analysis.sweep.SweepRunner.iter_items` (the one pool
  loop of every backend) and re-binds each ``(params, placements,
  routes)`` result to its own cached substrate, so process-backend
  rows are indistinguishable from sequential ones.

Search buffers: each context route owns its own (the native route
allocates them inside its call, the Python fallback makes one
:class:`~repro.route.pathfinder.RouterScratch`), so concurrent jobs
share nothing but the read-only substrate.

Routing *within* one program parallelises per context only in
share-unaware mode — share-aware routing reuses earlier contexts'
routes, which is a sequential dependency by construction.
"""

from __future__ import annotations

from repro.arch.compiled import CompiledRRG, compiled_rrg_for
from repro.arch.params import ArchParams
from repro.place.placer import place_program
from repro.route.pathfinder import route_program_compiled


def map_job(item: tuple):
    """Map one batch item ``(program, share_aware, seed, effort,
    route_workers)`` on auto-fitted params through
    :data:`DEFAULT_ENGINE` (top-level, so process pools can pickle it).

    Returns ``(params, placements, routes)`` — deliberately *not* the
    :class:`~repro.analysis.experiments.MappedProgram`, so a worker
    never ships its substrate back over the pipe; the caller re-binds
    the (small) mapping artifacts to its own cached substrate.
    """
    program, share_aware, seed, effort, route_workers = item
    mapped = DEFAULT_ENGINE.map(
        program, share_aware=share_aware, seed=seed, effort=effort,
        route_workers=route_workers,
    )
    return mapped.params, mapped.placements, mapped.routes


class MappingEngine:
    """Place-and-route engine sharing one compiled RRG across jobs."""

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


#: Shared default engine — what the module-level convenience APIs use,
#: so independent callers still hit one compiled-RRG cache.
DEFAULT_ENGINE = MappingEngine()
