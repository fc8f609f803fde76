"""The picklable batch item function.

:func:`map_job` maps one batch item through
:func:`repro.analysis.experiments.map_program`.  The api ``Session``
fans a batch out through
:meth:`repro.analysis.sweep.SweepRunner.iter_items` (the one pool loop
of every backend) and re-binds each ``(params, placements, routes)``
result to its own cached substrate, so process-backend rows are
indistinguishable from sequential ones.
"""

from __future__ import annotations

from repro.analysis.experiments import map_program


def map_job(item: tuple):
    """Map one batch item ``(program, share_aware, seed, effort,
    route_workers)`` on auto-fitted params (top-level, so process pools
    can pickle it).

    Returns ``(params, placements, routes)`` — deliberately *not* the
    :class:`~repro.analysis.experiments.MappedProgram`, so a worker
    never ships its substrate back over the pipe; the caller re-binds
    the (small) mapping artifacts to its own cached substrate.
    """
    program, share_aware, seed, effort, route_workers = item
    mapped = map_program(
        program, share_aware=share_aware, seed=seed, effort=effort,
        route_workers=route_workers,
    )
    return mapped.params, mapped.placements, mapped.routes
