"""The mapping and Section-5 area drivers.

- :func:`map_program` — the one place-and-route entry: synth-to-
  bitstream mapping of one program (place + route per context,
  share-aware or naive) on a cached compiled substrate; statistics
  come from :meth:`MappedProgram.stats`,
- :func:`verify_mapped` — functional verification of a mapping on a
  configured device,
- :func:`run_area_experiment` — the Section-5 evaluation on a measured
  program: its pattern mixes feeding the area model, proposed vs
  conventional, CMOS and FePG.

Named workloads run through the api ``Session`` (``MapRequest``,
``AreaRequest``, ``SweepRequest``), which calls these same drivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.verification import verify_device
from repro.arch.compiled import CompiledRRG, compiled_rrg_for
from repro.arch.params import ArchParams, paper_params
from repro.core.area_model import (
    AreaComparison,
    AreaModel,
    PatternMix,
    Technology,
    TileCounts,
)
from repro.core.bitstream import BitstreamStats, extract_bitstream_stats
from repro.core.fpga import MultiContextFPGA
from repro.netlist.dfg import MultiContextProgram
from repro.netlist.frontend import arch_for
from repro.netlist.sharing import pack_global, pack_local
from repro.place.placer import Placement, place_program
from repro.route.pathfinder import RouteResult, route_program_compiled
from repro.utils.telemetry import span


@dataclass
class MappedProgram:
    """A program fully mapped onto a device.

    ``rrg`` is the flat substrate the program was routed on; statistics
    extraction and verification read it, never an object graph.
    """

    program: MultiContextProgram
    params: ArchParams
    placements: list[Placement]
    routes: list[RouteResult]
    rrg: CompiledRRG
    share_aware: bool

    def stats(self) -> BitstreamStats:
        return extract_bitstream_stats(
            self.rrg, self.program, self.placements, self.routes, self.params
        )

    def reuse_fraction(self) -> float:
        """Fraction of later-context nets that reused an earlier route.

        A program with no later-context nets — single-context, or one
        whose contexts after the first route nothing — offers no reuse
        opportunities at all, so the fraction is defined as 0.0.
        """
        total = reused = 0
        for rr in self.routes[1:]:
            for net in rr.nets.values():
                total += 1
                reused += 1 if net.reused else 0
        if total == 0:
            return 0.0
        return reused / total


def map_program(
    program: MultiContextProgram,
    params: ArchParams | None = None,
    share_aware: bool = True,
    seed: int = 0,
    effort: float = 0.5,
    rrg: CompiledRRG | None = None,
    route_workers: int | None = None,
) -> MappedProgram:
    """Place and route every context of ``program``.

    The one place-and-route entry: every flow (the api ``Session``,
    batch items, the experiment drivers) maps through it.  ``params``
    defaults to a grid fitted to the program.  Repeated calls with
    equal ``params`` share one compiled routing substrate
    (:func:`~repro.arch.compiled.compiled_rrg_for`); an explicit
    ``rrg`` bypasses the cache.  ``route_workers`` routes share-unaware
    contexts in parallel on threads.  Placement and routing are traced
    as ``map.place`` and ``map.route`` on whichever collector is bound.
    """
    if params is None:
        # a grid comfortably holding the largest context
        biggest = max(
            len(nl.luts()) + len(nl.dffs()) for nl in program.contexts
        )
        side = max(3, math.ceil(math.sqrt(biggest * 1.8)))
        params = arch_for(program, side)
    compiled = compiled_rrg_for(params) if rrg is None else rrg
    with span("map.place"):
        placements = place_program(
            program, params, seed=seed, share_aware=share_aware,
            effort=effort,
        )
    with span("map.route"):
        routes = route_program_compiled(
            compiled, program, placements,
            share_aware=share_aware, workers=route_workers,
        )
    return MappedProgram(
        program, params, placements, routes, compiled, share_aware
    )


def verify_mapped(mapped: MappedProgram, seed: int = 0, n_vectors: int = 16) -> bool:
    """Functional verification of a mapped program on a configured device.

    Configures a behavioural device from the mapping and checks every
    context against its source netlist on random vectors
    (:func:`~repro.analysis.verification.verify_device`); raises
    :class:`~repro.errors.SimulationError` on mismatch, returns True
    otherwise.  Every flow that verifies a mapping calls it, so
    verification policy lives in one place.
    """
    device = MultiContextFPGA(mapped.params, rrg=mapped.rrg)
    device.configure_program(mapped.program, mapped.placements, mapped.routes)
    verify_device(device, mapped.program, n_vectors=n_vectors, seed=seed)
    return True


def measured_mixes(stats: BitstreamStats) -> tuple[PatternMix, float]:
    """(switch-bit pattern mix, mean distinct planes) from a bitstream."""
    switch_mix = PatternMix.from_census(stats.switch.census())
    planes = stats.luts.distinct_planes_per_tile()
    mean_planes = (
        sum(planes.values()) / len(planes) if planes else 1.0
    )
    return switch_mix, mean_planes


def run_area_experiment(
    program: MultiContextProgram,
    params: ArchParams | None = None,
    sharing_factor: float = 2.0,
    seed: int = 0,
) -> dict[str, AreaComparison]:
    """The Section-5 evaluation on a measured program.

    Maps ``program``, measures the pattern mix / plane counts and LB
    packing factor, then evaluates the area model with *measured*
    statistics plugged into the paper's device geometry (6-input
    2-output MCMG-LUTs, W=10 channels with realistic connection-block
    provisioning) — "under a constraint of the same number of contexts".
    Returns comparisons for CMOS and FePG.  The analytic operating point
    is :meth:`AreaModel.paper_operating_points
    <repro.core.area_model.AreaModel.paper_operating_points>`.
    """
    mapped = map_program(program, params, share_aware=True, seed=seed)
    switch_mix, mean_planes = measured_mixes(mapped.stats())
    gpack = pack_global(program)
    lpack = pack_local(program)
    packing = lpack.n_lbs / gpack.n_lbs if gpack.n_lbs else 1.0
    n_ctx = mapped.params.n_contexts
    device = paper_params().with_(n_contexts=n_ctx)
    counts = TileCounts.from_arch(device)
    model = AreaModel()
    return {
        tech.value: model.compare(
            counts, n_ctx, switch_mix, mean_planes,
            device.lut_outputs, sharing_factor,
            lb_packing_factor=min(1.0, packing), tech=tech,
        )
        for tech in Technology
    }
