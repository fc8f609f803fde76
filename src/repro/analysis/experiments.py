"""End-to-end experiment drivers.

Each benchmark in ``benchmarks/`` is a thin wrapper around a function
here, so results are reproducible from the library API alone:

- :func:`map_program` — the one place-and-route entry: synth-to-
  bitstream mapping of one program (place + route per context,
  share-aware or naive) on a cached compiled substrate,
- :func:`run_full_flow` — mapping plus functional verification and
  statistics extraction,
- :func:`run_area_experiment` — the Section-5 evaluation: measured
  pattern mixes feeding the area model, proposed vs conventional,
  CMOS and FePG.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.arch.compiled import CompiledRRG, compiled_rrg_for
from repro.arch.params import ArchParams
from repro.core.area_model import (
    AreaComparison,
    AreaModel,
    PatternMix,
    Technology,
    TileCounts,
)
from repro.core.bitstream import BitstreamStats, extract_bitstream_stats
from repro.core.fpga import MultiContextFPGA
from repro.errors import ReproError
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


@dataclass
class ExperimentResult:
    """Everything a bench prints for one program."""

    name: str
    mapped: MappedProgram
    stats: BitstreamStats
    verified: bool
    comparisons: dict[str, AreaComparison] = field(default_factory=dict)

    @property
    def change_rate(self) -> float:
        return self.stats.switch.change_fraction()


def verify_mapped(mapped: MappedProgram, seed: int = 0, n_vectors: int = 16) -> bool:
    """Functional verification of a mapped program on a configured device.

    Configures a behavioural device from the mapping and checks every
    context against its source netlist on random vectors; raises
    :class:`~repro.errors.SimulationError` on mismatch, returns True
    otherwise.  Shared by :func:`run_full_flow` and the CLI flows so
    verification policy lives in one place.
    """
    device = MultiContextFPGA(mapped.params, rrg=mapped.rrg)
    device.configure_program(mapped.program, mapped.placements, mapped.routes)
    for c in range(mapped.program.n_contexts):
        device.verify_against_source(c, n_vectors=n_vectors, seed=seed)
    return True


def run_full_flow(
    program: MultiContextProgram,
    params: ArchParams | None = None,
    share_aware: bool = True,
    seed: int = 0,
    verify: bool = True,
) -> ExperimentResult:
    """Map, verify functionally, and extract statistics."""
    mapped = map_program(program, params, share_aware=share_aware, seed=seed)
    stats = mapped.stats()
    verified = False
    if verify:
        verified = verify_mapped(mapped, seed=seed)
    return ExperimentResult(program.name, mapped, stats, verified)


def measured_mixes(stats: BitstreamStats) -> tuple[PatternMix, float]:
    """(switch-bit pattern mix, mean distinct planes) from a bitstream."""
    switch_mix = PatternMix.from_census(stats.switch.census())
    planes = stats.luts.distinct_planes_per_tile()
    mean_planes = (
        sum(planes.values()) / len(planes) if planes else 1.0
    )
    return switch_mix, mean_planes


def run_area_experiment(
    program: MultiContextProgram | None = None,
    params: ArchParams | None = None,
    change_rate: float = 0.05,
    sharing_factor: float = 2.0,
    seed: int = 0,
    measured: bool = True,
) -> dict[str, AreaComparison]:
    """The Section-5 evaluation.

    With a program: map it, measure the pattern mix / plane counts and
    LB packing factor, then evaluate the area model with *measured*
    statistics plugged into the paper's device geometry (6-input
    2-output MCMG-LUTs, W=10 channels with realistic connection-block
    provisioning) — "under a constraint of the same number of contexts".
    Without a program: evaluate at the paper's analytic operating point.
    Returns comparisons for CMOS and FePG.
    """
    from repro.arch.params import paper_params

    model = AreaModel()
    out: dict[str, AreaComparison] = {}
    if program is not None and measured:
        mapped = map_program(program, params, share_aware=True, seed=seed)
        stats = mapped.stats()
        switch_mix, mean_planes = measured_mixes(stats)
        gpack = pack_global(program)
        lpack = pack_local(program)
        packing = (
            lpack.n_lbs / gpack.n_lbs if gpack.n_lbs else 1.0
        )
        n_ctx = mapped.params.n_contexts
        device = paper_params().with_(n_contexts=n_ctx)
        counts = TileCounts.from_arch(device)
        for tech in (Technology.CMOS, Technology.FEPG):
            out[tech.value] = model.compare(
                counts, n_ctx, switch_mix, mean_planes,
                device.lut_outputs, sharing_factor,
                lb_packing_factor=min(1.0, packing), tech=tech,
            )
    else:
        for tech in (Technology.CMOS, Technology.FEPG):
            out[tech.value] = model.paper_operating_point(
                change_rate=change_rate, tech=tech,
                sharing_factor=sharing_factor,
            )
    return out


def sweep_change_rate(
    rates: Sequence[float],
    n_contexts: int = 4,
    sharing_factor: float = 2.0,
) -> list[tuple[float, float, float]]:
    """(rate, cmos ratio, fepg ratio) across change rates — the
    sensitivity curve behind the paper's single 5% point.

    Thin row-tuple adapter over
    :func:`repro.analysis.sweep.sweep_change_rate_points` (the sweep
    subsystem owns the implementation) for table renderers.

    ``n_contexts`` is honored since the sweep-subsystem port; the
    original implementation accepted it but always evaluated at the
    model's 4-context default.
    """
    from repro.analysis.sweep import sweep_change_rate_points

    return [
        (pt.value, pt.cmos_ratio, pt.fepg_ratio)
        for pt in sweep_change_rate_points(
            rates, n_contexts=n_contexts, sharing_factor=sharing_factor
        )
    ]


def sweep_contexts(
    context_counts: Sequence[int],
    change_rate: float = 0.05,
    sharing_factor: float = 2.0,
) -> list[tuple[int, float, float]]:
    """(n_contexts, cmos ratio, fepg ratio): the overhead the RCM attacks
    grows with context count, so the proposed advantage should widen.

    Thin row-tuple adapter over
    :func:`repro.analysis.sweep.sweep_contexts_points`.
    """
    from repro.analysis.sweep import sweep_contexts_points

    return [
        (int(pt.value), pt.cmos_ratio, pt.fepg_ratio)
        for pt in sweep_contexts_points(
            context_counts, change_rate=change_rate,
            sharing_factor=sharing_factor,
        )
    ]
