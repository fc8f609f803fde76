"""The from-scratch repair ladder: a test and benchmark reference.

:func:`repair_from_scratch` climbs the same rungs as
:func:`repro.reliability.repair.repair_mapping`, without any of its
incremental machinery: detection rebuilds the flat views of the golden
routes for every die, the ROUTE_AROUND rung routes the whole context
cold with the healthy golden routes as a reuse bank (discovered in
netlist order), and the REROUTE rung extracts the net endpoints again.
It reaches the same repair verdicts on the same detection results, but
its ROUTE_AROUND rung may pick other (equally valid) routes, so the
reported overheads may differ.  ``tests/reliability/test_repair.py``
compares the verdicts and ``benchmarks/bench_repair_ladder.py``
measures the incremental ladder's speed-up against it.
"""

from __future__ import annotations

from repro.arch.compiled import CompiledRRG
from repro.errors import PlacementError, RoutingError
from repro.netlist.netlist import Netlist
from repro.place.placer import place
from repro.reliability.defect_map import DefectMap
from repro.reliability.repair import (
    GoldenMapping,
    RepairLevel,
    RepairOutcome,
    dirty_net_names,
    placement_blocked,
)
from repro.route.pathfinder import endpoint_signature, route_context_compiled
from repro.route.timing import critical_path


def repair_from_scratch(
    c: CompiledRRG,
    netlist: Netlist,
    golden: GoldenMapping,
    dm: DefectMap,
    seed: int = 0,
    effort: float = 0.3,
    max_iterations: int = 25,
) -> RepairOutcome:
    """The repair ladder with every rung routed from scratch."""
    blocked = placement_blocked(golden.placement, dm)
    dirty = set() if blocked else dirty_net_names(golden.routes, dm)
    if not blocked and not dirty:
        return RepairOutcome(
            RepairLevel.NONE, True, golden.wirelength, golden.critical_path,
            0, dm.n_defects,
        )
    if not blocked:
        bank = {
            endpoint_signature(net.source, net.sinks): net
            for name, net in golden.routes.nets.items()
            if name not in dirty
        }
        for level, reuse in ((RepairLevel.ROUTE_AROUND, bank),
                             (RepairLevel.REROUTE, None)):
            try:
                rr = route_context_compiled(
                    c, netlist, golden.placement, reuse=reuse, defects=dm,
                    max_iterations=max_iterations,
                )
            except RoutingError:
                continue
            return RepairOutcome(
                level, True, rr.wirelength(c),
                critical_path(c, netlist, rr, golden.placement),
                len(dirty), dm.n_defects,
            )
    try:
        pl = place(
            netlist, dm.params, seed=seed, effort=effort,
            forbidden=dm.bad_tiles,
        )
        rr = route_context_compiled(
            c, netlist, pl, defects=dm, max_iterations=max_iterations,
        )
    except (PlacementError, RoutingError):
        return RepairOutcome(
            RepairLevel.FAIL, False, 0, 0.0, len(dirty), dm.n_defects
        )
    return RepairOutcome(
        RepairLevel.REPLACE, True, rr.wirelength(c),
        critical_path(c, netlist, rr, pl),
        len(dirty), dm.n_defects,
    )
