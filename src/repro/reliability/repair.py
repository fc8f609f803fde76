"""Defect-avoidance mapping: the repair escalation ladder.

Given a *golden* (defect-free) mapping of a workload and one die's
:class:`~repro.reliability.defect_map.DefectMap`, decide whether the die
can still run the workload — spending as little mapping effort as the
defects demand:

0. **NONE** — the golden placement avoids every dead logic site and the
   golden routes touch no dead wire/switch: the die works as-is.
1. **ROUTE_AROUND** — placement is fine but some routes cross defects:
   reroute *only* the dirty nets, seeding the router's reuse bank with
   the healthy routes (they are adopted as-is and only ripped up if the
   detours create congestion).
2. **REROUTE** — route-around could not converge: rip everything up and
   reroute the whole context under the defect mask.
3. **REPLACE** — the placement itself sits on dead logic (or rerouting
   is hopeless around the current pin positions): re-place with the
   dead tiles forbidden, then reroute.
4. **FAIL** — even re-place+reroute cannot map the workload; the die is
   scrap for this workload.

The ladder is exactly the knob manufacturers trade CAD time against
yield with, so :class:`RepairOutcome` records which rung succeeded plus
the quality cost (wirelength / critical-path overhead vs the golden
mapping) of surviving.

The ladder is *incremental*: defect detection is a vectorised mask
lookup over flat per-net node/edge arrays (built once per golden
mapping and cached on it), the ROUTE_AROUND rung warm-starts
PathFinder from the golden congestion state
(:func:`~repro.route.pathfinder.route_context_warm` — adopted routes
share the golden route trees), and timing analysis reuses the delay
table memoised on every golden tree a repaired net kept.  The
from-scratch ladder, which reaches the same verdicts, lives in the test
suite (``tests/oracles/repair_oracle.py``) as the reference and the
benchmark baseline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.arch.compiled import CompiledRRG
from repro.errors import PlacementError, RoutingError
from repro.netlist.netlist import Netlist
from repro.place.placer import Placement, place
from repro.reliability.defect_map import DefectMap
from repro.route.pathfinder import (
    NetEndpoints,
    RouteResult,
    _net_endpoints,
    endpoint_signature,
    route_context_compiled,
    route_context_warm,
)
from repro.route.timing import critical_path
from repro.utils.telemetry import span

class RepairLevel(enum.IntEnum):
    """Rungs of the escalation ladder, cheapest first."""

    NONE = 0
    ROUTE_AROUND = 1
    REROUTE = 2
    REPLACE = 3
    FAIL = 4


class RouteFlat:
    """Flat per-net views of one routing for vectorised defect
    detection.

    Reads every net's tree nodes from the route's
    :class:`~repro.route.pathfinder.RouteForest` and derives each tree
    edge's code (``src * n_nodes + dst``, the root's left out) from it,
    with per-net offsets, so a trial's dirty-net census is a
    fancy-index gather plus a segmented reduction instead of a Python
    loop over every node of every net.  Also carries the per-net
    endpoint signatures the warm-start reuse bank needs.
    """

    __slots__ = (
        "names", "nodes_flat", "node_start", "edge_codes", "edge_start",
        "signatures",
    )

    def __init__(self, routes: RouteResult, n_nodes: int) -> None:
        nets = routes.nets
        self.names = list(nets)
        forest = routes.forest()
        self.nodes_flat = nodes = forest.node
        self.node_start = start = forest.tree_start.astype(np.int64)
        # each node's parent as a position in the forest; a root's
        # entry (position 0 of its tree) is dropped
        sizes = np.diff(start)
        parent = forest.parent + np.repeat(start[:-1], sizes)
        child = np.ones(nodes.size, dtype=bool)
        child[start[:-1][sizes > 0]] = False
        self.edge_codes = (nodes[parent[child]].astype(np.int64) * n_nodes
                           + nodes[child])
        self.edge_start = start - np.arange(start.size)
        self.signatures = {
            name: endpoint_signature(net.source, net.sinks)
            for name, net in nets.items()
        }

    def dirty_net_names(self, dm: DefectMap) -> set[str]:
        """Vectorised: nets whose route crosses a dead wire/switch."""
        if not self.names:
            return set()
        # every net has >= 1 node and >= 1 edge, so the segmented
        # reductions see no empty segments
        bad = ~dm.node_ok[self.nodes_flat]
        net_bad = np.logical_or.reduceat(bad, self.node_start[:-1])
        if dm.bad_edge_codes.size:
            hit = dm.edges_dead(self.edge_codes)
            net_bad |= np.logical_or.reduceat(hit, self.edge_start[:-1])
        names = self.names
        return {names[i] for i in np.flatnonzero(net_bad)}


@dataclass
class GoldenMapping:
    """Defect-free reference mapping of one workload on one device.

    ``_flat`` / ``_endpoints`` are derived caches (flat detection
    views, the router's net endpoints on the golden placement) built
    lazily by the repair ladder; the golden's delay tables are memoised
    on its route trees.  They rely on the golden's placement and routes
    never being mutated after :func:`build_golden`.  They never pickle
    — trial payloads ship the lean mapping and each worker rebuilds the
    caches once.
    """

    placement: Placement
    routes: RouteResult
    wirelength: int
    critical_path: float
    _flat: RouteFlat | None = field(
        default=None, repr=False, compare=False)
    _endpoints: tuple | None = field(
        default=None, repr=False, compare=False)

    def __getstate__(self):
        return (self.placement, self.routes, self.wirelength,
                self.critical_path)

    def __setstate__(self, state):
        (self.placement, self.routes, self.wirelength,
         self.critical_path) = state
        self._flat = None
        self._endpoints = None

    def flat(self, c: CompiledRRG) -> RouteFlat:
        """Flat defect-detection views of the golden routes, cached."""
        if self._flat is None:
            self._flat = RouteFlat(self.routes, c.n_nodes)
        return self._flat

    def endpoints(self, c: CompiledRRG, netlist: Netlist) -> NetEndpoints:
        """The router's :class:`~repro.route.pathfinder.NetEndpoints` of
        ``netlist`` on the golden placement: the golden route's own when
        they were made for ``netlist``'s index, this placement and
        ``c``, else extracted once and cached for one ``c`` and
        ``netlist`` (another object of either extracts them again, as
        does an unpickled golden, whose route carries none).  They
        cache their endpoint signatures and timing rows in turn, so
        every warm reroute of the golden reads the same ones."""
        ends = self.routes.endpoints
        if ends is not None and all(a is b for a, b in zip(
                ends.made_for, (netlist.index(), self.placement, c))):
            return ends  # the golden route's own
        cached = self._endpoints
        if cached is None or cached[0] is not c or cached[1] is not netlist:
            cached = self._endpoints = (
                c, netlist, _net_endpoints(netlist, self.placement, c))
        return cached[2]


@dataclass
class RepairOutcome:
    """What one die needed to run one workload (one Monte Carlo trial)."""

    level: RepairLevel
    routed: bool
    wirelength: int = 0
    critical_path: float = 0.0
    dirty_nets: int = 0
    n_defects: int = 0

    def overheads(self, golden: GoldenMapping) -> tuple[float, float]:
        """(wirelength, critical-path) ratios vs the golden mapping.

        A zero-wirelength (or zero-delay) golden admits no meaningful
        ratio; the repaired mapping's *absolute* value is reported
        instead, so added wire/delay still registers rather than
        collapsing to a flat 1.0.
        """
        if not self.routed:
            return 0.0, 0.0
        wl = (
            self.wirelength / golden.wirelength
            if golden.wirelength
            else float(self.wirelength)
        )
        cp = (
            self.critical_path / golden.critical_path
            if golden.critical_path
            else self.critical_path
        )
        return wl, cp

    def to_dict(self) -> dict:
        return {
            "level": self.level.name.lower(),
            "routed": self.routed,
            "wirelength": self.wirelength,
            "critical_path": self.critical_path,
            "dirty_nets": self.dirty_nets,
            "n_defects": self.n_defects,
        }


def build_golden(
    c: CompiledRRG,
    netlist: Netlist,
    placement: Placement,
    max_iterations: int,
) -> GoldenMapping | None:
    """Route the defect-free reference mapping (``None`` if unroutable).

    The placement is supplied by the caller so campaigns can share one
    anneal across defect rates and spare-width points (placement does
    not see routing resources — the same invariant the sweep runner's
    placement cache exploits).
    """
    try:
        with span("golden.route"):
            rr = route_context_compiled(
                c, netlist, placement, max_iterations=max_iterations,
            )
    except RoutingError:
        return None
    return GoldenMapping(
        placement, rr, rr.wirelength(c),
        critical_path(c, netlist, rr, placement),
    )


def dirty_net_names(
    routes: RouteResult, dm: DefectMap, flat: RouteFlat | None = None
) -> set[str]:
    """Nets whose golden route crosses a dead wire or dead switch.

    Vectorised over flat per-net node/edge arrays; pass a cached
    :class:`RouteFlat` (``GoldenMapping.flat``) to skip rebuilding the
    views per call.
    """
    if flat is None:
        flat = RouteFlat(routes, dm.n_nodes)
    return flat.dirty_net_names(dm)


def placement_blocked(placement: Placement, dm: DefectMap) -> bool:
    """True when any placed cell sits on a dead logic site."""
    return not dm.bad_tiles.isdisjoint(placement.cells.values())


def repair_mapping(
    c: CompiledRRG,
    netlist: Netlist,
    golden: GoldenMapping,
    dm: DefectMap,
    seed: int = 0,
    effort: float = 0.3,
    max_iterations: int = 25,
) -> RepairOutcome:
    """Climb the repair ladder until the die maps the workload (or not).

    ``seed``/``effort`` parameterise the re-place rung; routing rungs
    inherit ``max_iterations`` so repair verdicts stay comparable with
    sweep verdicts.

    Detection reads the golden's cached flat views, and the
    ROUTE_AROUND rung is warm-started from the golden congestion state
    (healthy routes adopted before any dirty net searches — see
    :func:`~repro.route.pathfinder.route_context_warm`).  The ladder is
    deterministic per input and identical across execution backends.
    """
    flat = golden.flat(c)
    with span("repair.detect"):
        blocked = placement_blocked(golden.placement, dm)
        if blocked:
            dirty: set[str] = set()
        else:
            dirty = dirty_net_names(golden.routes, dm, flat)
    if not blocked and not dirty:
        return RepairOutcome(
            RepairLevel.NONE, True, golden.wirelength, golden.critical_path,
            0, dm.n_defects,
        )

    if not blocked:
        # rung 1: reroute only the dirty nets; healthy routes enter the
        # reuse bank and are adopted verbatim (rip-up only on congestion)
        try:
            with span("repair.route_around"):
                rr = route_context_warm(
                    c, netlist, golden.placement, golden.routes, dirty,
                    defects=dm, max_iterations=max_iterations,
                    signatures=flat.signatures,
                    endpoints=golden.endpoints(c, netlist),
                )
                return RepairOutcome(
                    RepairLevel.ROUTE_AROUND, True, rr.wirelength(c),
                    critical_path(c, netlist, rr, golden.placement),
                    len(dirty), dm.n_defects,
                )
        except RoutingError:
            pass
        # rung 2: full rip-up-and-reroute under the defect mask
        try:
            with span("repair.reroute"):
                rr = route_context_compiled(
                    c, netlist, golden.placement, defects=dm,
                    max_iterations=max_iterations,
                    endpoints=golden.endpoints(c, netlist),
                )
                return RepairOutcome(
                    RepairLevel.REROUTE, True, rr.wirelength(c),
                    critical_path(c, netlist, rr, golden.placement),
                    len(dirty), dm.n_defects,
                )
        except RoutingError:
            pass

    # rung 3: re-place off the dead tiles, then reroute
    try:
        with span("repair.replace"):
            pl = place(
                netlist, dm.params, seed=seed, effort=effort,
                forbidden=dm.bad_tiles,
            )
            rr = route_context_compiled(
                c, netlist, pl, defects=dm, max_iterations=max_iterations,
            )
            return RepairOutcome(
                RepairLevel.REPLACE, True, rr.wirelength(c),
                critical_path(c, netlist, rr, pl),
                len(dirty), dm.n_defects,
            )
    except (PlacementError, RoutingError):
        return RepairOutcome(
            RepairLevel.FAIL, False, 0, 0.0, len(dirty), dm.n_defects
        )
