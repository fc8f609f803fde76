"""The legacy PathFinder router over the object graph: a test oracle.

The original dict/set implementation of negotiated-congestion routing
(McMurchie & Ebeling, FPGA'95) on a :mod:`rrg_oracle` graph, with
VPR's directed (A*) search computing its bound from the graph's own
node coordinates.  It shares
no search, congestion or endpoint code with
:mod:`repro.route.pathfinder`: the equivalence tests assert the compiled
router reproduces its routes, and ``benchmarks/bench_engine_scaling.py``
and ``benchmarks/bench_sweep_scaling.py`` measure their speed-ups
against it.  Only the result records (:class:`RoutedNet` through
:func:`net_from_paths`, whose trees name edges by the compiled
substrate's CSR indexes, and :class:`RouteResult`), the schedule
constants (the bound's weight ``ASTAR_FAC`` among them) and
:func:`endpoint_signature` are imported, so both routers hand back the
same types and price nodes with the same numbers.
"""

from __future__ import annotations

import heapq

from repro.arch.compiled import LENGTH_COST_FACTOR, NodeKind, flat_rrg_for
from repro.errors import RoutingError
from repro.netlist.dfg import MultiContextProgram
from repro.netlist.netlist import CellKind, Netlist
from repro.place.placer import Placement
from repro.route.pathfinder import (
    ASTAR_FAC,
    HIST_FAC,
    MAX_ITERATIONS,
    PRES_FAC_FIRST,
    PRES_FAC_MULT,
    RouteResult,
    RoutedNet,
    endpoint_signature,
    net_from_paths,
)
from rrg_oracle import RoutingResourceGraph


def net_endpoints(
    netlist: Netlist, placement: Placement, g: RoutingResourceGraph
) -> list[tuple[str, int, list[int]]]:
    """``(net name, source node, sink nodes)`` of every routable net.

    Name-keyed, over ``netlist.net_driver``, the cells' inputs and the
    graph's ``(x, y, pin)`` dicts: a LUT's input slot ``s`` sinks at its
    tile's SINK ``s``, a DFF at SINK 0 and a primary output at its pad's
    SINK; an input sources at its pad's SOURCE, a LUT or DFF at its
    tile's SOURCE 0.  Nets come in ``net_driver`` order, each sink list
    sorted and without repeats; nets nobody reads are left out.
    """
    readers: dict[str, list[int]] = {}
    for cell in netlist.cells.values():
        for slot, net in enumerate(cell.inputs):
            if cell.kind in (CellKind.LUT, CellKind.DFF):
                loc = placement.location(cell.name)
                pin = slot if cell.kind is CellKind.LUT else 0
                sink = g.lb_sink[(loc.x, loc.y, pin)]
            elif cell.kind is CellKind.OUTPUT:
                coord, pad = placement.ios[cell.name]
                sink = g.io_sink[(coord.x, coord.y, pad)]
            else:
                continue
            readers.setdefault(net, []).append(sink)
    out: list[tuple[str, int, list[int]]] = []
    for net, driver_name in netlist.net_driver.items():
        sinks = readers.get(net)
        if not sinks:
            continue
        driver = netlist.cells[driver_name]
        if driver.kind is CellKind.INPUT:
            coord, pad = placement.ios[driver.name]
            source = g.io_source[(coord.x, coord.y, pad)]
        else:
            loc = placement.location(driver.name)
            source = g.lb_source[(loc.x, loc.y, 0)]
        out.append((net, source, sorted(set(sinks))))
    return out


def wirelength(g: RoutingResourceGraph, result: RouteResult) -> int:
    """Wire segments a routing occupies, walked node by node."""
    total = 0
    for net in result.nets.values():
        for nid in net.nodes:
            if g.nodes[nid].kind in (NodeKind.CHANX, NodeKind.CHANY):
                total += g.nodes[nid].length
    return total


class _CongestionState:
    """Per-context PathFinder bookkeeping (legacy object-graph router)."""

    def __init__(self, n_nodes: int) -> None:
        self.usage = [0] * n_nodes
        self.history = [0.0] * n_nodes
        self.pres_fac = PRES_FAC_FIRST

    def node_cost(self, g: RoutingResourceGraph, nid: int) -> float:
        node = g.nodes[nid]
        base = 1.0 + LENGTH_COST_FACTOR * (node.length - 1)
        over = max(0, self.usage[nid] + 1 - node.capacity)
        return base * (1.0 + self.pres_fac * over) + self.history[nid]

    def add(self, nodes: set[int]) -> None:
        for n in nodes:
            self.usage[n] += 1

    def remove(self, nodes: set[int]) -> None:
        for n in nodes:
            self.usage[n] -= 1

    def overused(self, g: RoutingResourceGraph) -> int:
        return sum(
            1 for nid, u in enumerate(self.usage) if u > g.nodes[nid].capacity
        )

    def bump_history(self, g: RoutingResourceGraph) -> None:
        for nid, u in enumerate(self.usage):
            if u > g.nodes[nid].capacity:
                self.history[nid] += HIST_FAC * (u - g.nodes[nid].capacity)


def _extent(node) -> tuple[int, int, int, int]:
    """``(xlo, xhi, ylo, yhi)``: the tiles a node touches.  A wire in
    channel ``c`` lies between tile rows (columns) ``c - 1`` and ``c``
    and covers ``length`` tiles from ``pos`` along it; a pin sits on
    its tile."""
    if node.kind is NodeKind.CHANX:
        return node.pos, node.pos + node.length - 1, node.y - 1, node.y
    if node.kind is NodeKind.CHANY:
        return node.x - 1, node.x, node.pos, node.pos + node.length - 1
    return node.x, node.x, node.y, node.y


def _astar_to_sink(
    g: RoutingResourceGraph,
    state: _CongestionState,
    tree_nodes: set[int],
    target: int,
) -> list[int]:
    """Cheapest path from the current route tree to ``target``: A* on
    ``(g + h, -g, node)``, ``h`` the tile gap to the target times
    ``ASTAR_FAC``."""
    tx, ty = g.nodes[target].x, g.nodes[target].y

    def h(nid: int) -> float:
        xlo, xhi, ylo, yhi = _extent(g.nodes[nid])
        return ASTAR_FAC * (max(0, xlo - tx, tx - xhi)
                            + max(0, ylo - ty, ty - yhi))

    dist: dict[int, float] = {}
    prev: dict[int, int] = {}
    heap: list[tuple[float, float, int]] = []
    for n in tree_nodes:
        dist[n] = 0.0
        heapq.heappush(heap, (h(n), -0.0, n))
    while heap:
        _f, neg, nid = heapq.heappop(heap)
        d = -neg
        if d > dist.get(nid, float("inf")):
            continue
        if nid == target:
            path = [nid]
            while path[-1] not in tree_nodes:
                path.append(prev[path[-1]])
            path.reverse()
            return path
        for nxt, _kind in g.out_edges[nid]:
            if g.nodes[nxt].kind is NodeKind.SINK and nxt != target:
                continue
            nd = d + state.node_cost(g, nxt)
            if nd < dist.get(nxt, float("inf")):
                dist[nxt] = nd
                prev[nxt] = nid
                heapq.heappush(heap, (nd + h(nxt), -nd, nxt))
    raise RoutingError(f"no path to sink node {target} ({g.nodes[target].name})")


def _route_net(
    g: RoutingResourceGraph,
    state: _CongestionState,
    name: str,
    source: int,
    sinks: list[int],
) -> RoutedNet:
    nodes = {source}
    sink_paths: dict[int, list[int]] = {}
    for sink in sinks:
        path = _astar_to_sink(g, state, nodes, sink)
        sink_paths[sink] = list(path)
        nodes.update(path)
    return net_from_paths(flat_rrg_for(g.params), name, source, sinks,
                          sink_paths.items())


def route_context_legacy(
    g: RoutingResourceGraph,
    netlist: Netlist,
    placement: Placement,
    context: int = 0,
    reuse: dict[str, RoutedNet] | None = None,
    max_iterations: int = MAX_ITERATIONS,
) -> RouteResult:
    """Route one context with the original dict/set PathFinder."""
    endpoints = net_endpoints(netlist, placement, g)
    state = _CongestionState(g.n_nodes)
    routes: dict[str, RoutedNet] = {}

    # initial routing (reuse first, then fresh)
    for name, source, sinks in endpoints:
        sig = endpoint_signature(source, sinks)
        prior = reuse.get(sig) if reuse else None
        if prior is not None:
            net = net_from_paths(
                flat_rrg_for(g.params), name, source, sinks,
                [(k, list(v)) for k, v in prior.sink_paths.items()])
            net.reused = True
            routes[name] = net
            state.add(net.nodes)
        else:
            net = _route_net(g, state, name, source, sinks)
            routes[name] = net
            state.add(net.nodes)

    iteration = 1
    while state.overused(g):
        if iteration >= max_iterations:
            raise RoutingError(
                f"context {context}: congestion unresolved after "
                f"{max_iterations} iterations ({state.overused(g)} overused "
                "nodes)"
            )
        state.bump_history(g)
        state.pres_fac *= PRES_FAC_MULT
        # rip up and reroute congested nets only
        for name, net in routes.items():
            if all(state.usage[n] <= g.nodes[n].capacity for n in net.nodes):
                continue
            state.remove(net.nodes)
            fresh = _route_net(g, state, name, net.source, net.sinks)
            routes[name] = fresh
            state.add(fresh.nodes)
        iteration += 1
    return RouteResult(routes, iteration, context)


def route_program_legacy(
    g: RoutingResourceGraph,
    program: MultiContextProgram,
    placements: list[Placement],
    share_aware: bool = True,
) -> list[RouteResult]:
    """Route all contexts with the legacy object-graph router."""
    if len(placements) != program.n_contexts:
        raise RoutingError("one placement per context required")
    results: list[RouteResult] = []
    bank: dict[str, RoutedNet] = {}
    for ci, (netlist, placement) in enumerate(zip(program.contexts, placements)):
        res = route_context_legacy(
            g, netlist, placement, context=ci, reuse=bank if share_aware else None
        )
        results.append(res)
        if share_aware:
            for net in res.nets.values():
                bank.setdefault(endpoint_signature(net.source, net.sinks), net)
    return results
