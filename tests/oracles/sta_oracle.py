"""Static timing as a dict walk over a route's edge set: a test oracle.

The STA the timing module ran before routes were trees of arrays.  Per
net it builds an adjacency dict from ``RoutedNet.edges``, walks it from
the source carrying (delay, chain length) per node, and finds each
edge's kind by scanning its source's CSR row; the arrivals are one
pass over the cells by name in topological order, each sink looked up
in the substrate's pin tables on its own.  It shares only the
:class:`~repro.route.timing.DelayModel` with :mod:`repro.route.timing`,
whose array STA must equal it bit for bit
(``tests/route/test_sta_oracle.py``).
"""

from __future__ import annotations

from repro.arch.compiled import EDGE_KINDS, CompiledRRG, EdgeKind
from repro.errors import SimulationError
from repro.netlist.netlist import CellKind, Netlist
from repro.route.pathfinder import RouteResult, RoutedNet
from repro.route.timing import DelayModel


def _pin_node(ids, params, x: int, y: int, pin: int) -> int | None:
    """Node ``ids[tile (x, y), pin]`` of a ``(tile, pin)`` table, or
    None where the fabric has no such pin (off the grid, past the
    table's width, or a ``-1`` entry)."""
    if not (0 <= x < params.cols and 0 <= y < params.rows
            and 0 <= pin < ids.shape[1]):
        return None
    node = int(ids[y * params.cols + x, pin])
    return node if node >= 0 else None


def edge_kind(g: CompiledRRG, a: int, b: int) -> EdgeKind:
    """The kind of the first edge ``a -> b`` in ``a``'s CSR row."""
    lo, hi = g.edge_start[a:a + 2].tolist()
    row = g.edge_dst[lo:hi].tolist()
    if b in row:
        return EDGE_KINDS[g.edge_kind[lo + row.index(b)]]
    raise SimulationError(f"no RRG edge {a}->{b}")


def route_tree_delays(
    g: CompiledRRG,
    net: RoutedNet,
    model: DelayModel | None = None,
) -> dict[int, float]:
    """Source-to-sink delay for every sink of a routed net, by a
    relaxing walk over its edge set; raises if the route is not a
    connected tree."""
    m = model or DelayModel()
    adj: dict[int, list[int]] = {}
    for a, b in net.edges:
        adj.setdefault(a, []).append(b)
    state: dict[int, tuple[float, int]] = {net.source: (0.0, 0)}
    stack = [net.source]
    while stack:
        nid = stack.pop()
        d, chain = state[nid]
        for nxt in adj.get(nid, []):
            kind = edge_kind(g, nid, nxt)
            if kind is EdgeKind.PASS:
                nd, nc = d + m.pass_stage(chain + 1), chain + 1
            elif kind is EdgeKind.BUF:
                nd, nc = d + m.t_buf, 0
            elif kind is EdgeKind.PIN:
                nd, nc = d + m.t_pin, 0
            else:
                nd, nc = d, chain
            if nxt not in state or nd < state[nxt][0]:
                state[nxt] = (nd, nc)
                stack.append(nxt)
    out: dict[int, float] = {}
    for sink in net.sinks:
        if sink not in state:
            raise SimulationError(
                f"sink {sink} unreachable in route tree of net {net.name!r}"
            )
        out[sink] = state[sink][0]
    return out


def critical_path(
    g: CompiledRRG,
    netlist: Netlist,
    route: RouteResult,
    placement,
    model: DelayModel | None = None,
) -> float:
    """Worst primary-output / DFF-input arrival of one routed context:
    arrival at a LUT = max over fanin (driver arrival + routed net
    delay to the LUT's sink) + t_lut."""
    m = model or DelayModel()
    net_sink_delay: dict[tuple[str, int], float] = {}
    for net in route.nets.values():
        for sink, d in route_tree_delays(g, net, m).items():
            net_sink_delay[(net.name, sink)] = d

    arrivals: dict[str, float] = {}
    for name in netlist.topo_order():
        cell = netlist.cells[name]
        if cell.kind in (CellKind.INPUT, CellKind.DFF):
            arrivals[cell.output] = 0.0

    def sink_node_for(cell, slot: int) -> int | None:
        if cell.kind in (CellKind.LUT, CellKind.DFF):
            loc = placement.location(cell.name)
            pin = slot if cell.kind is CellKind.LUT else 0
            return _pin_node(g.lb_sink_ids, g.params, loc.x, loc.y, pin)
        if cell.kind is CellKind.OUTPUT:
            coord, pad = placement.ios[cell.name]
            return _pin_node(g.io_sink_ids, g.params, coord.x, coord.y, pad)
        return None

    worst = 0.0
    for name in netlist.topo_order():
        cell = netlist.cells[name]
        if cell.kind not in (CellKind.LUT, CellKind.OUTPUT, CellKind.DFF):
            continue
        arr = 0.0
        for slot, in_net in enumerate(cell.inputs):
            src_arr = arrivals.get(in_net, 0.0)
            sink = sink_node_for(cell, slot)
            wire = (net_sink_delay.get((in_net, sink), 0.0)
                    if sink is not None else 0.0)
            arr = max(arr, src_arr + wire)
        if cell.kind is CellKind.LUT:
            arr += m.t_lut
            arrivals[cell.output] = arr
        worst = max(worst, arr)
    return worst
