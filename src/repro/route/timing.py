"""Timing: SE-chain (RCM) delay vs. buffered double-length lines.

Paper Section 3: "The delay is large if a signal is routed through many
SEs in series" — series pass-gates form an RC ladder whose Elmore delay
grows *quadratically* with chain length, which is why the architecture
adds buffered double-length lines that bypass alternate diamond switches
and routes critical paths over them.

The model:

- a PASS edge (SE pass-gate) appends one (R_pass, C_seg) stage to the
  current unbuffered ladder; its incremental Elmore contribution is
  ``R_pass * C_seg * chain_position`` — the k-th series pass-gate costs
  k times the first one;
- a BUF edge (double-length line driver) adds a fixed buffer delay and
  *resets* the ladder;
- PIN/INTERNAL edges add small constants.

Units are normalized to the delay of one isolated SE hop (R*C = 1.0).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.compiled import EDGE_KINDS, CompiledRRG, EdgeKind
from repro.errors import SimulationError
from repro.netlist.netlist import CellKind, Netlist
from repro.route.pathfinder import RouteResult, RoutedNet


@dataclass(frozen=True)
class DelayModel:
    """Normalized delay constants.

    ``r_pass * c_seg`` is the unit; a chain of ``n`` SEs then costs
    ``n*(n+1)/2`` units (Elmore ladder).  ``t_buf`` is the fixed delay of
    a double-length line driver including its two-tile wire flight;
    ``t_pin`` covers connection-block switches; ``t_lut`` one LUT lookup.
    """

    r_pass: float = 1.0
    c_seg: float = 1.0
    t_buf: float = 1.4
    t_pin: float = 0.3
    t_lut: float = 1.0

    def pass_stage(self, chain_position: int) -> float:
        """Incremental Elmore delay of the ``chain_position``-th series SE
        (1-based)."""
        return self.r_pass * self.c_seg * chain_position


def chain_delay(n_series_ses: int, model: DelayModel | None = None) -> float:
    """Total delay of ``n`` SEs in series: the quadratic ladder.

    >>> chain_delay(1)
    1.0
    >>> chain_delay(4)
    10.0
    """
    m = model or DelayModel()
    return sum(m.pass_stage(i) for i in range(1, n_series_ses + 1))


def path_delay(
    g: CompiledRRG,
    path: list[int],
    model: DelayModel | None = None,
) -> float:
    """Delay along a node path using edge kinds from the RRG."""
    m = model or DelayModel()
    total = 0.0
    chain = 0
    for a, b in zip(path, path[1:]):
        kind = _edge_kind(g, a, b)
        if kind is EdgeKind.PASS:
            chain += 1
            total += m.pass_stage(chain)
        elif kind is EdgeKind.BUF:
            total += m.t_buf
            chain = 0
        elif kind is EdgeKind.PIN:
            total += m.t_pin
            chain = 0  # connection blocks are buffered in this model
        else:  # INTERNAL
            pass
    return total


def _edge_kind(g: CompiledRRG, a: int, b: int) -> EdgeKind:
    lo, hi = g.edge_start[a:a + 2].tolist()
    row = g.edge_dst[lo:hi].tolist()
    if b in row:
        return EDGE_KINDS[g.edge_kind[lo + row.index(b)]]
    raise SimulationError(f"no RRG edge {a}->{b}")


def _pin_node(ids, params, x: int, y: int, pin: int) -> int | None:
    """Node ``ids[tile (x, y), pin]`` of a ``(tile, pin)`` table, or
    None where the fabric has no such pin (off the grid, past the
    table's width, or a ``-1`` entry)."""
    if not (0 <= x < params.cols and 0 <= y < params.rows
            and 0 <= pin < ids.shape[1]):
        return None
    node = int(ids[y * params.cols + x, pin])
    return node if node >= 0 else None


def route_tree_delays(
    g: CompiledRRG,
    net: RoutedNet,
    model: DelayModel | None = None,
) -> dict[int, float]:
    """Source-to-sink delay for every sink of a routed net.

    Walks the route tree from the source, carrying (delay, chain length)
    per node; raises if the route is not a connected tree.
    """
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
            kind = _edge_kind(g, nid, nxt)
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


def route_net_delays(
    g: CompiledRRG,
    route: RouteResult,
    model: DelayModel | None = None,
) -> dict[str, dict[int, float]]:
    """Per-net sink-delay tables for a whole routed context.

    The cacheable half of :func:`critical_path`: the repair ladder
    computes these once for the golden routing and hands them back via
    ``reuse_delays`` so trials only re-walk the nets they rerouted.
    """
    m = model or DelayModel()
    return {
        net.name: route_tree_delays(g, net, m)
        for net in route.nets.values()
    }


def critical_path(
    g: CompiledRRG,
    netlist: Netlist,
    route: RouteResult,
    placement,
    model: DelayModel | None = None,
    reuse_delays: dict[str, dict[int, float]] | None = None,
) -> float:
    """Static timing analysis of one routed context.

    Arrival at a LUT = max over fanin (driver arrival + routed net delay
    to the LUT's sink) + t_lut.  Returns the worst primary-output /
    DFF-input arrival.

    Edge kinds come from the substrate's CSR arrays and sink nodes
    from its ``(tile, pin)`` tables.

    ``reuse_delays`` (from :func:`route_net_delays` on a previous
    routing) supplies ready-made sink-delay tables for nets whose
    ``reused`` flag shows they still carry that exact route — the
    delay walk is a pure function of the route tree, so reusing the
    table is bit-identical to recomputing it.  Nets routed fresh (or
    ripped up, which clears the flag) are always re-walked.
    """
    m = model or DelayModel()
    net_sink_delay: dict[tuple[str, int], float] = {}
    for net in route.nets.values():
        if reuse_delays is not None and net.reused:
            prior = reuse_delays.get(net.name)
            if prior is not None:
                for sink, d in prior.items():
                    net_sink_delay[(net.name, sink)] = d
                continue
        for sink, d in route_tree_delays(g, net, m).items():
            net_sink_delay[(net.name, sink)] = d

    arrivals: dict[str, float] = {}
    for name in netlist.topo_order():
        cell = netlist.cells[name]
        if cell.kind is CellKind.INPUT:
            arrivals[cell.output] = 0.0
        elif cell.kind is CellKind.DFF:
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
            wire = net_sink_delay.get((in_net, sink), 0.0) if sink is not None else 0.0
            arr = max(arr, src_arr + wire)
        if cell.kind is CellKind.LUT:
            arr += m.t_lut
            arrivals[cell.output] = arr
        worst = max(worst, arr)
    return worst
