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

Static timing reads each net's route as its
:class:`~repro.route.pathfinder.RouteTree`: int32 arrays in tree
order, every parent before its children, each edge by its CSR index.
The delay to each node is its parent's plus the stage of the edge
between them, so one pass in tree order times a whole net; the edge
kinds of every tree a call has not timed before come from one gather
of ``CompiledRRG.edge_kind``, and those trees are walked in one loop.
Each tree memoises its sink-delay table (``RouteTree.delay_memo``,
keyed by the substrate and the model), so a net adopted from a golden
routing, which shares the golden's tree, costs a lookup.  The dict
walk this replaces is the test suite's STA oracle
(``tests/oracles/sta_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.compiled import EDGE_KIND_INDEX, CompiledRRG, EdgeKind
from repro.errors import SimulationError
from repro.netlist.index import DFF, LUT, OUTPUT
from repro.netlist.netlist import Netlist
from repro.route.pathfinder import RouteResult, RoutedNet

_PASS, _BUF, _PIN = (EDGE_KIND_INDEX[k] for k in (
    EdgeKind.PASS, EdgeKind.BUF, EdgeKind.PIN))


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


_DEFAULT_MODEL = DelayModel()


def path_delay(
    g: CompiledRRG,
    path: list[int],
    model: DelayModel | None = None,
) -> float:
    """Delay along a node path using edge kinds from the RRG."""
    m = model or _DEFAULT_MODEL
    kinds = g.edge_kinds(np.asarray(path[:-1], dtype=np.int64), path[1:])
    missing = np.flatnonzero(kinds < 0)
    if missing.size:
        at = int(missing[0])
        raise SimulationError(f"no RRG edge {path[at]}->{path[at + 1]}")
    total = 0.0
    chain = 0
    for kind in kinds.tolist():
        if kind == _PASS:
            chain += 1
            total += m.pass_stage(chain)
        elif kind == _BUF:
            total += m.t_buf
            chain = 0
        elif kind == _PIN:
            total += m.t_pin
            chain = 0  # connection blocks are buffered in this model
        else:  # INTERNAL
            pass
    return total


def _sink_tables(g: CompiledRRG, nets, m: DelayModel) -> list[dict]:
    """Each net's ``{sink: delay}`` table, memoised on its tree.

    Trees without a table for ``g`` and ``m`` are timed together: one
    gather of their edges' kinds, then one pass over each tree's
    positions in tree order carrying (delay, chain length) from parent
    to child — a node's value is its parent's plus one stage, the
    arithmetic of the dict walk this replaces.  Raises when a tree is
    not one (a parent after its child), uses an edge the fabric lacks,
    or misses a sink of its net.
    """
    nets = list(nets)
    todo = []
    for net in nets:
        memo = net.tree.delay_memo
        if memo is None or memo[0] is not g or not (
                memo[1] is m or memo[1] == m):
            todo.append(net)
    if todo:
        _time_trees(g, todo, m)
    return [net.tree.delay_memo[2] for net in nets]


def _time_trees(g: CompiledRRG, nets: list[RoutedNet],
                m: DelayModel) -> None:
    trees = [net.tree for net in nets]
    edge = np.concatenate([tree.edge for tree in trees])
    if np.count_nonzero(edge < 0) != len(trees):  # one per root
        for tree, net in zip(trees, nets):
            if np.count_nonzero(tree.edge < 0) > 1:
                raise SimulationError(
                    f"route of net {net.name!r} uses an edge the fabric "
                    "lacks")
    kinds = g.edge_kind[edge].tolist()  # a root's entry is never read
    nl = np.concatenate([tree.node for tree in trees]).tolist()
    pl = np.concatenate([tree.parent for tree in trees]).tolist()
    branches = np.concatenate([tree.branch for tree in trees]).tolist()
    unit = m.r_pass * m.c_seg  # DelayModel.pass_stage's first product
    t_buf, t_pin = m.t_buf, m.t_pin
    at = b = 0
    for tree, net in zip(trees, nets):
        size = len(tree.node)
        delay = [0.0] * size
        chain = [0] * size
        for i in range(1, size):
            p = pl[at + i]
            if not 0 <= p < i:
                raise SimulationError(
                    f"route of net {net.name!r} is not a tree in tree order")
            k = kinds[at + i]
            if k == _PASS:
                c = chain[p] + 1
                delay[i] = delay[p] + unit * c
                chain[i] = c
            elif k == _BUF:
                delay[i] = delay[p] + t_buf
            elif k == _PIN:
                delay[i] = delay[p] + t_pin
            else:
                delay[i] = delay[p]
                chain[i] = chain[p]
        nb = len(tree.branch)
        table = {nl[at + pos]: delay[pos] for pos, _ in branches[b:b + nb]}
        for sink in net.sinks:
            if sink not in table:
                raise SimulationError(
                    f"sink {sink} unreachable in route tree of net "
                    f"{net.name!r}")
        tree.delay_memo = (g, m, table)
        at += size
        b += nb


def route_tree_delays(
    g: CompiledRRG,
    net: RoutedNet,
    model: DelayModel | None = None,
) -> dict[int, float]:
    """Source-to-sink delay for every sink of a routed net.

    One pass over the net's tree (memoised on it); raises if the route
    is not a connected tree.
    """
    table = _sink_tables(g, [net], model or _DEFAULT_MODEL)[0]
    return {sink: table[sink] for sink in net.sinks}


def critical_path(
    g: CompiledRRG,
    netlist: Netlist,
    route: RouteResult,
    placement,
    model: DelayModel | None = None,
) -> float:
    """Static timing analysis of one routed context.

    Arrival at a LUT = max over fanin (driver arrival + routed net delay
    to the LUT's sink) + t_lut.  Returns the worst primary-output /
    DFF-input arrival.

    Net delays come from each net's tree (:func:`_sink_tables`), sink
    nodes from the substrate's ``(tile, pin)`` tables
    (:meth:`CompiledRRG.sink_lists`), and the arrivals from one pass
    over the netlist index's cells in topological order
    (:attr:`NetlistIndex.readers <repro.netlist.index.NetlistIndex.readers>`).
    """
    m = model or _DEFAULT_MODEL
    tables = dict(zip(route.nets, _sink_tables(g, route.nets.values(), m)))
    ix = netlist.index()
    by_net = [tables.get(name) for name in ix.net_names]
    names = ix.cell_names
    lb_rows, io_rows = g.sink_lists()
    cols, rows = g.params.cols, g.params.rows
    # INPUT and DFF outputs arrive at 0.0; a LUT's before its readers
    arrivals = [0.0] * ix.n_nets
    t_lut = m.t_lut
    worst = 0.0
    for c, kind, nets, out in ix.readers:
        arr = 0.0
        if nets:
            # the cell's SINK row: its tile's logic-block pins, or its
            # pad's pins for an output; a pin the fabric lacks is -1
            if kind == OUTPUT:
                at, pad = placement.ios[names[c]]
                table_rows = io_rows
            else:
                at = placement.location(names[c])
                table_rows = lb_rows
            x, y = at.x, at.y
            row = (table_rows[y * cols + x]
                   if 0 <= x < cols and 0 <= y < rows else ())
        for slot, n in enumerate(nets):
            pin = slot if kind == LUT else 0 if kind == DFF else pad
            sink = row[pin] if 0 <= pin < len(row) else -1
            table = by_net[n]
            wire = table.get(sink, 0.0) if table is not None else 0.0
            arr = max(arr, arrivals[n] + wire)
        if kind == LUT:
            arr += t_lut
            arrivals[out] = arr
        worst = max(worst, arr)
    return worst
