"""The Python static timing kernel: the fallback and the test twin.

:func:`critical_path_python` does for one routed context what
``_search.c``'s ``time_context`` does in C, with the same arithmetic in
the same order: each net's sink delays from its
:class:`~repro.route.pathfinder.RouteTree` (:func:`sink_tables`), then
one pass over the netlist index's reader cells in topological order.
:mod:`repro.route.timing` imports this module only when the native
kernel cannot run or a caller asks for one net's delays
(:func:`~repro.route.timing.route_tree_delays`), so a process that times
natively never loads it; the tests run both kernels on the same routes.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from repro.arch.compiled import CompiledRRG
from repro.errors import SimulationError
from repro.netlist.index import LUT
from repro.route.pathfinder import RouteResult, RoutedNet
from repro.route.timing import _BUF, _PASS, _PIN, DelayModel


def sink_tables(g: CompiledRRG, nets, m: DelayModel) -> list[dict]:
    """Each net's ``{sink: delay}`` table, memoised on its tree
    (``RouteTree.delay_memo``), so a net adopted from a golden routing,
    which shares the golden's tree, costs a lookup.

    Trees without a table for ``g`` and ``m`` are timed together: one
    gather of their edges' kinds, then one pass over each tree's
    positions in tree order carrying (delay, chain length) from parent
    to child — a node's value is its parent's plus one stage, the
    arithmetic of the dict walk this replaces.  Raises when a tree uses
    an edge the fabric lacks (any tree, before the next two checks), is
    not one (a parent after its child), or misses a sink of its net.
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
    sizes = [tree.node.size for tree in trees]
    edge = np.concatenate([tree.edge for tree in trees])
    lacking = (edge < 0) | (edge >= g.n_edges)
    # a root's entry is never read
    lacking[[at for at, size in zip(accumulate(sizes, initial=0), sizes)
             if size]] = False
    if lacking.any():
        net = nets[bisect_right(list(accumulate(sizes)),
                                int(np.argmax(lacking)))]
        raise SimulationError(
            f"route of net {net.name!r} uses an edge the fabric lacks")
    kinds = g.edge_kind[edge].tolist()
    nl = np.concatenate([tree.node for tree in trees]).tolist()
    pl = np.concatenate([tree.parent for tree in trees]).tolist()
    branches = np.concatenate([tree.branch for tree in trees]).tolist()
    unit = m.r_pass * m.c_seg  # DelayModel.pass_stage's first product
    t_buf, t_pin = m.t_buf, m.t_pin
    at = b = 0
    for tree, net, size in zip(trees, nets, sizes):
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


def critical_path_python(g: CompiledRRG, ix, route: RouteResult,
                         pin_sinks: list[int], m: DelayModel) -> float:
    """:func:`repro.route.timing.critical_path`'s Python body: net
    delays from each net's tree (:func:`sink_tables`), then one pass
    over the index's reader cells in topological order."""
    tables = dict(zip(route.nets, sink_tables(g, route.nets.values(), m)))
    by_net = [tables.get(name) for name in ix.net_names]
    start = ix.in_start.tolist()
    # each input's SINK node, -1 on a net nobody drives
    in_sink = [-1] * ix.in_net.size
    for c, slot, sink in zip(ix.pin_cell.tolist(), ix.pin_slot.tolist(),
                             pin_sinks):
        in_sink[start[c] + slot] = sink
    # INPUT and DFF outputs arrive at 0.0; a LUT's before its readers
    arrivals = [0.0] * ix.n_nets
    t_lut = m.t_lut
    worst = 0.0
    for c, kind, nets, out in ix.readers:
        arr = 0.0
        at = start[c]
        for n in nets:
            table = by_net[n]
            wire = table.get(in_sink[at], 0.0) if table is not None else 0.0
            arr = max(arr, arrivals[n] + wire)
            at += 1
        if kind == LUT:
            arr += t_lut
            arrivals[out] = arr
        worst = max(worst, arr)
    return worst
