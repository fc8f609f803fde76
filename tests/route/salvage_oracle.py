"""Pair-by-pair reference for the warm-reroute salvage.

:func:`healthy_sink_paths` is the salvage as the router first wrote it:
each sink's chain is rebuilt through parent pointers and tested on its
own, node by node against ``node_ok`` and pair by pair against a Python
set of dead ``(src, dst)`` switches.  The set is formed here from the
map's ``switch_defects`` and the substrate's CSR arrays, so the oracle
shares no code with the batched test in
:func:`repro.route.pathfinder._healthy_sink_paths`.
"""

from __future__ import annotations

from repro.arch.compiled import CompiledRRG
from repro.reliability import DefectMap
from repro.route.pathfinder import RoutedNet


def dead_edge_pairs(c: CompiledRRG, dm: DefectMap) -> set[tuple[int, int]]:
    """Every dead switch of ``dm`` as a ``(src, dst)`` node pair."""
    src = c.edge_src_ids()
    return {(int(src[e]), int(c.edge_dst[e]))
            for e in dm.switch_defects.tolist()}


def healthy_sink_paths(
    prior: RoutedNet, dm: DefectMap, c: CompiledRRG
) -> dict[int, list[int]]:
    """Full source->sink chains of ``prior`` untouched by defects, in
    ``sink_paths`` order; malformed tree records are skipped."""
    parent: dict[int, int] = {}
    for branch in prior.sink_paths.values():
        for a, b in zip(branch, branch[1:]):
            parent.setdefault(b, a)
    node_ok = dm.node_ok
    bad_edges = dead_edge_pairs(c, dm)
    limit = len(parent) + 1
    keep: dict[int, list[int]] = {}
    for sink in prior.sink_paths:
        chain = [sink]
        node = sink
        while node != prior.source:
            node = parent.get(node, -1)
            if node < 0 or len(chain) > limit:
                break
            chain.append(node)
        if chain[-1] != prior.source:
            continue
        chain.reverse()
        if not bool(node_ok[chain].all()):
            continue
        if bad_edges and any(
            (a, b) in bad_edges for a, b in zip(chain, chain[1:])
        ):
            continue
        keep[sink] = chain
    return keep
