"""Technology mapping: cover a gate netlist with k-input LUTs.

A FlowMap-flavoured cut-based mapper: enumerate small cuts per node in
topological order, pick per-node best cuts by (depth, leaf count), then
cover the network from its roots.  A cone's truth table is one walk
over its cut leaves' projection masks (cuts are ≤ k ≤ 8 inputs, so
at most 256 lanes).

The result is a pure-LUT :class:`~repro.netlist.netlist.Netlist` whose
LUTs have at most ``k`` inputs — the form the MCMG-LUT logic blocks and
the placer consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MappingError
from repro.netlist.logic import TruthTable, lut_value, projections
from repro.netlist.netlist import Cell, CellKind, Netlist

#: Cap on cuts kept per node (keeps enumeration near-linear).
MAX_CUTS_PER_NODE = 12


@dataclass(frozen=True)
class _Cut:
    leaves: frozenset
    depth: int

    @property
    def size(self) -> int:
        return len(self.leaves)


def tech_map(netlist: Netlist, k: int = 4, name: str | None = None) -> Netlist:
    """Map ``netlist`` (any-arity LUT cells) into k-input LUTs.

    Functional equivalence is guaranteed by construction (cone
    simulation) and asserted by the test-suite's property tests.
    """
    if k < 2:
        raise MappingError(f"LUT size must be >= 2, got {k}")
    netlist.validate()

    # --- cut enumeration over LUT cells (nets are the graph vertices) --- #
    # A net's cuts; source nets (PIs, DFF outputs) have only themselves.
    cuts: dict[str, list[_Cut]] = {}
    best: dict[str, _Cut] = {}

    def source_cut(net: str) -> list[_Cut]:
        return [_Cut(frozenset([net]), 0)]

    # Seed source nets first: topo_order does not constrain INPUT/DFF cells
    # to precede their fanouts (they are order-free sources).
    for cell in netlist.cells.values():
        if cell.kind in (CellKind.INPUT, CellKind.DFF):
            cuts[cell.output] = source_cut(cell.output)
            best[cell.output] = cuts[cell.output][0]

    for cell_name in netlist.topo_order():
        cell = netlist.cells[cell_name]
        if cell.kind is CellKind.LUT:
            out = cell.output
            if not cell.inputs:  # constant generator
                cuts[out] = [_Cut(frozenset(), 1)]
                best[out] = cuts[out][0]
                continue
            merged: set[frozenset] = set()
            candidates: list[_Cut] = []
            # merge one cut choice per fanin (greedy cartesian with cap);
            # the fanin's trivial cut (its own net, stored last) is always
            # included so a feasible merge exists whenever arity <= k
            choice_lists = []
            for n in cell.inputs:
                lst = cuts[n][:3]
                trivial = cuts[n][-1]
                if trivial not in lst:
                    lst = lst + [trivial]
                choice_lists.append(lst)
            stack = [(frozenset(), 0)]
            while stack:
                leaves, idx = stack.pop()
                if idx == len(choice_lists):
                    if len(leaves) <= k and leaves not in merged:
                        merged.add(leaves)
                        # FlowMap-style label: 1 + max leaf label, where a
                        # leaf's label is its own best-cut depth
                        depth = 1 + max(
                            (best[l].depth for l in leaves), default=0
                        )
                        candidates.append(_Cut(leaves, depth))
                    continue
                for c in choice_lists[idx]:
                    u = leaves | c.leaves
                    if len(u) <= k:
                        stack.append((u, idx + 1))
            # the trivial cut (the net itself) lets fanouts stop here
            candidates.sort(key=lambda c: (c.depth, c.size))
            kept = candidates[:MAX_CUTS_PER_NODE]
            if not kept:
                raise MappingError(
                    f"no feasible {k}-cut for cell {cell_name!r} "
                    f"(arity {len(cell.inputs)} > {k}?)"
                )
            best[out] = kept[0]
            kept = kept + [_Cut(frozenset([out]), kept[0].depth)]
            cuts[out] = kept

    # --- covering from roots -------------------------------------------- #
    mapped = Netlist(name or f"{netlist.name}_lut{k}")
    for c in netlist.inputs():
        mapped.add_input(c.name, c.output)
    for c in netlist.dffs():
        mapped.add_dff(c.name, c.inputs[0], c.output)

    visited: set[str] = set()

    def realize(net: str) -> None:
        """Ensure ``net`` is driven in the mapped netlist."""
        if net in visited:
            return
        visited.add(net)
        driver = netlist.driver_cell(net)
        if driver.kind in (CellKind.INPUT, CellKind.DFF):
            return
        cut = best[net]
        leaves = sorted(cut.leaves)
        table = _cone_table(netlist, net, leaves)
        table, kept = table.shrink_to_support()
        leaves = [leaves[i] for i in kept]
        mapped.add_lut(f"m_{net}", leaves, net, table)
        for leaf in leaves:
            realize(leaf)

    roots: list[str] = []
    for c in netlist.outputs():
        roots.append(c.inputs[0])
    for c in netlist.dffs():
        roots.append(c.inputs[0])
    for net in roots:
        driver = netlist.driver_cell(net)
        if driver.kind is CellKind.LUT:
            realize(net)
    for c in netlist.outputs():
        mapped.add_output(c.name, c.inputs[0])
    mapped.validate()
    return mapped


def _cone_table(netlist: Netlist, root: str, leaves: list[str]) -> TruthTable:
    """Truth table of the cone rooted at ``root`` with the given leaves:
    the cone evaluated once, over every input word as lanes."""
    n = len(leaves)
    if n > 8:
        raise MappingError(f"cone with {n} leaves exceeds simulation limit")
    full, masks = projections(n)
    values = dict(zip(leaves, masks))

    def lanes(net: str) -> int:
        if net not in values:
            driver = netlist.driver_cell(net)
            if driver.kind is not CellKind.LUT:
                raise MappingError(
                    f"cone evaluation escaped through non-LUT driver of {net!r}"
                )
            values[net] = lut_value(
                driver.table.bits, [lanes(i) for i in driver.inputs], full
            )
        return values[net]

    return TruthTable(n, lanes(root))


def mapping_stats(original: Netlist, mapped: Netlist) -> dict[str, float]:
    """Before/after statistics used by the MCMG granularity benches."""
    return {
        "gates": len(original.luts()),
        "luts": len(mapped.luts()),
        "depth_before": original.depth(),
        "depth_after": mapped.depth(),
        "compression": len(original.luts()) / max(1, len(mapped.luts())),
    }
