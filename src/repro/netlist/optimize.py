"""Netlist optimization passes run before technology mapping.

Three classical cleanups that real flows apply and that matter here
because the workload generators and expression synthesis can emit
redundant structure which would otherwise inflate LUT counts and
distort the redundancy statistics:

- :func:`propagate_constants` — fold constant-driven LUTs into smaller
  tables (repeatedly, to a fixpoint),
- :func:`collapse_buffers` — remove identity LUTs by rewiring their
  fanout (inverters are kept: they cost logic),
- :func:`sweep_dead` — drop cells whose outputs reach no primary output
  or register.

:func:`optimize` chains all three to a fixpoint.  Every pass preserves
I/O names and functional behaviour (property-tested against random
vectors in the suite).
"""

from __future__ import annotations

from repro.netlist.logic import TruthTable
from repro.netlist.netlist import Cell, CellKind, Netlist


def propagate_constants(netlist: Netlist) -> int:
    """Fold constant inputs into LUT tables; returns cells simplified.

    A LUT with a constant-driving fanin gets that input cofactored out;
    a LUT whose table collapses to a constant becomes a 0-input constant
    generator (a later sweep may remove it if unused).
    """
    changed = 0
    # net -> constant value for constant generators
    const_nets: dict[str, int] = {}
    for cell in netlist.luts():
        if cell.table.n_inputs == 0:
            const_nets[cell.output] = cell.table.bits & 1
        elif cell.table.is_constant():
            const_nets[cell.output] = 1 if cell.table.bits else 0

    for cell in list(netlist.luts()):
        while True:
            fold_at = None
            for j, net in enumerate(cell.inputs):
                if net in const_nets:
                    fold_at = (j, const_nets[net])
                    break
            if fold_at is None:
                break
            j, value = fold_at
            cell.table = cell.table.cofactor(j, value)
            cell.inputs.pop(j)
            changed += 1
            if cell.table.is_constant():
                const_nets[cell.output] = 1 if cell.table.bits else 0
                cell.table = TruthTable.constant(
                    1 if cell.table.bits else 0, cell.table.n_inputs
                )
    netlist.invalidate()
    return changed


def collapse_buffers(netlist: Netlist) -> int:
    """Rewire fanout of identity LUTs to their source; returns removals.

    Buffers driving primary-output nets or register-input nets are kept
    when removal would require renaming a net with another driver.
    """
    removed = 0
    identity = TruthTable.identity()
    for cell in list(netlist.luts()):
        if cell.table != identity or len(cell.inputs) != 1:
            continue
        src = cell.inputs[0]
        out = cell.output
        # rewire every consumer of `out` to read `src`
        for consumer in netlist.cells.values():
            consumer_inputs = consumer.inputs
            for j, net in enumerate(consumer_inputs):
                if net == out:
                    consumer_inputs[j] = src
        # if nothing (not even an OUTPUT) still references `out`, drop it
        still_used = any(
            out in c.inputs for c in netlist.cells.values()
        )
        if not still_used:
            del netlist.cells[cell.name]
            del netlist.net_driver[out]
            removed += 1
    netlist.invalidate()
    return removed


def sweep_dead(netlist: Netlist) -> int:
    """Remove LUTs not reachable from primary outputs / DFF inputs."""
    live_nets: set[str] = set()
    stack: list[str] = []
    for cell in netlist.cells.values():
        if cell.kind in (CellKind.OUTPUT, CellKind.DFF):
            stack.extend(cell.inputs)
    while stack:
        net = stack.pop()
        if net in live_nets:
            continue
        live_nets.add(net)
        driver = netlist.net_driver.get(net)
        if driver is not None:
            cell = netlist.cells[driver]
            if cell.kind is CellKind.LUT:
                stack.extend(cell.inputs)
    removed = 0
    for cell in list(netlist.luts()):
        if cell.output not in live_nets:
            del netlist.cells[cell.name]
            del netlist.net_driver[cell.output]
            removed += 1
    netlist.invalidate()
    return removed


def optimize(netlist: Netlist, max_rounds: int = 10) -> dict[str, int]:
    """Run all passes to a fixpoint; returns per-pass change counts."""
    totals = {"constants": 0, "buffers": 0, "dead": 0}
    for _ in range(max_rounds):
        c = propagate_constants(netlist)
        b = collapse_buffers(netlist)
        d = sweep_dead(netlist)
        totals["constants"] += c
        totals["buffers"] += b
        totals["dead"] += d
        if c == b == d == 0:
            break
    netlist.validate()
    return totals
