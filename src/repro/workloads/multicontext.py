"""Multi-context workload construction.

Two generators produce programs with *controllable* inter-context
redundancy — the knob the paper's evaluation sweeps implicitly via its
5% change-rate assumption:

- :func:`mutated_program` — context ``c+1`` is context ``c`` with a
  fraction of LUT functions perturbed; the measured bitstream change
  rate tracks the mutation fraction.
- :func:`temporal_partition` — one large netlist sliced into depth bands
  executed round-robin (the DPGA use model [DeHon 96]); redundancy here
  arises naturally from I/O and wiring reuse, not by construction.

:func:`workload_suite` is the named benchmark set used by the
experiment drivers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SynthesisError
from repro.netlist.logic import TruthTable
from repro.netlist.netlist import Cell, CellKind, Netlist
from repro.netlist.dfg import MultiContextProgram
from repro.utils.bitops import mask as ones
from repro.utils.rng import ensure_rng
from repro.workloads import generators as gen


def mutate_netlist(
    netlist: Netlist,
    fraction: float,
    seed: int | np.random.Generator | None = 0,
    rewire_prob: float = 0.25,
) -> Netlist:
    """Return a copy with ``fraction`` of LUT cells perturbed.

    A perturbed cell gets a new random truth table of the same arity
    (always a *different* one), and with probability ``rewire_prob`` one
    input rewired to another net of equal or shallower depth — modelling
    a context that re-purposes part of the fabric.
    """
    if not 0.0 <= fraction <= 1.0:
        raise SynthesisError(f"fraction must be in [0, 1], got {fraction}")
    rng = ensure_rng(seed)
    out = netlist.copy(f"{netlist.name}_mut")
    luts = out.luts()
    n_mutate = int(round(fraction * len(luts)))
    if n_mutate == 0:
        return out
    picks = rng.choice(len(luts), size=n_mutate, replace=False)

    # candidate nets for rewiring, by combinational level
    level: dict[str, int] = {}
    for name in out.topo_order():
        cell = out.cells[name]
        if cell.kind is CellKind.INPUT:
            level[cell.output] = 0
        elif cell.kind is CellKind.DFF:
            level[cell.output] = 0
        elif cell.kind is CellKind.LUT:
            lv = 0
            for net in cell.inputs:
                lv = max(lv, level.get(net, 0) + 1)
            level[cell.output] = lv

    for p in picks:
        cell = luts[int(p)]
        n = cell.table.n_inputs
        space = ones(1 << n)
        new_bits = cell.table.bits
        while new_bits == cell.table.bits:
            new_bits = int(rng.integers(0, space + 1))
        cell.table = TruthTable(n, new_bits)
        if n > 0 and rng.random() < rewire_prob:
            slot = int(rng.integers(n))
            my_level = level.get(cell.output, 1)
            candidates = [
                net for net, lv in level.items()
                if lv < my_level and net != cell.output
            ]
            if candidates:
                cell.inputs[slot] = candidates[int(rng.integers(len(candidates)))]
    out.invalidate()
    out.validate()
    return out


def mutated_program(
    base: Netlist,
    n_contexts: int = 4,
    fraction: float = 0.05,
    seed: int | np.random.Generator | None = 0,
) -> MultiContextProgram:
    """Chain of mutated contexts: ctx0 = base, ctx{c+1} = mutate(ctx_c)."""
    rng = ensure_rng(seed)
    contexts = [base.copy(f"{base.name}_c0")]
    for c in range(1, n_contexts):
        nxt = mutate_netlist(contexts[-1], fraction, seed=rng)
        nxt.name = f"{base.name}_c{c}"
        contexts.append(nxt)
    return MultiContextProgram(contexts, name=f"{base.name}_x{n_contexts}")


def temporal_partition(
    netlist: Netlist,
    n_contexts: int = 4,
    name: str | None = None,
) -> MultiContextProgram:
    """Slice a combinational netlist into depth bands, one per context.

    Nets crossing a band boundary become context-register pairs: the
    producing context exports ``P_<net>`` and the consuming context
    imports ``<net>`` as a primary input — matching the conventions of
    :class:`~repro.sim.context_switch.MultiContextExecutor`.
    """
    netlist.validate()
    if netlist.dffs():
        raise SynthesisError("temporal partitioning expects combinational input")
    if n_contexts < 1:
        raise SynthesisError("n_contexts must be >= 1")

    # level per LUT cell
    level: dict[str, int] = {}
    max_level = 1
    for cname in netlist.topo_order():
        cell = netlist.cells[cname]
        if cell.kind is not CellKind.LUT:
            continue
        lv = 1
        for net in cell.inputs:
            drv = netlist.driver_cell(net)
            if drv.kind is CellKind.LUT:
                lv = max(lv, level[drv.name] + 1)
        level[cname] = lv
        max_level = max(max_level, lv)

    bands = min(n_contexts, max_level)
    per_band = max_level / bands

    def band_of(cell_name: str) -> int:
        return min(bands - 1, int((level[cell_name] - 1) / per_band))

    contexts: list[Netlist] = []
    for b in range(bands):
        sub = Netlist(f"{netlist.name}_part{b}")
        members = [cn for cn, _ in level.items() if band_of(cn) == b]
        member_outputs = {netlist.cells[cn].output for cn in members}
        # inputs: any net read by a member that is not produced in-band
        needed: list[str] = []
        for cn in members:
            for net in netlist.cells[cn].inputs:
                if net not in member_outputs and net not in needed:
                    needed.append(net)
        for net in needed:
            sub.add_input(f"in_{net}", net)
        for cn in members:
            cell = netlist.cells[cn]
            sub.add_lut(cn, list(cell.inputs), cell.output, cell.table)
        # outputs: member nets read outside the band, or primary outputs
        exported: set[str] = set()
        for cn2, cell2 in netlist.cells.items():
            if cell2.kind is CellKind.LUT and band_of(cn2) != b:
                for net in cell2.inputs:
                    if net in member_outputs:
                        exported.add(net)
            elif cell2.kind is CellKind.OUTPUT and cell2.inputs[0] in member_outputs:
                exported.add(cell2.inputs[0])
        for net in sorted(exported):
            sub.add_output(f"P_{net}", net)
        sub.validate()
        contexts.append(sub)
    # pad with copies of the last band if the netlist is shallower than
    # the requested context count
    while len(contexts) < n_contexts:
        contexts.append(contexts[-1].copy(f"{netlist.name}_pad{len(contexts)}"))
    return MultiContextProgram(contexts, name=name or f"{netlist.name}_tp{n_contexts}")


def workload_suite(
    n_contexts: int = 4,
    change_rate: float = 0.05,
    seed: int = 7,
    small: bool = False,
) -> dict[str, MultiContextProgram]:
    """The named benchmark set for the paper's experiments.

    Mixes mutation-derived programs (controlled change rate) with
    temporally partitioned arithmetic (natural DPGA workloads).
    ``small=True`` keeps runtimes test-friendly.
    """
    from repro.netlist.techmap import tech_map

    rng = ensure_rng(seed)
    suite: dict[str, MultiContextProgram] = {}

    adder = tech_map(gen.ripple_adder(2 if small else 4), k=4)
    suite["adder_mut"] = mutated_program(adder, n_contexts, change_rate, seed=rng)

    rand = tech_map(
        gen.random_dag(n_inputs=5, n_gates=10 if small else 24, n_outputs=3, seed=11),
        k=4,
    )
    suite["random_mut"] = mutated_program(rand, n_contexts, change_rate, seed=rng)

    crc = tech_map(gen.crc_step(4 if small else 8), k=4)
    suite["crc_tp"] = temporal_partition(crc, n_contexts)

    if not small:
        par = tech_map(gen.parity_tree(8), k=4)
        suite["parity_tp"] = temporal_partition(par, n_contexts)
        cmpc = tech_map(gen.comparator(4), k=4)
        suite["cmp_mut"] = mutated_program(cmpc, n_contexts, change_rate, seed=rng)
    return suite
