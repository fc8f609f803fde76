"""Equivalence checking between netlists and against configured devices.

The reproduction's trust chain: synthesis → optimization → technology
mapping → placement/routing → device configuration must all preserve
function.  This module provides the checkers the test-suite and flows
lean on:

- :func:`equivalent` — exhaustive for small input counts, Monte-Carlo
  beyond, every vector at once as lane words
  (:meth:`Netlist.evaluate_lanes
  <repro.netlist.netlist.Netlist.evaluate_lanes>`), with a
  counterexample on failure;
- :func:`verify_device` — configured-device vs source-program check for
  every context;
- :class:`Miter` — XOR-miter construction for structural flows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fpga import MultiContextFPGA
from repro.errors import SimulationError
from repro.netlist.dfg import MultiContextProgram
from repro.netlist.logic import TruthTable, projections, random_lanes
from repro.netlist.netlist import Netlist
from repro.utils.rng import ensure_rng

#: Exhaustive checking is used up to this many primary inputs (2^18
#: vectors, one 32 KiB lane word per net).
EXHAUSTIVE_LIMIT = 18


@dataclass
class EquivalenceResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    vectors_checked: int
    exhaustive: bool
    counterexample: dict[str, int] | None = None
    mismatched_output: str | None = None


def _common_io(a: Netlist, b: Netlist) -> tuple[list[str], list[str]]:
    in_a = sorted(c.output for c in a.inputs())
    in_b = sorted(c.output for c in b.inputs())
    if in_a != in_b:
        raise SimulationError(f"input sets differ: {in_a} vs {in_b}")
    out_a = sorted(c.name for c in a.outputs())
    out_b = sorted(c.name for c in b.outputs())
    if out_a != out_b:
        raise SimulationError(f"output sets differ: {out_a} vs {out_b}")
    return in_a, out_a


def equivalent(
    a: Netlist,
    b: Netlist,
    n_random: int = 4096,
    seed: int = 0,
) -> EquivalenceResult:
    """Check combinational equivalence of two netlists.

    Exhaustive when the shared input count is at most
    :data:`EXHAUSTIVE_LIMIT` (lane ``w`` is input word ``w``);
    otherwise ``n_random`` random vectors, every lane drawn.  The
    counterexample is the first vector on which an output (in sorted
    order) differs.
    """
    inputs, outputs = _common_io(a, b)
    exhaustive = len(inputs) <= EXHAUSTIVE_LIMIT
    if exhaustive:
        lanes = 1 << len(inputs)
        stim = dict(zip(inputs, projections(len(inputs))[1]))
    else:
        rng = ensure_rng(seed)
        lanes = n_random
        stim = {name: random_lanes(rng, lanes) for name in inputs}
    va = a.evaluate_lanes(stim, lanes)
    vb = b.evaluate_lanes(stim, lanes)
    for oname in outputs:
        diff = va[a.cells[oname].inputs[0]] ^ vb[b.cells[oname].inputs[0]]
        if diff:
            lane = (diff & -diff).bit_length() - 1
            cex = {name: (stim[name] >> lane) & 1 for name in inputs}
            return EquivalenceResult(False, lanes, exhaustive, cex, oname)
    return EquivalenceResult(True, lanes, exhaustive)


def assert_equivalent(a: Netlist, b: Netlist, **kwargs) -> None:
    """Raise :class:`SimulationError` with the counterexample on mismatch."""
    result = equivalent(a, b, **kwargs)
    if not result.equivalent:
        raise SimulationError(
            f"netlists differ on output {result.mismatched_output!r} "
            f"at {result.counterexample}"
        )


def verify_device(
    device: MultiContextFPGA,
    program: MultiContextProgram,
    n_vectors: int = 64,
    seed: int = 0,
) -> int:
    """Check every context of a device configured with ``program``
    against its source (:meth:`MultiContextFPGA.verify_against_source
    <repro.core.fpga.MultiContextFPGA.verify_against_source>`, the same
    draws per context).

    Returns the number of vectors checked; raises on any divergence.
    """
    if device._program is not program:
        raise SimulationError("device is not configured with this program")
    for ctx in range(program.n_contexts):
        device.verify_against_source(ctx, n_vectors=n_vectors, seed=seed)
    return program.n_contexts * n_vectors


class Miter:
    """XOR-miter of two netlists: one output that is 1 iff they differ.

    Useful for flows that want a single satisfiability-style check; the
    miter itself is a plain :class:`Netlist` so any simulator runs it.
    """

    def __init__(self, a: Netlist, b: Netlist) -> None:
        inputs, outputs = _common_io(a, b)
        self.netlist = Netlist(f"miter_{a.name}_{b.name}")
        for name in inputs:
            self.netlist.add_input(name)
        self._splice(a, "A")
        self._splice(b, "B")
        xor = TruthTable.from_function(2, lambda x, y: x ^ y)
        or2 = TruthTable.from_function(2, lambda x, y: x | y)
        diff_nets = []
        for oname in outputs:
            net = f"diff_{oname}"
            self.netlist.add_lut(
                f"{net}_cell",
                [f"A_{self._out_net(a, oname)}", f"B_{self._out_net(b, oname)}"],
                net, xor,
            )
            diff_nets.append(net)
        acc = diff_nets[0]
        for i, net in enumerate(diff_nets[1:]):
            nxt = f"acc_{i}"
            self.netlist.add_lut(f"{nxt}_cell", [acc, net], nxt, or2)
            acc = nxt
        self.netlist.add_output("differ", acc)
        self.netlist.validate()

    @staticmethod
    def _out_net(n: Netlist, oname: str) -> str:
        return n.cells[oname].inputs[0]

    def _splice(self, src: Netlist, prefix: str) -> None:
        for cell in src.luts():
            ins = [
                net if net in {c.output for c in src.inputs()} else f"{prefix}_{net}"
                for net in cell.inputs
            ]
            self.netlist.add_lut(
                f"{prefix}_{cell.name}", ins, f"{prefix}_{cell.output}", cell.table
            )

    def differs_on(self, vector: dict[str, int]) -> bool:
        return self.netlist.evaluate_outputs(vector)["differ"] == 1
