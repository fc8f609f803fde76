"""Scalar fabric evaluation, one vector at a time: a test oracle.

The walk :meth:`MultiContextFPGA.evaluate
<repro.core.fpga.MultiContextFPGA.evaluate>` ran before every batched
and scalar fabric evaluation became one lane-word walk over the
netlist index.  It walks the source netlist's cells by name in
topological order, packs each LUT's input word from the values so far
and reads the stored plane bit through :meth:`MCMGLut.evaluate
<repro.core.mcmg_lut.MCMGLut.evaluate>`.  It shares no code with
:mod:`repro.netlist.logic`'s lane primitive, which
``tests/core/test_verify_batch.py`` holds equal to it.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.netlist.netlist import CellKind


def scalar_evaluate(device, ctx: int, inputs: dict[str, int]) -> dict[str, int]:
    """Primary outputs of context ``ctx`` of a configured ``device`` on
    one vector, each LUT read from its tile's stored plane."""
    if ctx not in device.contexts:
        raise SimulationError(f"context {ctx} is not configured")
    netlist = device._program.contexts[ctx]
    placement = device._placements[ctx]
    values: dict[str, int] = {}
    for cell in netlist.inputs():
        if cell.output not in inputs and cell.name not in inputs:
            raise SimulationError(f"missing value for input {cell.name!r}")
        values[cell.output] = inputs.get(cell.output, inputs.get(cell.name, 0))
    for cell in netlist.dffs():
        values[cell.output] = 0
    for name in netlist.topo_order():
        cell = netlist.cells[name]
        if cell.kind is not CellKind.LUT:
            continue
        lut = device.logic_blocks[placement.cells[cell.name]].lut
        word = 0
        for j, net in enumerate(cell.inputs):
            word |= values[net] << j
        values[cell.output] = lut.evaluate(ctx, word)
    return {c.name: values[c.inputs[0]] for c in netlist.outputs()}
