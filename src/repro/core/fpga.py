"""The full multi-context FPGA device model.

:class:`MultiContextFPGA` ties the pieces together: a grid of adaptive
logic blocks, the routing fabric (RRG), per-context configuration, and
single-cycle context switching.  A configured device can

- evaluate any context like hardware would (LUT lookups over routed
  connectivity — *not* by re-running the source netlist, so bitstream
  and routing bugs are caught), one vector at a time
  (:meth:`MultiContextFPGA.evaluate`) or a whole stimulus batch at once
  (:meth:`MultiContextFPGA.evaluate_batch`, one topological walk whose
  every LUT reads its tile's stored plane for all vectors together —
  what :meth:`MultiContextFPGA.verify_against_source` runs),
- switch contexts and report how many configuration bits flip,
- report the measured pattern statistics and feed the area model.

The configuration source is a mapped program: one placement + routing
per context (see :mod:`repro.analysis.experiments` for the one-call
flow), on the flat routing substrate it was routed on; the device
never builds an object graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.compiled import CompiledRRG
from repro.arch.geometry import Coord
from repro.arch.params import ArchParams
from repro.core.bitstream import BitstreamStats, extract_bitstream_stats
from repro.core.logic_block import AdaptiveLogicBlock, SizeControl
from repro.core.mcmg_lut import MCMGGeometry
from repro.errors import ConfigurationError, SimulationError
from repro.netlist.dfg import MultiContextProgram
from repro.netlist.netlist import CellKind
from repro.place.placer import Placement
from repro.route.pathfinder import RouteResult


@dataclass
class ConfiguredContext:
    """Everything the device stores for one context."""

    netlist_name: str
    #: tile -> (cell name, truth table array, n_inputs)
    lut_config: dict[Coord, tuple[str, np.ndarray, int]] = field(default_factory=dict)
    #: net name -> (driver kind, driver tile/pad, sink list)
    connectivity: dict[str, dict] = field(default_factory=dict)


class MultiContextFPGA:
    """A behavioral MC-FPGA instance."""

    def __init__(self, params: ArchParams, rrg: CompiledRRG | None = None) -> None:
        """``rrg`` is the routing substrate the program was routed on;
        only :meth:`bitstream_stats` reads it."""
        self.params = params
        self.geometry: MCMGGeometry = params.lut_geometry()
        control = (
            SizeControl.LOCAL if params.adaptive_logic_blocks else SizeControl.GLOBAL
        )
        self.logic_blocks: dict[Coord, AdaptiveLogicBlock] = {}
        for y in range(params.rows):
            for x in range(params.cols):
                c = Coord(x, y)
                self.logic_blocks[c] = AdaptiveLogicBlock(
                    self.geometry, control, name=f"LB{c}"
                )
        self.rrg = rrg
        self.contexts: dict[int, ConfiguredContext] = {}
        self.active_context = 0
        self._program: MultiContextProgram | None = None
        self._placements: list[Placement] | None = None
        self._routes: list[RouteResult] | None = None

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    def configure_program(
        self,
        program: MultiContextProgram,
        placements: list[Placement],
        routes: list[RouteResult] | None = None,
    ) -> None:
        """Load a mapped program (one placement per context)."""
        if program.n_contexts > self.params.n_contexts:
            raise ConfigurationError(
                f"program has {program.n_contexts} contexts, device has "
                f"{self.params.n_contexts}"
            )
        if len(placements) != program.n_contexts:
            raise ConfigurationError("one placement per context required")
        self._program = program
        self._placements = placements
        self._routes = routes
        self.contexts.clear()
        k = self.params.lut_inputs
        for c, (netlist, placement) in enumerate(zip(program.contexts, placements)):
            ctx = ConfiguredContext(netlist.name)
            for cell in netlist.cells.values():
                if cell.kind is not CellKind.LUT:
                    continue
                coord = placement.cells[cell.name]
                if cell.table.n_inputs > k:
                    raise ConfigurationError(
                        f"cell {cell.name!r}: {cell.table.n_inputs} inputs "
                        f"exceed physical LUT size {k}"
                    )
                ctx.lut_config[coord] = (
                    cell.name,
                    cell.table.to_array(),
                    cell.table.n_inputs,
                )
            # connectivity: net -> driver + sinks (cell order, then
            # slot order), gathered in one pass over the input pins
            sinks_of: dict[str, list] = {}
            for s in netlist.cells.values():
                for slot, in_net in enumerate(s.inputs):
                    sinks_of.setdefault(in_net, []).append(
                        (s.name, s.kind.value, slot)
                    )
            for net, driver_name in netlist.net_driver.items():
                ctx.connectivity[net] = {
                    "driver": driver_name,
                    "driver_kind": netlist.cells[driver_name].kind.value,
                    "sinks": sinks_of.get(net, []),
                }
            self.contexts[c] = ctx

        # program the logic blocks (planes per context)
        for coord, lb in self.logic_blocks.items():
            lb.lut.memory[:] = 0
        for c, ctx in self.contexts.items():
            for coord, (cell_name, table, n_in) in ctx.lut_config.items():
                lb = self.logic_blocks[coord]
                plane_bits = 1 << self.params.lut_inputs
                padded = np.zeros(plane_bits, dtype=np.uint8)
                reps = plane_bits // table.size
                padded[:] = np.tile(table, reps)
                plane = lb.lut.plane_for_context(c)
                lb.lut.load_plane(plane, padded, output=0)

    # ------------------------------------------------------------------ #
    # context switching
    # ------------------------------------------------------------------ #
    def switch_context(self, ctx: int) -> int:
        """Activate a context; returns the number of LUT config bits that
        effectively change (the dynamic-reconfiguration cost)."""
        if not 0 <= ctx < self.params.n_contexts:
            raise ConfigurationError(f"context {ctx} out of range")
        flips = 0
        for coord, lb in self.logic_blocks.items():
            old = lb.lut.truth_table(self.active_context)
            new = lb.lut.truth_table(ctx)
            flips += int(np.count_nonzero(old != new))
        self.active_context = ctx
        return flips

    # ------------------------------------------------------------------ #
    # evaluation (fabric-level: LUT lookups over stored planes)
    # ------------------------------------------------------------------ #
    def evaluate(self, ctx: int, inputs: dict[str, int]) -> dict[str, int]:
        """Evaluate a context's primary outputs from stored configuration.

        Walks the configured connectivity in topological order, reading
        each tile's *stored plane* (not the source netlist) — so a wrong
        plane load or placement shows up as a functional mismatch.
        """
        if ctx not in self.contexts:
            raise SimulationError(f"context {ctx} is not configured")
        if self._program is None:
            raise SimulationError("device is not configured")
        netlist = self._program.contexts[ctx]
        placement = self._placements[ctx]
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
            coord = placement.cells[cell.name]
            lb = self.logic_blocks[coord]
            word = 0
            for j, net in enumerate(cell.inputs):
                word |= values[net] << j
            values[cell.output] = lb.lut.evaluate(ctx, word)
        return {
            c.name: values[c.inputs[0]] for c in netlist.outputs()
        }

    def evaluate_batch(
        self, ctx: int, stimulus: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """:meth:`evaluate` over arrays of stimuli, one walk for all.

        Each input maps to a 0/1 array; all arrays share a length (an
        input-less context evaluates once, to length-1 arrays, as
        :meth:`Netlist.evaluate_batch
        <repro.netlist.netlist.Netlist.evaluate_batch>` does).  Like
        :meth:`evaluate`, every LUT reads its tile's *stored plane*,
        never the cell's truth table.
        """
        if ctx not in self.contexts:
            raise SimulationError(f"context {ctx} is not configured")
        if self._program is None:
            raise SimulationError("device is not configured")
        netlist = self._program.contexts[ctx]
        placement = self._placements[ctx]
        values: dict[str, np.ndarray] = {}
        length = None
        for cell in netlist.inputs():
            arr = stimulus.get(cell.output, stimulus.get(cell.name))
            if arr is None:
                raise SimulationError(f"missing value for input {cell.name!r}")
            values[cell.output] = arr = np.asarray(arr, dtype=np.int64)
            if length is None:
                length = arr.size
            elif arr.size != length:
                raise SimulationError("stimulus arrays must share a length")
        length = 1 if length is None else length
        for cell in netlist.dffs():
            values[cell.output] = np.zeros(length, dtype=np.int64)
        for name in netlist.topo_order():
            cell = netlist.cells[name]
            if cell.kind is not CellKind.LUT:
                continue
            word = np.zeros(length, dtype=np.int64)
            for j, net in enumerate(cell.inputs):
                word |= values[net] << j
            lut = self.logic_blocks[placement.cells[cell.name]].lut
            values[cell.output] = lut.evaluate_vector(ctx, word).astype(np.int64)
        return {c.name: values[c.inputs[0]] for c in netlist.outputs()}

    def verify_against_source(self, ctx: int, n_vectors: int = 32, seed: int = 0) -> None:
        """Random-vector equivalence: fabric evaluation vs source netlist.

        All ``n_vectors`` vectors are drawn in one call (the same values,
        and the same generator state after, as one scalar draw per input
        per vector) and run through both sides batched; a mismatch is
        reported on the first bad vector, re-evaluated one at a time.
        """
        if self._program is None:
            raise SimulationError("device is not configured")
        rng = np.random.default_rng(seed)
        netlist = self._program.contexts[ctx]
        in_names = [c.name for c in netlist.inputs()]
        draws = rng.integers(2, size=(n_vectors, len(in_names)))
        stimulus = {n: draws[:, i] for i, n in enumerate(in_names)}
        want = netlist.evaluate_batch(stimulus)
        got = self.evaluate_batch(ctx, stimulus)
        bad = np.zeros(n_vectors, dtype=bool)
        for c in netlist.outputs():
            bad |= got[c.name] != want[c.inputs[0]]
        if bad.any():
            row = draws[int(np.argmax(bad))]
            vec = {n: int(v) for n, v in zip(in_names, row)}
            raise SimulationError(
                f"context {ctx} fabric mismatch on {vec}: "
                f"fabric={self.evaluate(ctx, vec)} "
                f"netlist={netlist.evaluate_outputs(vec)}"
            )

    # ------------------------------------------------------------------ #
    # analysis hooks
    # ------------------------------------------------------------------ #
    def bitstream_stats(self) -> BitstreamStats:
        if (
            self._program is None
            or self._placements is None
            or self._routes is None
            or self.rrg is None
        ):
            raise SimulationError("need a fully routed configuration for stats")
        return extract_bitstream_stats(
            self.rrg, self._program, self._placements, self._routes, self.params
        )

    def utilization(self) -> dict[str, float]:
        used_tiles = set()
        for ctx in self.contexts.values():
            used_tiles.update(ctx.lut_config.keys())
        return {
            "tiles": self.params.n_tiles,
            "tiles_used": len(used_tiles),
            "utilization": len(used_tiles) / self.params.n_tiles,
            "contexts_configured": len(self.contexts),
        }

    def distinct_planes_histogram(self) -> dict[int, int]:
        """How many tiles need 1, 2, ... distinct planes (Fig. 12 payoff)."""
        hist: dict[int, int] = {}
        for lb in self.logic_blocks.values():
            d = lb.lut.distinct_planes(output=0)
            hist[d] = hist.get(d, 0) + 1
        return hist
