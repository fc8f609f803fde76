"""The full multi-context FPGA device model.

:class:`MultiContextFPGA` ties the pieces together: a grid of adaptive
logic blocks, the routing fabric (RRG), per-context configuration, and
single-cycle context switching.  A configured device can

- evaluate any context from its stored configuration
  (:meth:`MultiContextFPGA.evaluate_lanes`, one topological walk over
  the netlist's id index in which every LUT reads its tile's stored
  plane for all vectors together, as lane words; one vector at a time
  is :meth:`MultiContextFPGA.evaluate`, and
  :meth:`MultiContextFPGA.verify_against_source` checks a batch
  against the source netlist).  A wrong plane load, a flipped memory
  bit or a cell on the wrong tile shows up as a mismatch.  Which net
  feeds which LUT input comes from the index, not from the stored
  routes, so a deleted or misrouted net is *not* caught here,
- switch contexts and report how many configuration bits flip,
- report the measured pattern statistics and feed the area model.

The configuration source is a mapped program: one placement + routing
per context (see :func:`repro.analysis.experiments.verify_mapped`,
which configures a device from a mapping), on the flat routing
substrate it was routed on; the device never builds an object graph.
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
from repro.netlist.index import KIND_CODE, LUT
from repro.netlist.logic import lut_value, pack_bits
from repro.place.placer import Placement
from repro.route.pathfinder import RouteResult

#: ``CellKind`` values by :mod:`repro.netlist.index` kind code.
_KIND_VALUE = {code: kind.value for kind, code in KIND_CODE.items()}


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
        width = 1 << k
        # (context, tile, plane row): each tile's last LUT of a context
        loads: list[tuple[int, Coord, np.ndarray]] = []
        for c, (netlist, placement) in enumerate(zip(program.contexts, placements)):
            ix = netlist.index()
            names = ix.cell_names
            ctx = ConfiguredContext(netlist.name)
            rows: dict[Coord, int] = {}
            for pos, (cell, n_in) in enumerate(zip(ix.luts, ix.lut_n.tolist())):
                coord = placement.cells[names[cell]]
                if n_in > k:
                    raise ConfigurationError(
                        f"cell {names[cell]!r}: {n_in} inputs "
                        f"exceed physical LUT size {k}"
                    )
                ctx.lut_config[coord] = (names[cell], ix.table(pos), n_in)
                rows[coord] = pos
            planes = ix.padded(k)
            loads += [(c, coord, planes[pos]) for coord, pos in rows.items()]
            # connectivity: net -> driver + sinks (cell order, then slot
            # order), straight from the index's reader rows
            kind = [_KIND_VALUE[v] for v in ix.kind.tolist()]
            sinks = [(names[cell], kind[cell], slot) for cell, slot in
                     zip(ix.pin_cell.tolist(), ix.pin_slot.tolist())]
            start = ix.pin_start.tolist()
            for n, (net, d) in enumerate(zip(ix.net_names[:ix.n_driven],
                                             ix.driver.tolist())):
                ctx.connectivity[net] = {
                    "driver": names[d],
                    "driver_kind": kind[d],
                    "sinks": sinks[start[n]:start[n + 1]],
                }
            self.contexts[c] = ctx

        # program the logic blocks: each tile's plane of each context,
        # written straight from the index's padded tables
        for lb in self.logic_blocks.values():
            lb.lut.memory[:] = 0
        for c, coord, plane in loads:
            lut = self.logic_blocks[coord].lut
            if lut.plane_bits != width:
                raise ConfigurationError(
                    f"plane needs {lut.plane_bits} bits at granularity "
                    f"{lut.granularity}, got {width}"
                )
            base = lut.plane_for_context(c) * width
            lut.memory[0, base:base + width] = plane

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
        """A context's primary outputs on one vector, from stored
        configuration: :meth:`evaluate_lanes` with one lane."""
        return self.evaluate_lanes(ctx, inputs, 1)

    def evaluate_lanes(
        self, ctx: int, stimulus: dict[str, int], lanes: int = 1
    ) -> dict[str, int]:
        """A context's primary outputs over ``lanes`` vectors at once.

        Each input maps to a lane word (bit ``i`` is its value in vector
        ``i``), and so does each output.  Every LUT reads its tile's
        *stored plane*, packed from the tile's memory on each call (so
        a flipped memory bit or a moved cell shows up), never the
        cell's truth table, and evaluates it with
        :func:`~repro.netlist.logic.lut_value`.  The walk runs on the
        ids of the netlist's :class:`~repro.netlist.index.NetlistIndex`:
        a LUT's input nets, its output net and the topological order
        come from the index, while the source side of
        :meth:`verify_against_source` reads the cells by name, so a
        wrong index row shows up as a mismatch.
        """
        if ctx not in self.contexts:
            raise SimulationError(f"context {ctx} is not configured")
        if self._program is None:
            raise SimulationError("device is not configured")
        ix = self._program.contexts[ctx].index()
        placement = self._placements[ctx]
        names = ix.cell_names
        out, start, ins = (ix.out_net.tolist(), ix.in_start.tolist(),
                           ix.in_net.tolist())
        full = (1 << lanes) - 1
        values = [0] * ix.n_nets  # DFF outputs stay 0
        for c in ix.inputs:
            word = stimulus.get(ix.net_names[out[c]], stimulus.get(names[c]))
            if word is None:
                raise SimulationError(f"missing value for input {names[c]!r}")
            word = values[out[c]] = int(word)
            if not 0 <= word <= full:
                raise ConfigurationError("input word out of range")
        kinds = ix.kind.tolist()
        for c in ix.topo:
            if kinds[c] != LUT:
                continue
            lut = self.logic_blocks[placement.cells[names[c]]].lut
            row = ins[start[c]:start[c + 1]]
            if len(row) > lut.n_inputs:
                raise ConfigurationError("input word out of range")
            base = lut.plane_for_context(ctx) * lut.plane_bits
            plane = pack_bits(lut.memory[0, base:base + (1 << len(row))])
            values[out[c]] = lut_value(plane, [values[n] for n in row], full)
        return {names[c]: values[ins[start[c]]] for c in ix.outputs}

    def verify_against_source(self, ctx: int, n_vectors: int = 32, seed: int = 0) -> None:
        """Random-vector equivalence: fabric evaluation vs source netlist.

        All ``n_vectors`` vectors are drawn in one call (the same values,
        and the same generator state after, as one scalar draw per input
        per vector), packed into lane words and run through both sides
        at once; a mismatch is reported on the first bad vector,
        re-evaluated on its own.
        """
        if self._program is None:
            raise SimulationError("device is not configured")
        rng = np.random.default_rng(seed)
        netlist = self._program.contexts[ctx]
        in_names = [c.name for c in netlist.inputs()]
        draws = rng.integers(2, size=(n_vectors, len(in_names)))
        stimulus = {n: pack_bits(draws[:, i]) for i, n in enumerate(in_names)}
        want = netlist.evaluate_lanes(stimulus, n_vectors)
        got = self.evaluate_lanes(ctx, stimulus, n_vectors)
        bad = 0
        for c in netlist.outputs():
            bad |= got[c.name] ^ want[c.inputs[0]]
        if bad:
            row = draws[(bad & -bad).bit_length() - 1]
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
