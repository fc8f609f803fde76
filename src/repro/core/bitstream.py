"""Bitstream extraction: from mapped contexts to per-bit context patterns.

The paper's entire argument rests on the *statistics of configuration
bits across contexts*.  This module turns a multi-context mapping
(placements + routings + LUT contents) into the raw material of those
statistics:

- every routing switch (PASS/BUF edge of the RRG) becomes one
  configuration bit whose context pattern says in which contexts it
  conducts;
- every connection-block switch (PIN edge) likewise;
- every LUT configuration bit (``2**k`` bits × outputs × tile) has the
  pattern of its value across the planes the mapping loads.

Patterns come back as int masks (bit ``c`` = value in context ``c``)
ready for :func:`repro.core.patterns.classify_many`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.compiled import EDGE_KIND_INDEX, CompiledRRG, compile_rrg
from repro.arch.geometry import Coord
from repro.arch.params import ArchParams
from repro.arch.rrg import EdgeKind, RoutingResourceGraph
from repro.core.patterns import PatternClass, classify_many
from repro.errors import ConfigurationError
from repro.netlist.dfg import MultiContextProgram
from repro.netlist.netlist import CellKind
from repro.place.placer import Placement
from repro.route.pathfinder import RouteResult
from repro.utils.bitops import mask as ones, popcount


@dataclass
class SwitchPatternSet:
    """Context patterns of the fabric's routing configuration bits.

    ``used`` maps a canonical undirected edge to its pattern mask;
    ``n_total_switches`` counts every programmable switch in the fabric,
    so ``n_total_switches - len(used)`` switches are constant-0 (off in
    every context) — the dominant redundancy class in any real bitstream.
    """

    n_contexts: int
    used: dict[tuple[int, int], int] = field(default_factory=dict)
    n_total_switches: int = 0

    def all_masks(self, include_unused: bool = True) -> list[int]:
        masks = list(self.used.values())
        if include_unused:
            masks.extend([0] * (self.n_total_switches - len(self.used)))
        return masks

    def census(self, include_unused: bool = True) -> dict[PatternClass, int]:
        census = classify_many(self.used.values(), self.n_contexts)
        if include_unused:
            census[PatternClass.CONSTANT] += self.n_total_switches - len(self.used)
        return census

    def change_fraction(self) -> float:
        """Average fraction of switch bits differing between consecutive
        contexts (cyclic schedule) — the paper's ~5% statistic."""
        if self.n_total_switches == 0 or self.n_contexts == 1:
            return 0.0
        n = self.n_contexts
        full = ones(n)
        # bit c of the rotated mask is bit c-1 (cyclically) of the mask
        diffs = sum(
            popcount(mask ^ (((mask << 1) | (mask >> (n - 1))) & full))
            for mask in self.used.values()
        )
        return diffs / (self.n_total_switches * n)


_PASS, _BUF, _PIN = (
    EDGE_KIND_INDEX[k] for k in (EdgeKind.PASS, EdgeKind.BUF, EdgeKind.PIN)
)


def extract_switch_patterns(
    g: CompiledRRG | RoutingResourceGraph,
    routes: list[RouteResult],
    n_contexts: int | None = None,
) -> SwitchPatternSet:
    """Per-switch context patterns from one routing per context.

    Edge kinds come from the substrate's CSR arrays
    (:meth:`CompiledRRG.edge_kinds`, one lookup per context); an object
    graph is lowered once by :func:`~repro.arch.compiled.compile_rrg`.
    """
    c = g if isinstance(g, CompiledRRG) else compile_rrg(g)
    n = n_contexts if n_contexts is not None else len(routes)
    if len(routes) > n:
        raise ConfigurationError(
            f"{len(routes)} routed contexts exceed n_contexts={n}"
        )
    out = SwitchPatternSet(n_contexts=n, n_total_switches=c.n_switches())
    used = out.used
    for ctx, rr in enumerate(routes):
        edges = [e for net in rr.nets.values() for e in net.edges]
        if not edges:
            continue
        ends = np.array(edges, dtype=np.int64)
        bit = 1 << ctx
        for (a, b), kind in zip(
            edges, c.edge_kinds(ends[:, 0], ends[:, 1]).tolist()
        ):
            if kind == _PASS or kind == _BUF:
                key = (a, b) if a <= b else (b, a)
            elif kind == _PIN:
                key = (a, b)
            else:
                continue
            used[key] = used.get(key, 0) | bit
    return out


@dataclass
class LutPatternSet:
    """Context patterns of LUT configuration bits, per tile."""

    n_contexts: int
    lut_bits_per_tile: int
    #: tile -> array of shape (lut_bits,) with the per-bit pattern masks
    tiles: dict[Coord, np.ndarray] = field(default_factory=dict)
    n_total_tiles: int = 0

    def all_masks(self, include_unused: bool = True) -> list[int]:
        masks: list[int] = []
        for arr in self.tiles.values():
            masks.extend(int(m) for m in arr)
        if include_unused:
            unused_tiles = self.n_total_tiles - len(self.tiles)
            masks.extend([0] * (unused_tiles * self.lut_bits_per_tile))
        return masks

    def census(self, include_unused: bool = True) -> dict[PatternClass, int]:
        census = classify_many(self.all_masks(False), self.n_contexts)
        if include_unused:
            unused_tiles = self.n_total_tiles - len(self.tiles)
            census[PatternClass.CONSTANT] += unused_tiles * self.lut_bits_per_tile
        return census

    def distinct_planes_per_tile(self) -> dict[Coord, int]:
        """Distinct configuration planes each used tile must store."""
        out: dict[Coord, int] = {}
        for tile, arr in self.tiles.items():
            planes = set()
            for c in range(self.n_contexts):
                bits = ((arr >> c) & 1).astype(np.uint8)
                planes.add(bits.tobytes())
            out[tile] = len(planes)
        return out


def extract_lut_patterns(
    program: MultiContextProgram,
    placements: list[Placement],
    params: ArchParams,
) -> LutPatternSet:
    """Per-LUT-bit context patterns from the mapped program.

    Each tile's LUT stores, per context, the truth table of the cell
    placed there (zero-padded to the physical LUT size); bits are
    compared across contexts to form patterns.  Unoccupied contexts
    repeat the tile's previous plane (hardware keeps old contents),
    which is the favourable-and-realistic assumption for redundancy.
    """
    k = params.lut_inputs
    bits_per_output = 1 << k
    lut_bits = params.lut_outputs * bits_per_output
    result = LutPatternSet(
        n_contexts=params.n_contexts,
        lut_bits_per_tile=lut_bits,
        n_total_tiles=params.n_tiles,
    )
    # tile -> per-context table (uint8 array of lut_bits)
    staged: dict[Coord, dict[int, np.ndarray]] = {}
    for c, (netlist, placement) in enumerate(zip(program.contexts, placements)):
        for cell in netlist.cells.values():
            if cell.kind is not CellKind.LUT:
                continue
            coord = placement.cells[cell.name]
            table = cell.table
            if table.n_inputs > k:
                raise ConfigurationError(
                    f"cell {cell.name!r} needs {table.n_inputs} inputs, "
                    f"physical LUT has {k}"
                )
            padded = np.zeros(lut_bits, dtype=np.uint8)
            src = table.to_array()
            # replicate the k'-input table into the 2**k space (don't-care
            # upper inputs), matching how hardware would be programmed
            reps = bits_per_output // src.size
            padded[:bits_per_output] = np.tile(src, reps)
            staged.setdefault(coord, {})[c] = padded

    for coord, per_ctx in staged.items():
        masks = np.zeros(lut_bits, dtype=np.int64)
        last = None
        for c in range(params.n_contexts):
            plane = per_ctx.get(c)
            if plane is None:
                plane = last if last is not None else np.zeros(lut_bits, dtype=np.uint8)
            masks |= plane.astype(np.int64) << c
            last = plane
        result.tiles[coord] = masks
    return result


@dataclass
class BitstreamStats:
    """Combined switch + LUT pattern statistics for one mapped program."""

    switch: SwitchPatternSet
    luts: LutPatternSet

    def combined_census(self) -> dict[PatternClass, int]:
        cs = self.switch.census()
        cl = self.luts.census()
        return {k: cs[k] + cl[k] for k in cs}

    def class_fractions(self) -> dict[PatternClass, float]:
        census = self.combined_census()
        total = sum(census.values())
        if total == 0:
            return {k: 0.0 for k in census}
        return {k: v / total for k, v in census.items()}


def extract_bitstream_stats(
    g: CompiledRRG | RoutingResourceGraph,
    program: MultiContextProgram,
    placements: list[Placement],
    routes: list[RouteResult],
    params: ArchParams,
) -> BitstreamStats:
    """One-call extraction of the full pattern statistics."""
    return BitstreamStats(
        switch=extract_switch_patterns(g, routes, params.n_contexts),
        luts=extract_lut_patterns(program, placements, params),
    )
