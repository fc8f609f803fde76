"""Object-graph routing-resource graph: the test oracle for the fabric.

:func:`build_rrg` builds the island-style fabric as Python objects
(dataclass nodes, per-node adjacency lists, name strings and
``(x, y, pin)`` lookup dicts), one loop per node class and switch group,
in the order :func:`repro.arch.compiled.build_flat` numbers its nodes
and edges.  It shares no construction code with ``build_flat``: the
tests lower this graph and compare it against the flat substrate array
by array, and the legacy router (``legacy_router.py``) searches it.

Per the paper's switch-block structure (Fig. 10):

- **single-length tracks** connect through the RCM at *every* switch
  point with SE pass-gates (edge kind PASS);
- **double-length lines** span two tiles, are driven by buffers (edge
  kind BUF) and only connect at segment ends — they *bypass alternate
  diamond switches*;
- switch points use the disjoint (subset) pattern: track ``t`` connects
  only to track ``t`` of the other sides, which is how diamond switches
  (one per track per point) are wired.

Every CHAN node has capacity 1; LB input pins are interchangeable
(any IPIN reaches any input SINK of its tile), which PathFinder exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.compiled import EdgeKind, NodeKind
from repro.arch.geometry import Coord, Grid
from repro.arch.params import ArchParams
from repro.arch.wires import SegmentKind, TrackSpec
from repro.errors import ArchitectureError


@dataclass
class RRGNode:
    """One routing resource.

    ``x``/``y`` locate the owning tile (pins) or channel (wires); for
    wires ``pos`` is the segment's starting position along the channel
    and ``length`` its span in tiles; ``track`` the channel track index.
    """

    id: int
    kind: NodeKind
    x: int
    y: int
    track: int = -1
    pos: int = -1
    length: int = 1
    seg_kind: SegmentKind | None = None
    pin: int = -1
    capacity: int = 1
    name: str = ""


@dataclass
class RRGEdge:
    src: int
    dst: int
    kind: EdgeKind


class RoutingResourceGraph:
    """Node/edge store plus the pin lookup tables placer & router need."""

    def __init__(self, params: ArchParams) -> None:
        self.params = params
        self.grid = Grid(params.cols, params.rows)
        self.nodes: list[RRGNode] = []
        self.out_edges: list[list[tuple[int, EdgeKind]]] = []
        self.in_edges: list[list[tuple[int, EdgeKind]]] = []
        # lookup tables
        self.lb_source: dict[tuple[int, int, int], int] = {}
        self.lb_sink: dict[tuple[int, int, int], int] = {}
        self.lb_opin: dict[tuple[int, int, int], int] = {}
        self.lb_ipin: dict[tuple[int, int, int], int] = {}
        self.io_source: dict[tuple[int, int, int], int] = {}
        self.io_sink: dict[tuple[int, int, int], int] = {}
        self.chanx: dict[tuple[int, int, int], int] = {}  # (xpos, ychan, track)->node covering xpos
        self.chany: dict[tuple[int, int, int], int] = {}

    # -- construction ----------------------------------------------------- #
    def add_node(self, node: RRGNode) -> int:
        node.id = len(self.nodes)
        self.nodes.append(node)
        self.out_edges.append([])
        self.in_edges.append([])
        return node.id

    def add_edge(self, src: int, dst: int, kind: EdgeKind) -> None:
        if src == dst:
            raise ArchitectureError(f"self-edge on node {src}")
        self.out_edges[src].append((dst, kind))
        self.in_edges[dst].append((src, kind))

    def add_biedge(self, a: int, b: int, kind: EdgeKind) -> None:
        """Bidirectional programmable switch (pass-gates conduct both ways)."""
        self.add_edge(a, b, kind)
        self.add_edge(b, a, kind)

    # -- stats ------------------------------------------------------------- #
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return sum(len(e) for e in self.out_edges)

    def nodes_of_kind(self, kind: NodeKind) -> list[RRGNode]:
        return [n for n in self.nodes if n.kind == kind]

    def wire_nodes(self) -> list[RRGNode]:
        return [n for n in self.nodes if n.kind in (NodeKind.CHANX, NodeKind.CHANY)]

    def pass_switch_count(self) -> int:
        """Bidirectional PASS switches = SE routing switches in the fabric."""
        return sum(
            1 for edges in self.out_edges for (_, k) in edges if k is EdgeKind.PASS
        ) // 2

    def describe(self) -> str:
        kinds = {}
        for n in self.nodes:
            kinds[n.kind.value] = kinds.get(n.kind.value, 0) + 1
        return (
            f"RRG {self.params.cols}x{self.params.rows} W={self.params.channel_width}: "
            f"{self.n_nodes} nodes {self.n_edges} edges "
            + " ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        )


def build_rrg(params: ArchParams) -> RoutingResourceGraph:
    """Construct the full routing-resource graph for ``params``."""
    g = RoutingResourceGraph(params)
    specs = params.track_specs()
    _build_channels(g, specs)
    _build_switch_points(g, specs)
    _build_logic_pins(g)
    _build_io(g)
    return g


# ------------------------------------------------------------------------- #
# channel wires
# ------------------------------------------------------------------------- #
def _build_channels(g: RoutingResourceGraph, specs: list[TrackSpec]) -> None:
    p = g.params
    # horizontal channels: ychan in 0..rows, positions x in 0..cols-1
    for ychan in range(p.rows + 1):
        for spec in specs:
            x = 0
            while x < p.cols:
                length = 1
                if spec.kind is SegmentKind.DOUBLE:
                    if spec.starts_segment_at(x) and x + 1 < p.cols:
                        length = 2
                nid = g.add_node(
                    RRGNode(
                        -1, NodeKind.CHANX, x=x, y=ychan, track=spec.index,
                        pos=x, length=length, seg_kind=spec.kind,
                        name=f"CHANX y{ychan} x{x}+{length} t{spec.index}",
                    )
                )
                for cover in range(x, x + length):
                    g.chanx[(cover, ychan, spec.index)] = nid
                x += length
    # vertical channels: xchan in 0..cols, positions y in 0..rows-1
    for xchan in range(p.cols + 1):
        for spec in specs:
            y = 0
            while y < p.rows:
                length = 1
                if spec.kind is SegmentKind.DOUBLE:
                    if spec.starts_segment_at(y) and y + 1 < p.rows:
                        length = 2
                nid = g.add_node(
                    RRGNode(
                        -1, NodeKind.CHANY, x=xchan, y=y, track=spec.index,
                        pos=y, length=length, seg_kind=spec.kind,
                        name=f"CHANY x{xchan} y{y}+{length} t{spec.index}",
                    )
                )
                for cover in range(y, y + length):
                    g.chany[(xchan, cover, spec.index)] = nid
                y += length


# ------------------------------------------------------------------------- #
# switch points (diamond switches / RCM crossings)
# ------------------------------------------------------------------------- #
def _build_switch_points(g: RoutingResourceGraph, specs: list[TrackSpec]) -> None:
    """Disjoint switch pattern at every channel intersection.

    Intersection (xi, yi) joins: horizontal channel ``yi`` segments ending
    or starting at x-position ``xi`` (west: covering xi-1, east: covering
    xi) and vertical channel ``xi`` segments around y-position ``yi``.
    A double segment whose *interior* crosses the intersection is not
    connectable there (the bypass of Fig. 10).
    """
    p = g.params
    for xi in range(p.cols + 1):
        for yi in range(p.rows + 1):
            for spec in specs:
                incident: list[int] = []
                kinds: list[SegmentKind] = []
                # west horizontal segment: covers x-position xi-1
                if xi - 1 >= 0:
                    nid = g.chanx.get((xi - 1, yi, spec.index))
                    if nid is not None and _touches_end(g.nodes[nid], xi, axis="x"):
                        incident.append(nid)
                # east horizontal segment: starts at x-position xi
                if xi <= p.cols - 1:
                    nid = g.chanx.get((xi, yi, spec.index))
                    if nid is not None and _touches_start(g.nodes[nid], xi):
                        incident.append(nid)
                # south vertical segment: covers y-position yi-1
                if yi - 1 >= 0:
                    nid = g.chany.get((xi, yi - 1, spec.index))
                    if nid is not None and _touches_end(g.nodes[nid], yi, axis="y"):
                        incident.append(nid)
                # north vertical segment: starts at y-position yi
                if yi <= p.rows - 1:
                    nid = g.chany.get((xi, yi, spec.index))
                    if nid is not None and _touches_start(g.nodes[nid], yi):
                        incident.append(nid)
                kind = (
                    EdgeKind.BUF
                    if spec.kind is SegmentKind.DOUBLE
                    else EdgeKind.PASS
                )
                # inlined add_biedge: this pairwise loop dominates the
                # switch-point build (distinct nodes by construction)
                out_edges, in_edges = g.out_edges, g.in_edges
                for i in range(len(incident)):
                    a = incident[i]
                    for j in range(i + 1, len(incident)):
                        b = incident[j]
                        out_edges[a].append((b, kind))
                        in_edges[b].append((a, kind))
                        out_edges[b].append((a, kind))
                        in_edges[a].append((b, kind))


def _touches_start(node: RRGNode, position: int) -> bool:
    return node.pos == position


def _touches_end(node: RRGNode, position: int, axis: str) -> bool:
    return node.pos + node.length == position


# ------------------------------------------------------------------------- #
# logic-block pins
# ------------------------------------------------------------------------- #
def _adjacent_wires(g: RoutingResourceGraph, tile: Coord) -> list[int]:
    """All channel nodes bordering a tile."""
    p = g.params
    wires: set[int] = set()
    for track in range(p.channel_width):
        for key in ((tile.x, tile.y, track), (tile.x, tile.y + 1, track)):
            nid = g.chanx.get(key)
            if nid is not None:
                wires.add(nid)
        for key in ((tile.x, tile.y, track), (tile.x + 1, tile.y, track)):
            nid = g.chany.get(key)
            if nid is not None:
                wires.add(nid)
    return sorted(wires)


def _pin_wires(wires: list[int], pin: int, fc: float) -> list[int]:
    """Connection-block subset for one pin.

    Each pin reaches ``ceil(fc * len(wires))`` of the adjacent wires,
    starting at a pin-staggered offset so different pins cover different
    tracks (the standard Fc population pattern).
    """
    if fc >= 1.0 or not wires:
        return wires
    import math

    n = max(1, math.ceil(fc * len(wires)))
    start = (pin * max(1, len(wires) // max(1, n))) % len(wires)
    return [wires[(start + i) % len(wires)] for i in range(n)]


def _build_logic_pins(g: RoutingResourceGraph) -> None:
    p = g.params
    geom = p.lut_geometry()
    n_in = geom.base_inputs + geom.max_extra_inputs
    n_out = p.lut_outputs
    # inlined add_edge below: connection-block population is the hottest
    # part of the whole build (pins x adjacent wires per tile)
    out_edges, in_edges = g.out_edges, g.in_edges
    pin, internal = EdgeKind.PIN, EdgeKind.INTERNAL
    for tile in g.grid.tiles():
        wires = _adjacent_wires(g, tile)
        ipins = []
        for i in range(n_in):
            ipin = g.add_node(
                RRGNode(-1, NodeKind.IPIN, tile.x, tile.y, pin=i,
                        name=f"LB{tile} ipin{i}")
            )
            g.lb_ipin[(tile.x, tile.y, i)] = ipin
            ipins.append(ipin)
            ipin_in = in_edges[ipin]
            for w in _pin_wires(wires, i, p.fc_in):
                out_edges[w].append((ipin, pin))
                ipin_in.append((w, pin))
        for i in range(n_in):
            sink = g.add_node(
                RRGNode(-1, NodeKind.SINK, tile.x, tile.y, pin=i,
                        name=f"LB{tile} sink{i}")
            )
            g.lb_sink[(tile.x, tile.y, i)] = sink
            # input-pin equivalence: any IPIN can feed any input slot
            sink_in = in_edges[sink]
            for ipin in ipins:
                out_edges[ipin].append((sink, internal))
                sink_in.append((ipin, internal))
        for o in range(n_out):
            opin = g.add_node(
                RRGNode(-1, NodeKind.OPIN, tile.x, tile.y, pin=o,
                        name=f"LB{tile} opin{o}")
            )
            g.lb_opin[(tile.x, tile.y, o)] = opin
            src = g.add_node(
                RRGNode(-1, NodeKind.SOURCE, tile.x, tile.y, pin=o,
                        name=f"LB{tile} source{o}")
            )
            g.lb_source[(tile.x, tile.y, o)] = src
            g.add_edge(src, opin, EdgeKind.INTERNAL)
            opin_out = out_edges[opin]
            for w in _pin_wires(wires, o, p.fc_out):
                opin_out.append((w, pin))
                in_edges[w].append((opin, pin))


# ------------------------------------------------------------------------- #
# perimeter I/O
# ------------------------------------------------------------------------- #
def _build_io(g: RoutingResourceGraph) -> None:
    p = g.params
    out_edges, in_edges = g.out_edges, g.in_edges
    pin = EdgeKind.PIN
    for tile in g.grid.perimeter():
        wires = _adjacent_wires(g, tile)
        for pad in range(p.io_capacity):
            src = g.add_node(
                RRGNode(-1, NodeKind.SOURCE, tile.x, tile.y, pin=pad,
                        name=f"IO{tile} src{pad}")
            )
            opin = g.add_node(
                RRGNode(-1, NodeKind.OPIN, tile.x, tile.y, pin=pad,
                        name=f"IO{tile} opin{pad}")
            )
            g.add_edge(src, opin, EdgeKind.INTERNAL)
            opin_out = out_edges[opin]
            for w in wires:
                opin_out.append((w, pin))
                in_edges[w].append((opin, pin))
            g.io_source[(tile.x, tile.y, pad)] = src

            ipin = g.add_node(
                RRGNode(-1, NodeKind.IPIN, tile.x, tile.y, pin=pad,
                        name=f"IO{tile} ipin{pad}")
            )
            sink = g.add_node(
                RRGNode(-1, NodeKind.SINK, tile.x, tile.y, pin=pad,
                        name=f"IO{tile} sink{pad}")
            )
            ipin_in = in_edges[ipin]
            for w in wires:
                out_edges[w].append((ipin, pin))
                ipin_in.append((w, pin))
            g.add_edge(ipin, sink, EdgeKind.INTERNAL)
            g.io_sink[(tile.x, tile.y, pad)] = sink


# ------------------------------------------------------------------------- #
# comparison helpers
# ------------------------------------------------------------------------- #
def pin_table(lookup: dict[tuple[int, int, int], int],
              params: ArchParams) -> np.ndarray:
    """The ``(tile, pin)`` int32 node table of an ``(x, y, pin)`` lookup
    dict: tiles row-major, one column per pin up to the dict's largest,
    -1 where the dict has no key.  This is the layout of
    :class:`~repro.arch.compiled.CompiledRRG`'s ``*_ids`` tables."""
    width = 1 + max((pin for _x, _y, pin in lookup), default=-1)
    table = np.full((params.cols * params.rows, width), -1, dtype=np.int32)
    for (x, y, pin), node in lookup.items():
        table[y * params.cols + x, pin] = node
    return table
