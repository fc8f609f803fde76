"""Flat-array routing substrate, emitted straight from ``ArchParams``.

:class:`~repro.arch.rrg.RoutingResourceGraph` is the *inspection*
representation: dataclass nodes, per-node adjacency lists, name
strings.  It is a terrible shape for the router's inner loop, which
touches every edge of the graph many times per iteration.
:class:`CompiledRRG` holds the same fabric as flat arrays, so the hot
paths index plain Python lists and numpy buffers instead of chasing
objects.  :func:`build_flat` emits those arrays directly from the
device parameters — the object graph is never built on the way.  The
object graph is the independent oracle the tests lower and compare the
arrays against; it rides along as :attr:`CompiledRRG.source` only on a
substrate compiled from a graph a caller hands in (:func:`compile_rrg`).

- **CSR adjacency** — ``edge_start[n] .. edge_start[n+1]`` indexes into
  ``edge_dst`` / ``edge_kind``.  Within each node's range, edges whose
  destination is a SINK are segregated *after* ``edge_mid[n]``, so the
  router's inner loop needs no per-edge kind test (relaxation order
  within one node does not affect Dijkstra's result — heap order is
  decided by ``(dist, node)`` values, not push order).  The three rows
  are contiguous int32 arrays, which the native search kernel reads in
  place; the Python kernel asks for list forms (:meth:`CompiledRRG.row_lists`).
- **node attribute arrays** — kind, capacity, wire length and the
  congestion *base cost* ``1.0 + 0.2 * (length - 1)`` precomputed per
  node.  These are plain Python lists rather than
  ``array('i')``/``array('d')``: list indexing returns the stored
  (cached) object, while ``array`` boxes a fresh int/float on every
  read — measurably slower in the router's per-net loops.
- **spatial extents** — per-node tile-coordinate bounding boxes
  (``xlo``/``xhi``/``ylo``/``yhi``, mirrored as numpy arrays) from
  which the router builds per-net bounding-box prune masks in one
  vectorised expression.
- **pin indexes** — the per-tile SOURCE/SINK lookup dicts (read-only
  after construction).

Substrates are cached two ways: :func:`compile_rrg` memoises on a
graph instance a caller hands in, and one ``lru_cache`` keyed by the
*frozen* :class:`~repro.arch.params.ArchParams` serves every other
flow — mapping, statistics, verification, sweeps and yield campaigns —
under two names, :func:`compiled_rrg_for` and :func:`flat_rrg_for`.
That cache is what lets a batch of mapping jobs or sweep points on the
same device share one substrate.  Nothing on it carries an object
graph: statistics extraction looks edge kinds up with
:meth:`CompiledRRG.edge_kinds` and counts switches with
:meth:`CompiledRRG.n_switches`, both over the CSR arrays.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from repro.arch.params import ArchParams
from repro.arch.rrg import (
    EdgeKind,
    NodeKind,
    RoutingResourceGraph,
    _pin_wires,
)
from repro.arch.wires import SegmentKind
from repro.utils.telemetry import count as _tcount

#: Edge kinds that are physical programmable switches — defect-injection
#: candidates for the reliability subsystem.  INTERNAL edges are logical
#: bookkeeping (source->opin / ipin->sink) with no silicon of their own.
SWITCH_EDGE_KINDS = (EdgeKind.PASS, EdgeKind.BUF, EdgeKind.PIN)

#: Stable integer encoding of :class:`NodeKind` (array-friendly).
NODE_KIND_INDEX: dict[NodeKind, int] = {k: i for i, k in enumerate(NodeKind)}
NODE_KINDS: tuple[NodeKind, ...] = tuple(NodeKind)

#: Stable integer encoding of :class:`EdgeKind`.
EDGE_KIND_INDEX: dict[EdgeKind, int] = {k: i for i, k in enumerate(EdgeKind)}
EDGE_KINDS: tuple[EdgeKind, ...] = tuple(EdgeKind)

#: Integer ids the router special-cases, exported as module constants so
#: the inner loop never touches the enum machinery.
KIND_SINK = NODE_KIND_INDEX[NodeKind.SINK]
KIND_CHANX = NODE_KIND_INDEX[NodeKind.CHANX]
KIND_CHANY = NODE_KIND_INDEX[NodeKind.CHANY]
KIND_SOURCE = NODE_KIND_INDEX[NodeKind.SOURCE]
KIND_OPIN = NODE_KIND_INDEX[NodeKind.OPIN]
KIND_IPIN = NODE_KIND_INDEX[NodeKind.IPIN]

_PASS, _BUF, _PIN, _INTERNAL = (
    EDGE_KIND_INDEX[k]
    for k in (EdgeKind.PASS, EdgeKind.BUF, EdgeKind.PIN, EdgeKind.INTERNAL)
)

#: Extra wire-length cost factor, mirrored from the legacy router's
#: ``_CongestionState.node_cost`` so both paths price nodes identically.
LENGTH_COST_FACTOR = 0.2


def _as_list(a) -> list:
    return a.tolist() if isinstance(a, np.ndarray) else a


class CompiledRRG:
    """Flat arrays of one fabric: what the router and placer inner loops
    need, and nothing else.

    Built by :func:`build_flat` (or attached from shared memory by
    :meth:`SharedSubstrate.attach <repro.arch.shared.SharedSubstrate.attach>`),
    both through :meth:`_from_arrays`.  :attr:`source` is the object
    graph a substrate was compiled from by :func:`compile_rrg`, used
    only for node names; cached substrates have ``source=None``.
    """

    __slots__ = (
        "source",
        "params",
        "n_nodes",
        "n_edges",
        "node_kind",
        "node_capacity",
        "node_length",
        "base_cost",
        "node_capacity_np",
        "base_cost_np",
        "xlo",
        "xhi",
        "ylo",
        "yhi",
        "xlo_np",
        "xhi_np",
        "ylo_np",
        "yhi_np",
        "edge_start",
        "edge_mid",
        "edge_dst",
        "edge_kind",
        "lb_source",
        "lb_sink",
        "io_source",
        "io_sink",
        "_wire_ids",
        "_switch_edge_ids",
        "_edge_src",
        "_edge_keys",
        "_n_switches",
        "_logic_tiles",
        "_wire_len",
        "_row_lists",
    )

    @classmethod
    def _from_arrays(
        cls,
        params: ArchParams,
        *,
        node_kind,
        node_capacity,
        node_length,
        base_cost,
        xlo,
        xhi,
        ylo,
        yhi,
        edge_start,
        edge_mid,
        edge_dst,
        edge_kind,
        lb_source: dict,
        lb_sink: dict,
        io_source: dict,
        io_sink: dict,
    ) -> "CompiledRRG":
        """Assemble a substrate from its arrays — the one constructor.

        Array fields take Python lists or numpy arrays.  The hot Python
        lists are kept (lists) or materialised (arrays).  The CSR rows
        ``edge_start``/``edge_mid``/``edge_dst`` are stored only as
        contiguous int32 arrays; those and each numpy mirror alias their
        input when the dtype already matches, so a shared-memory view
        stays zero-copy.
        """
        c = cls.__new__(cls)
        c.source = None
        c.params = params
        c.lb_source = lb_source
        c.lb_sink = lb_sink
        c.io_source = io_source
        c.io_sink = io_sink
        n = len(node_kind)
        c.n_nodes = n
        c.node_kind = _as_list(node_kind)
        c.node_capacity = _as_list(node_capacity)
        c.node_length = _as_list(node_length)
        c.base_cost = _as_list(base_cost)
        c.xlo = _as_list(xlo)
        c.xhi = _as_list(xhi)
        c.ylo = _as_list(ylo)
        c.yhi = _as_list(yhi)
        c.edge_start = np.ascontiguousarray(edge_start, dtype=np.int32)
        c.edge_mid = np.ascontiguousarray(edge_mid, dtype=np.int32)
        c.edge_dst = np.ascontiguousarray(edge_dst, dtype=np.int32)
        # not read by the router; retained so structural checks (and any
        # future compiled timing model) can see switch kinds without the
        # object graph (small ints: CPython shares them)
        c.edge_kind = _as_list(edge_kind)
        c.n_edges = len(c.edge_dst)

        # vectorised mirrors: capacity/base-cost feed the congestion
        # bookkeeping (overuse scans, effective-cost refreshes), the
        # bounding boxes feed per-net prune-mask construction
        c.node_capacity_np = np.asarray(node_capacity, dtype=np.int64)
        c.base_cost_np = np.asarray(base_cost, dtype=np.float64)
        c.xlo_np = np.asarray(xlo, dtype=np.int32)
        c.xhi_np = np.asarray(xhi, dtype=np.int32)
        c.ylo_np = np.asarray(ylo, dtype=np.int32)
        c.yhi_np = np.asarray(yhi, dtype=np.int32)

        # defect-candidate indexes (reliability subsystem) are derived
        # lazily and cached, so routing-only flows never pay for them
        # but Monte Carlo trials sample against ready-made arrays
        c._wire_ids = None
        c._switch_edge_ids = None
        c._edge_src = None
        c._edge_keys = None
        c._n_switches = None
        c._logic_tiles = None
        c._wire_len = None
        c._row_lists = None
        return c

    def row_lists(self) -> tuple[list[int], list[int], list[int]]:
        """``edge_start``/``edge_mid``/``edge_dst`` as Python lists,
        built on first use and cached (the Python search kernel iterates
        them; the native kernel reads the int32 arrays and never asks).
        ``edge_dst`` reuses one int object per node id: a plain
        ``tolist()`` would allocate a fresh int per *edge*."""
        if self._row_lists is None:
            ids = np.array(range(self.n_nodes), dtype=object)
            self._row_lists = (self.edge_start.tolist(),
                               self.edge_mid.tolist(),
                               ids[self.edge_dst].tolist())
        return self._row_lists

    # -- defect-candidate indexes (reliability subsystem) ------------------- #
    def wire_node_ids(self) -> np.ndarray:
        """Node ids of every wire segment (CHANX/CHANY), cached.

        These are the *wire* defect candidates: an open or short on a
        metal segment takes the whole segment (and every context that
        would use it) out of service.
        """
        if self._wire_ids is None:
            kind = np.asarray(self.node_kind, dtype=np.int64)
            self._wire_ids = np.flatnonzero(
                (kind == KIND_CHANX) | (kind == KIND_CHANY)
            )
        return self._wire_ids

    def switch_edge_ids(self) -> np.ndarray:
        """CSR edge indexes of every programmable switch, cached.

        PASS (SE pass-gates), BUF (double-length drivers) and PIN
        (connection-block) edges are physical switches and thus *switch*
        defect candidates; INTERNAL edges are logical bookkeeping.
        """
        if self._switch_edge_ids is None:
            kinds = np.asarray(self.edge_kind, dtype=np.int64)
            want = np.array(
                [EDGE_KIND_INDEX[k] for k in SWITCH_EDGE_KINDS], dtype=np.int64
            )
            self._switch_edge_ids = np.flatnonzero(np.isin(kinds, want))
        return self._switch_edge_ids

    def edge_src_ids(self) -> np.ndarray:
        """Source node of every CSR edge (row expansion), cached.

        Gives defective edges a spatial position (their source node's
        tile) for clustered defect models, and lets edge indexes be
        reported as ``(src, dst)`` pairs.
        """
        if self._edge_src is None:
            starts = np.asarray(self.edge_start, dtype=np.int64)
            self._edge_src = np.repeat(
                np.arange(self.n_nodes, dtype=np.int64), np.diff(starts)
            )
        return self._edge_src

    # -- switch lookups (bitstream statistics) ----------------------------- #
    def edge_kinds(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Kind index (into :data:`EDGE_KINDS`) of each edge
        ``src[i] -> dst[i]``, or -1 where the fabric has no such edge.

        Binary search over the sorted ``src * n_nodes + dst`` keys,
        built once per substrate and cached.  The sort is stable, so a
        repeated edge answers with its first copy in CSR order, which
        is the first copy in the object graph's ``out_edges``.
        """
        if self._edge_keys is None:
            keys = self.edge_src_ids() * self.n_nodes + self.edge_dst
            order = np.argsort(keys, kind="stable")
            kinds = np.asarray(self.edge_kind, dtype=np.int8)
            self._edge_keys = (keys[order], kinds[order])
        keys, kinds = self._edge_keys
        want = np.asarray(src, dtype=np.int64) * self.n_nodes + dst
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return np.where(keys[pos] == want, kinds[pos], -1)

    def n_switches(self) -> int:
        """Programmable switches: undirected PASS/BUF pairs plus PIN
        edges, counted once per substrate and cached."""
        if self._n_switches is None:
            kinds = np.asarray(self.edge_kind, dtype=np.int8)
            pair = (kinds == _PASS) | (kinds == _BUF)
            a = self.edge_src_ids()[pair]
            b = self.edge_dst[pair].astype(np.int64)
            keys = np.minimum(a, b) * self.n_nodes + np.maximum(a, b)
            self._n_switches = (int(np.unique(keys).size)
                                + int(np.count_nonzero(kinds == _PIN)))
        return self._n_switches

    def logic_tiles(self) -> tuple[tuple[int, int], ...]:
        """Tile coordinates hosting a logic block, cached.

        The *logic-site* defect candidates: a fabrication fault in an
        LB kills every cell the placer would put there, so repair must
        escalate to re-placement.
        """
        if self._logic_tiles is None:
            self._logic_tiles = tuple(
                sorted({(x, y) for (x, y, _pin) in self.lb_source})
            )
        return self._logic_tiles

    def wire_length_weights(self) -> np.ndarray:
        """Per-node wirelength contribution (segment length for wires,
        0 elsewhere), cached.

        Lets :meth:`RouteResult.wirelength
        <repro.route.pathfinder.RouteResult.wirelength>` sum a route's
        wirelength as one fancy-index gather instead of a Python loop
        over every node of every net — an exact integer sum either way.
        """
        if self._wire_len is None:
            kind = np.asarray(self.node_kind, dtype=np.int64)
            lengths = np.asarray(self.node_length, dtype=np.int64)
            wire = (kind == KIND_CHANX) | (kind == KIND_CHANY)
            self._wire_len = np.where(wire, lengths, 0)
        return self._wire_len

    def bbox_mask(
        self, bxlo: int, bxhi: int, bylo: int, byhi: int
    ) -> bytes:
        """Per-node membership mask for a tile-coordinate bounding box.

        A node is *inside* when its spatial extent intersects the box;
        the router skips zero-mask nodes.  Built vectorised; the result
        is an immutable ``bytes`` indexable to 0/1 ints.
        """
        inside = (
            (self.xhi_np >= bxlo) & (self.xlo_np <= bxhi)
            & (self.yhi_np >= bylo) & (self.ylo_np <= byhi)
        )
        return inside.tobytes()

    # -- convenience -------------------------------------------------------- #
    def node_name(self, nid: int) -> str:
        """Best-effort node description (error paths, diagnostics)."""
        if self.source is not None:
            return self.source.nodes[nid].name
        return f"node {nid} ({NODE_KINDS[self.node_kind[nid]].value})"

    def kind_of(self, nid: int) -> NodeKind:
        return NODE_KINDS[self.node_kind[nid]]

    def is_wire(self, nid: int) -> bool:
        k = self.node_kind[nid]
        return k == KIND_CHANX or k == KIND_CHANY

    def describe(self) -> str:
        return (
            f"CompiledRRG {self.params.cols}x{self.params.rows} "
            f"W={self.params.channel_width}: {self.n_nodes} nodes "
            f"{self.n_edges} edges (CSR)"
        )


def build_flat(params: ArchParams) -> CompiledRRG:
    """Emit the flat substrate for ``params`` straight as arrays.

    Walks the fabric in :func:`~repro.arch.rrg.build_rrg`'s exact order
    — CHANX and CHANY wires, switch points, logic pins per tile
    (row-major), then perimeter I/O — appending plain ints: node
    attributes, and one global ``(src, dst, kind)`` edge sequence in
    the order ``build_rrg`` appends each node's out-edges.  One stable
    sort on ``src * 2 + dst_is_sink`` then forms the CSR rows: per
    node, non-SINK destinations first and SINK destinations after
    ``edge_mid``, insertion order kept within each.  No node object,
    name string or edge tuple is created; the object graph's lowering
    is the test oracle for these arrays (``tests/arch``).
    """
    cols, rows, width = params.cols, params.rows, params.channel_width
    specs = params.track_specs()
    kind: list[int] = []
    length: list[int] = []
    xlo: list[int] = []
    xhi: list[int] = []
    ylo: list[int] = []
    yhi: list[int] = []
    src: list[int] = []
    dst: list[int] = []
    ekind: list[int] = []

    def nodes(kinds, lengths, x0, x1, y0, y1) -> int:
        """Append a run of nodes; returns the id of the first."""
        first = len(kind)
        kind.extend(kinds)
        length.extend(lengths)
        xlo.extend(x0)
        xhi.extend(x1)
        ylo.extend(y0)
        yhi.extend(y1)
        return first

    def segments(spec, extent: int):
        """One track's segments along a channel: start, end and length
        of each, and the segment covering each position."""
        starts, ends, lengths, owner = [], [], [], []
        pos = 0
        while pos < extent:
            n = 1
            if (spec.kind is SegmentKind.DOUBLE
                    and spec.starts_segment_at(pos) and pos + 1 < extent):
                n = 2
            owner += [len(starts)] * n
            starts.append(pos)
            ends.append(pos + n - 1)
            lengths.append(n)
            pos += n
        return starts, ends, lengths, owner

    # channel wires.  A horizontal segment of channel y spans tile
    # columns start..end between tile rows y-1 and y (vertical: rows
    # start..end between columns x-1 and x).  chanx[(y * cols + x) *
    # width + t] is the segment of track t of horizontal channel y
    # covering column x; chany[(x * rows + y) * width + t] likewise for
    # vertical channel x (int-indexed lists: no key tuples for the
    # collector to track)
    chanx = [0] * ((rows + 1) * cols * width)
    chany = [0] * ((cols + 1) * rows * width)
    along_x = [segments(spec, cols) for spec in specs]
    for ychan in range(rows + 1):
        for t, (starts, ends, lengths, owner) in enumerate(along_x):
            m = len(starts)
            first = nodes([KIND_CHANX] * m, lengths, starts, ends,
                          [ychan - 1] * m, [ychan] * m)
            for x, j in enumerate(owner):
                chanx[(ychan * cols + x) * width + t] = first + j
    along_y = [segments(spec, rows) for spec in specs]
    for xchan in range(cols + 1):
        for t, (starts, ends, lengths, owner) in enumerate(along_y):
            m = len(starts)
            first = nodes([KIND_CHANY] * m, lengths, [xchan - 1] * m,
                          [xchan] * m, starts, ends)
            for y, j in enumerate(owner):
                chany[(xchan * rows + y) * width + t] = first + j

    # switch points: every pair of segments ending or starting at an
    # intersection, both directions (a double's interior is bypassed)
    for xi in range(cols + 1):
        for yi in range(rows + 1):
            west = (yi * cols + xi - 1) * width
            south = (xi * rows + yi - 1) * width
            for spec in specs:
                t = spec.index
                incident: list[int] = []
                if xi >= 1 and xhi[nid := chanx[west + t]] + 1 == xi:
                    incident.append(nid)
                if xi < cols and xlo[nid := chanx[west + width + t]] == xi:
                    incident.append(nid)
                if yi >= 1 and yhi[nid := chany[south + t]] + 1 == yi:
                    incident.append(nid)
                if yi < rows and ylo[nid := chany[south + width + t]] == yi:
                    incident.append(nid)
                k = _BUF if spec.kind is SegmentKind.DOUBLE else _PASS
                for i, a in enumerate(incident):
                    for b in incident[i + 1:]:
                        src += (a, b)
                        dst += (b, a)
                        ekind += (k, k)

    def tile_wires(x: int, y: int) -> list[int]:
        """Every track of the four channels bordering tile (x, y)."""
        below = (y * cols + x) * width
        above = below + cols * width
        left = (x * rows + y) * width
        right = left + rows * width
        return sorted({
            *chanx[below:below + width], *chanx[above:above + width],
            *chany[left:left + width], *chany[right:right + width],
        })

    # logic-block pins, tiles row-major: the IPINs, the SINKs, then an
    # (OPIN, SOURCE) pair per output
    geom = params.lut_geometry()
    n_in = geom.base_inputs + geom.max_extra_inputs
    n_out = params.lut_outputs
    lb_kinds = ([KIND_IPIN] * n_in + [KIND_SINK] * n_in
                + [KIND_OPIN, KIND_SOURCE] * n_out)
    lb_ones = [1] * len(lb_kinds)
    lb_source: dict[tuple[int, int, int], int] = {}
    lb_sink: dict[tuple[int, int, int], int] = {}
    adjacent: dict[tuple[int, int], list[int]] = {}
    for y in range(rows):
        ys = [y] * len(lb_kinds)
        for x in range(cols):
            wires = adjacent[x, y] = tile_wires(x, y)
            xs = [x] * len(lb_kinds)
            first = nodes(lb_kinds, lb_ones, xs, xs, ys, ys)
            ipins = list(range(first, first + n_in))
            for i, ipin in enumerate(ipins):
                ws = _pin_wires(wires, i, params.fc_in)
                src += ws
                dst += [ipin] * len(ws)
                ekind += [_PIN] * len(ws)
            for i in range(n_in):
                sink = lb_sink[x, y, i] = first + n_in + i
                # input-pin equivalence: any IPIN can feed any input slot
                src += ipins
                dst += [sink] * n_in
                ekind += [_INTERNAL] * n_in
            for o in range(n_out):
                opin = first + 2 * n_in + 2 * o
                source = lb_source[x, y, o] = opin + 1
                ws = _pin_wires(wires, o, params.fc_out)
                src += (source, *[opin] * len(ws))
                dst += (opin, *ws)
                ekind += (_INTERNAL, *[_PIN] * len(ws))

    # perimeter I/O: a (SOURCE, OPIN, IPIN, SINK) run per pad, every pad
    # pin reaching every adjacent wire
    n_pads = params.io_capacity
    io_kinds = [KIND_SOURCE, KIND_OPIN, KIND_IPIN, KIND_SINK] * n_pads
    io_ones = [1] * len(io_kinds)
    io_source: dict[tuple[int, int, int], int] = {}
    io_sink: dict[tuple[int, int, int], int] = {}
    for y in range(rows):
        ys = [y] * len(io_kinds)
        for x in range(cols):
            if x not in (0, cols - 1) and y not in (0, rows - 1):
                continue
            wires = adjacent[x, y]
            nw = len(wires)
            pad_kinds = (_INTERNAL, *[_PIN] * (2 * nw), _INTERNAL)
            xs = [x] * len(io_kinds)
            first = nodes(io_kinds, io_ones, xs, xs, ys, ys)
            for pad in range(n_pads):
                source = io_source[x, y, pad] = first + 4 * pad
                opin, ipin = source + 1, source + 2
                sink = io_sink[x, y, pad] = source + 3
                src += (source, *[opin] * nw, *wires, ipin)
                dst += (opin, *wires, *[ipin] * nw, sink)
                ekind += pad_kinds

    n = len(kind)
    # int32/int8 copies, and the lists dropped at once, keep the build's
    # transient peak small
    src_np = np.array(src, dtype=np.int32)
    dst_np = np.array(dst, dtype=np.int32)
    ekind_np = np.array(ekind, dtype=np.int8)
    del src, dst, ekind
    to_sink = np.array(kind, dtype=np.int8)[dst_np] == KIND_SINK
    order = np.argsort(src_np * 2 + to_sink, kind="stable")
    edge_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src_np, minlength=n), out=edge_start[1:])
    edge_mid = edge_start[:-1] + np.bincount(src_np[~to_sink], minlength=n)
    cost = [1.0 + LENGTH_COST_FACTOR * (k - 1) for k in range(3)]
    return CompiledRRG._from_arrays(
        params,
        node_kind=kind,
        node_capacity=[1] * n,
        node_length=length,
        base_cost=[cost[k] for k in length],
        xlo=xlo,
        xhi=xhi,
        ylo=ylo,
        yhi=yhi,
        edge_start=edge_start,
        edge_mid=edge_mid,
        edge_dst=dst_np[order],
        edge_kind=ekind_np[order],
        lb_source=lb_source,
        lb_sink=lb_sink,
        io_source=io_source,
        io_sink=io_sink,
    )


def compile_rrg(g: RoutingResourceGraph) -> CompiledRRG:
    """The flat substrate of ``g``, memoised on the graph instance.

    Every object graph comes from :func:`~repro.arch.rrg.build_rrg`, so
    the arrays are emitted from ``g.params`` by :func:`build_flat`
    (not lowered from ``g``'s edges); ``g`` is attached as
    :attr:`CompiledRRG.source` and lends its equal pin dicts.  The
    result is attached to the graph as ``_compiled``, so the adapter
    entry points (``route_context`` on an object graph) pay the build
    once per graph, not once per call.
    """
    cached = getattr(g, "_compiled", None)
    if cached is not None:
        return cached
    compiled = build_flat(g.params)
    compiled.source = g
    compiled.lb_source, compiled.lb_sink = g.lb_source, g.lb_sink
    compiled.io_source, compiled.io_sink = g.io_source, g.io_sink
    g._compiled = compiled  # type: ignore[attr-defined]
    return compiled


#: Striped build locks.  ``lru_cache`` is thread-safe but not
#: single-flight: concurrent misses on one key each build their own
#: substrate and all but one result is discarded — wasted seconds per
#: worker and N transient copies of the biggest object in the system.
#: The job layer's worker pool made this a real path.  A key always
#: maps to the same stripe, so misses on one device build once; builds
#: for different devices overlap unless their hashes share a stripe.
#: The pool is fixed, so a long-running server answering sweeps over
#: many devices holds no per-device lock.
_BUILD_LOCKS = tuple(threading.Lock() for _ in range(64))


def _build_lock_for(params: ArchParams) -> threading.Lock:
    return _BUILD_LOCKS[hash(params) % len(_BUILD_LOCKS)]


@lru_cache(maxsize=32)
def _substrate_cached(params: ArchParams) -> CompiledRRG:
    _tcount("substrate.builds")
    return build_flat(params)


def compiled_rrg_for(params: ArchParams) -> CompiledRRG:
    """The substrate cache, keyed by the frozen ``ArchParams``.

    Every flow on a device — mapping, statistics extraction,
    verification, sweeps, yield campaigns — shares one substrate per
    device parameters, including concurrent jobs, which single-flight
    through the build lock.  The cache holds the 32 most recent device
    configurations, which comfortably covers a batch sweep; use
    :func:`clear_rrg_cache` between memory-sensitive experiments.
    """
    with _build_lock_for(params):
        return _substrate_cached(params)


compiled_rrg_for.cache_info = _substrate_cached.cache_info
compiled_rrg_for.cache_clear = _substrate_cached.cache_clear


def flat_rrg_for(params: ArchParams) -> CompiledRRG:
    """The same cache as :func:`compiled_rrg_for`, under the name the
    route-only flows (sweeps, yield campaigns) call.

    A separate function, not an alias, so that instrumentation which
    wraps each name by identity (``perfbench/tracer.py``) sees both
    call sites.
    """
    with _build_lock_for(params):
        return _substrate_cached(params)


flat_rrg_for.cache_info = _substrate_cached.cache_info
flat_rrg_for.cache_clear = _substrate_cached.cache_clear


def clear_rrg_cache() -> None:
    """Drop all cached substrates and their pooled router scratch
    buffers (mainly for tests / memory)."""
    _substrate_cached.cache_clear()
    from repro.route.pathfinder import SCRATCH_POOL

    SCRATCH_POOL.clear()
