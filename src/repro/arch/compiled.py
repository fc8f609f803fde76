"""The routing substrate: the island fabric as flat arrays.

:class:`CompiledRRG` is the one representation of the routing-resource
graph the placer, router, timing, statistics and defect models use.
Nodes are physical resources (wire segments, pins, logical
sources/sinks, :class:`NodeKind`); edges are programmable switches
(:class:`EdgeKind`).  The fabric is held as flat numpy arrays, so the
hot paths index buffers instead of chasing objects.  :func:`build_flat`
emits those arrays directly from the device parameters, in one call
into ``_build.c`` (``build_substrate``, compiled at the first build by
:class:`~repro.utils.native.NativeLibrary`).  Without a compiler it
logs one line and runs :func:`build_numpy`, which is also the native
build's oracle: each node class (wires, logic-block pins, I/O pads)
and each edge group (switch points, pins, I/O) is numpy index
arithmetic over channels, tracks, tiles and pins; every source's edges
come out in one fixed loop order, so one stable sort by source forms
the CSR rows.  The C build walks the same groups in the same order and
places each edge by a counting pass instead of the sort, so both emit
the same bytes (:func:`substrate_kernel` says which runs).  An
object-graph build of the same fabric lives in the test suite
(``tests/oracles/rrg_oracle.py``) as the independent oracle both are
compared against.

- **CSR adjacency** — ``edge_start[n] .. edge_start[n+1]`` indexes into
  ``edge_dst`` / ``edge_kind``.  Within each node's range, edges whose
  destination is a SINK are segregated *after* ``edge_mid[n]``, so the
  router's inner loop needs no per-edge kind test (relaxation order
  within one node does not affect the search's result — heap order is
  decided by the ``(g + h, -g, node)`` keys, not push order).  The three rows
  are contiguous int32 arrays, which the native context route reads in
  place; the Python search asks for list forms (:meth:`CompiledRRG.row_lists`).
- **node attribute arrays** — kind (int8), capacity (int64), wire
  length (int8) and the congestion *base cost* ``1.0 + 0.2 * (length -
  1)`` (float64) precomputed per node, one numpy array each.
- **spatial extents** — per-node tile-coordinate bounding boxes
  (``xlo``/``xhi``/``ylo``/``yhi``, int32 arrays) from which the
  router builds per-net bounding-box prune masks in one vectorised
  expression.
- **pin indexes** — int32 ``(tile, pin)`` tables of each tile's
  SOURCE and SINK nodes (``-1`` where a tile has no such pin).

One ``lru_cache`` keyed by the *frozen*
:class:`~repro.arch.params.ArchParams` serves every flow — mapping,
statistics, verification, sweeps and yield campaigns — under two
names, :func:`compiled_rrg_for` and :func:`flat_rrg_for`.  That cache
is what lets a batch of mapping jobs or sweep points on the same device
share one substrate.  Statistics extraction looks edge kinds up with
:meth:`CompiledRRG.edge_kinds` and counts switches with
:meth:`CompiledRRG.n_switches`, both over the CSR arrays.
"""

from __future__ import annotations

import ctypes
import enum
import math
import threading
from functools import lru_cache

import numpy as np

from repro.arch.params import ArchParams
from repro.arch.wires import SegmentKind, double_track_count
from repro.errors import ArchitectureError
from repro.utils.native import NativeLibrary
from repro.utils.telemetry import count as _tcount


class NodeKind(enum.Enum):
    SOURCE = "source"   # logical driver of a placeable output
    SINK = "sink"       # logical target of a placeable input
    OPIN = "opin"       # physical output pin
    IPIN = "ipin"       # physical input pin
    CHANX = "chanx"     # horizontal wire segment
    CHANY = "chany"     # vertical wire segment


class EdgeKind(enum.Enum):
    PASS = "pass"       # SE pass-gate (RCM routing switch / diamond)
    BUF = "buf"         # buffered driver (double-length line start)
    PIN = "pin"         # pin <-> wire connection-block switch
    INTERNAL = "int"    # source->opin / ipin->sink bookkeeping


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

#: Extra wire-length cost factor of a node's congestion base cost
#: ``1.0 + LENGTH_COST_FACTOR * (length - 1)``.
LENGTH_COST_FACTOR = 0.2


class CompiledRRG:
    """Flat arrays of one fabric: what the router and placer inner loops
    need, and nothing else.

    Built by :func:`build_flat` through :meth:`_from_arrays`.
    """

    __slots__ = (
        "params",
        "n_nodes",
        "n_edges",
        "node_kind",
        "node_capacity",
        "node_length",
        "base_cost",
        "xlo",
        "xhi",
        "ylo",
        "yhi",
        "edge_start",
        "edge_mid",
        "edge_dst",
        "edge_kind",
        "lb_source_ids",
        "lb_sink_ids",
        "io_source_ids",
        "io_sink_ids",
        "_wire_ids",
        "_switch_edge_ids",
        "_edge_src",
        "_edge_codes",
        "_edge_keys",
        "_n_switches",
        "_logic_tiles",
        "_wire_len",
        "_row_lists",
        "_sink_lists",
        "_pin_tables",
        "_route_job",
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
        lb_source_ids,
        lb_sink_ids,
        io_source_ids,
        io_sink_ids,
    ) -> "CompiledRRG":
        """Assemble a substrate from its arrays — the one constructor.

        Array fields take Python lists or numpy arrays, and each is
        stored once, as a numpy array: ``node_kind``, ``node_length``
        and ``edge_kind`` as int8, ``node_capacity`` as int64,
        ``base_cost`` as float64, and the extents, the CSR rows
        ``edge_start``/``edge_mid``/``edge_dst`` and the pin-node
        tables as int32, all but ``edge_kind`` contiguous.  Each
        aliases its input when it already has that form.

        The pin-node tables are indexed by row-major tile ``y * cols +
        x``: ``lb_source_ids[tile, output]``, ``lb_sink_ids[tile,
        input]``, and ``io_source_ids[tile, pad]`` /
        ``io_sink_ids[tile, pad]``, which hold -1 on tiles without pads.
        They are the substrate's only pin index: a ``-1`` entry, or an
        index past a table's bounds, is a pin the fabric does not have.
        """
        c = cls.__new__(cls)
        c.params = params
        c.lb_source_ids, c.lb_sink_ids, c.io_source_ids, c.io_sink_ids = (
            np.ascontiguousarray(ids, dtype=np.int32) for ids in (
                lb_source_ids, lb_sink_ids, io_source_ids, io_sink_ids))
        n = len(node_kind)
        c.n_nodes = n
        c.node_kind = np.ascontiguousarray(node_kind, dtype=np.int8)
        c.node_length = np.ascontiguousarray(node_length, dtype=np.int8)
        # capacity/base-cost feed the congestion bookkeeping (overuse
        # scans, effective-cost refreshes), the extents per-net
        # prune-mask construction; the native context route reads
        # them in place
        c.node_capacity = np.ascontiguousarray(node_capacity, dtype=np.int64)
        c.base_cost = np.ascontiguousarray(base_cost, dtype=np.float64)
        c.xlo, c.xhi, c.ylo, c.yhi = (np.ascontiguousarray(a, dtype=np.int32)
                                      for a in (xlo, xhi, ylo, yhi))
        c.edge_start = np.ascontiguousarray(edge_start, dtype=np.int32)
        c.edge_mid = np.ascontiguousarray(edge_mid, dtype=np.int32)
        c.edge_dst = np.ascontiguousarray(edge_dst, dtype=np.int32)
        # not read by the router; switch kinds for timing, statistics
        # and defect sampling, as the int8 array ``build_flat`` makes
        c.edge_kind = np.asarray(edge_kind, dtype=np.int8)
        c.n_edges = len(c.edge_dst)

        # defect-candidate indexes (reliability subsystem) are derived
        # lazily and cached, so routing-only flows never pay for them
        # but Monte Carlo trials sample against ready-made arrays
        c._wire_ids = None
        c._switch_edge_ids = None
        c._edge_src = None
        c._edge_codes = None
        c._edge_keys = None
        c._n_switches = None
        c._logic_tiles = None
        c._wire_len = None
        c._row_lists = None
        c._sink_lists = None
        c._pin_tables = None
        c._route_job = None
        return c

    def __getstate__(self):
        # the native context route's job template (``_route_job``, see
        # repro.route.pathfinder) holds addresses of this process's
        # arrays, so a pickled substrate leaves it behind
        state = {name: getattr(self, name) for name in CompiledRRG.__slots__}
        state["_route_job"] = None
        return None, state

    def pin_tables(self) -> tuple[tuple, tuple]:
        """The SOURCE and the SINK pin-node table, each as ``(nodes,
        lb_width, lb_size, pad_width)``: ``nodes`` is the logic-block
        table then the pad table, raveled into one Python list (built on
        first use and cached), so pin ``pin`` of logic tile ``t`` is
        ``nodes[t * lb_width + pin]`` and pad ``pad`` of tile ``t`` is
        ``nodes[lb_size + t * pad_width + pad]``.  Route endpoint
        extraction looks a placed netlist's pins up in them."""
        if self._pin_tables is None:
            self._pin_tables = tuple(
                (lb.ravel().tolist() + pads.ravel().tolist(), lb.shape[1],
                 lb.size, pads.shape[1])
                for lb, pads in ((self.lb_source_ids, self.io_source_ids),
                                 (self.lb_sink_ids, self.io_sink_ids)))
        return self._pin_tables

    def row_lists(self) -> tuple[list[int], list[int], list[int]]:
        """``edge_start``/``edge_mid``/``edge_dst`` as Python lists,
        built on first use and cached (the Python search iterates them;
        the native context route reads the int32 arrays and never asks).
        ``edge_dst`` reuses one int object per node id: a plain
        ``tolist()`` would allocate a fresh int per *edge*."""
        if self._row_lists is None:
            ids = np.array(range(self.n_nodes), dtype=object)
            self._row_lists = (self.edge_start.tolist(),
                               self.edge_mid.tolist(),
                               ids[self.edge_dst].tolist())
        return self._row_lists

    def sink_lists(self) -> tuple[list[list[int]], list[list[int]]]:
        """``lb_sink_ids`` and ``io_sink_ids`` as nested Python lists
        (one row per tile), built on first use and cached: static
        timing looks a few sinks up per call."""
        if self._sink_lists is None:
            self._sink_lists = (self.lb_sink_ids.tolist(),
                                self.io_sink_ids.tolist())
        return self._sink_lists

    # -- defect-candidate indexes (reliability subsystem) ------------------- #
    def wire_node_ids(self) -> np.ndarray:
        """Node ids of every wire segment (CHANX/CHANY), cached.

        These are the *wire* defect candidates: an open or short on a
        metal segment takes the whole segment (and every context that
        would use it) out of service.
        """
        if self._wire_ids is None:
            kind = self.node_kind
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
            kinds = self.edge_kind
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

    def edge_codes(self) -> np.ndarray:
        """``src * n_nodes + dst`` of every CSR edge as int64, cached:
        the key dead switches (``DefectMap.bad_edge_codes``) and
        :meth:`edge_kinds` share."""
        if self._edge_codes is None:
            self._edge_codes = self.edge_src_ids() * self.n_nodes \
                + self.edge_dst
        return self._edge_codes

    # -- switch lookups (bitstream statistics) ----------------------------- #
    def edge_index(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """CSR index of each edge ``src[i] -> dst[i]``, or -1 where the
        fabric has no such edge.

        Binary search over the sorted ``src * n_nodes + dst`` keys,
        built once per substrate and cached.  The sort is stable, so a
        repeated edge answers with its first copy in CSR order, which
        is the first copy in :func:`build_flat`'s edge order.
        """
        if self._edge_keys is None:
            keys = self.edge_codes()
            order = np.argsort(keys, kind="stable")
            self._edge_keys = (keys[order], order)
        keys, order = self._edge_keys
        want = np.asarray(src, dtype=np.int64) * self.n_nodes + dst
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return np.where(keys[pos] == want, order[pos], -1)

    def edge_kinds(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Kind index (into :data:`EDGE_KINDS`) of each edge
        ``src[i] -> dst[i]`` (its first copy, see :meth:`edge_index`),
        or -1 where the fabric has no such edge."""
        at = self.edge_index(src, dst)
        return np.where(at >= 0, self.edge_kind[at], -1)

    def n_switches(self) -> int:
        """Programmable switches: undirected PASS/BUF pairs plus PIN
        edges, counted once per substrate and cached."""
        if self._n_switches is None:
            kinds = self.edge_kind
            pair = (kinds == _PASS) | (kinds == _BUF)
            a = self.edge_src_ids()[pair]
            b = self.edge_dst[pair].astype(np.int64)
            keys = np.sort(np.minimum(a, b) * self.n_nodes + np.maximum(a, b))
            # distinct keys by adjacent changes: np.unique would import
            # numpy.ma (through np.ma.is_masked) for this one count
            pairs = int(keys.size > 0) + int(
                np.count_nonzero(keys[1:] != keys[:-1]))
            self._n_switches = pairs + int(np.count_nonzero(kinds == _PIN))
        return self._n_switches

    def logic_tiles(self) -> tuple[tuple[int, int], ...]:
        """Tile coordinates hosting a logic block, cached.

        The *logic-site* defect candidates: a fabrication fault in an
        LB kills every cell the placer would put there, so repair must
        escalate to re-placement.
        """
        if self._logic_tiles is None:
            cols = self.params.cols
            tiles = np.flatnonzero((self.lb_source_ids >= 0).any(axis=1))
            self._logic_tiles = tuple(
                sorted((t % cols, t // cols) for t in tiles.tolist())
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
            wires = self.wire_node_ids()
            self._wire_len = np.zeros(self.n_nodes, dtype=np.int64)
            self._wire_len[wires] = self.node_length[wires]
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
            (self.xhi >= bxlo) & (self.xlo <= bxhi)
            & (self.yhi >= bylo) & (self.ylo <= byhi)
        )
        return inside.tobytes()

    # -- convenience -------------------------------------------------------- #
    def node_name(self, nid: int) -> str:
        """Best-effort node description (error paths, diagnostics)."""
        return f"node {nid} ({NODE_KINDS[self.node_kind[nid]].value})"

    def kind_of(self, nid: int) -> NodeKind:
        return NODE_KINDS[self.node_kind[nid]]

    def is_wire(self, nid: int) -> bool:
        k = int(self.node_kind[nid])
        return k == KIND_CHANX or k == KIND_CHANY

    def describe(self) -> str:
        return (
            f"CompiledRRG {self.params.cols}x{self.params.rows} "
            f"W={self.params.channel_width}: {self.n_nodes} nodes "
            f"{self.n_edges} edges (CSR)"
        )


#: Switch-point pairs among a track's four sides at an intersection
#: (0 west, 1 east, 2 south, 3 north): ``(a, b)`` then ``(b, a)`` for
#: each pair of sides ``a < b``, in lexicographic order.
_PAIR_FROM = np.array([0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3], dtype=np.intp)
_PAIR_TO = np.array([1, 0, 2, 0, 3, 0, 2, 1, 3, 1, 3, 2], dtype=np.intp)


def _segments(double: np.ndarray, phase: np.ndarray, extent: int):
    """Every track's segments along a channel of ``extent`` positions.

    A single begins a segment at every position, a double at each
    position of its phase and at 0 (a phase-1 double opens with a
    length-1 stub).  Returns the ``(W, extent)`` begin and end masks,
    each segment's start, end and length in node order (track-major),
    and ``local[pos, t]``, the index of track ``t``'s segment covering
    ``pos`` (one running count: every track begins at 0).
    """
    pos = np.arange(extent, dtype=np.int32)
    begins = ~(double[:, None] & (pos > 0) & ((pos + phase[:, None]) % 2 == 1))
    ends = np.ones_like(begins)
    ends[:, :-1] = begins[:, 1:]
    first = np.flatnonzero(begins).astype(np.int32)
    last = np.flatnonzero(ends).astype(np.int32)
    local = np.cumsum(begins.ravel(), dtype=np.int32).reshape(begins.shape).T
    return (begins, ends, first % extent, last % extent, last - first + 1,
            local - 1)


def _fc_pattern(fc: float, n_wires: int) -> tuple[int, int]:
    """``(k, step)``: pin ``p`` reaches the ``k`` columns from ``p *
    step`` of a tile's sorted wire row, wrapping around.  All of them
    at ``fc >= 1`` (``step`` 0), else ``ceil(fc * n_wires)`` from a
    pin-staggered start (the standard Fc population pattern)."""
    if fc >= 1.0:
        return n_wires, 0
    k = max(1, math.ceil(fc * n_wires))
    return k, max(1, n_wires // k)


def _fc_rows(fc: float, n_pins: int, n_wires: int) -> np.ndarray:
    """``(n_pins, k)`` columns of a tile's sorted wire row that each pin
    reaches (:func:`_fc_pattern`)."""
    k, step = _fc_pattern(fc, n_wires)
    start = np.arange(n_pins, dtype=np.intp) * step
    return (start[:, None] + np.arange(k, dtype=np.intp)) % n_wires


def _fill(arrays, first: int, shape: tuple, values) -> int:
    """Write each value, broadcast to ``shape``, over its array's run
    from ``first``; returns the end of the run."""
    end = first + math.prod(shape)
    for a, v in zip(arrays, values):
        a[first:end].reshape(shape)[...] = v
    return end


#: Congestion base cost by wire length (pins have length 1).
_BASE_COST = np.array([1.0 + LENGTH_COST_FACTOR * (k - 1) for k in range(3)])
_BASE_COST_AT = _BASE_COST.ctypes.data

#: The native build (``_build.c``), built at the first substrate build.
_BUILD = NativeLibrary(
    "repro.arch", "_build.c", "build_substrate",
    (ctypes.c_void_p,) * 3, ctypes.c_int64,
)
#: ``build_substrate``'s ``spec``: 11 device slots, then what the size
#: query writes: node and edge counts, the output buffer's byte size
#: and the byte offset of each of its 12 arrays
_SPEC_DEVICE = 11
_Spec = ctypes.c_int64 * (_SPEC_DEVICE + 15)


def substrate_kernel() -> str:
    """The substrate build: ``"native"`` (one C call per fabric) or
    ``"python"`` (:func:`build_numpy`).  Builds the C build on first
    use."""
    return _BUILD.kernel


def build_flat(params: ArchParams) -> CompiledRRG:
    """The flat substrate for ``params``: one call into ``_build.c``,
    or :func:`build_numpy` where no native build is available.  Both
    emit the same arrays, byte for byte."""
    fn = _BUILD.function()
    return build_numpy(params) if fn is None else _build_native(fn, params)


def _lb_pins(params: ArchParams) -> tuple[int, int]:
    """Input and output pins of each logic block."""
    geom = params.lut_geometry()
    return geom.base_inputs + geom.max_extra_inputs, params.lut_outputs


def _build_native(fn, params: ArchParams) -> CompiledRRG:
    """:func:`build_numpy`'s arrays from ``build_substrate``: a size
    query lays the arrays out in one buffer, allocated here, and one
    more call fills it."""
    cols, rows, width = params.cols, params.rows, params.channel_width
    n_in, n_out = _lb_pins(params)
    n_pads, n_wires = params.io_capacity, 4 * width
    spec = _Spec(
        cols, rows, width,
        width - double_track_count(width, params.double_fraction),
        n_in, n_out, n_pads, *_fc_pattern(params.fc_in, n_wires),
        *_fc_pattern(params.fc_out, n_wires))
    if fn(spec, None, None):
        raise ArchitectureError(
            f"{cols}x{rows} W={width}: node or edge ids overflow int32")
    n, n_edges, size, *offsets = spec[_SPEC_DEVICE:]
    buf = np.empty(size, dtype=np.uint8)
    if fn(spec, _BASE_COST_AT,
          ctypes.addressof(ctypes.c_char.from_buffer(buf))):
        raise MemoryError("substrate build: allocation failed")
    n_tiles = cols * rows
    i8, i32 = np.int8, np.int32
    (kind, length, capacity, base_cost, (xlo, xhi, ylo, yhi), edge_start,
     edge_mid, edge_dst, edge_kind, lb_source, lb_sink,
     (io_source, io_sink)) = (
        np.ndarray(shape, dtype, buf, offset)
        for (shape, dtype), offset in zip((
            (n, i8), (n, i8), (n, np.int64), (n, np.float64), ((4, n), i32),
            (n + 1, i32), (n, i32), (n_edges, i32), (n_edges, i8),
            ((n_tiles, n_out), i32), ((n_tiles, n_in), i32),
            ((2, n_tiles, n_pads), i32)), offsets))
    return CompiledRRG._from_arrays(
        params,
        node_kind=kind,
        node_capacity=capacity,
        node_length=length,
        base_cost=base_cost,
        xlo=xlo,
        xhi=xhi,
        ylo=ylo,
        yhi=yhi,
        edge_start=edge_start,
        edge_mid=edge_mid,
        edge_dst=edge_dst,
        edge_kind=edge_kind,
        lb_source_ids=lb_source,
        lb_sink_ids=lb_sink,
        io_source_ids=io_source,
        io_sink_ids=io_sink,
    )


def build_numpy(params: ArchParams) -> CompiledRRG:
    """Emit the flat substrate for ``params`` straight as arrays, with
    numpy: the no-compiler fallback of :func:`build_flat` and the
    native build's oracle.

    Node ids run CHANX then CHANY wires (channel, track, segment),
    logic-block pins per tile (row-major), then perimeter I/O.  Each
    node class is one run of index arithmetic over its channels, tiles
    and pins; a track's segmentation has a closed form.  Each edge
    group — switch points, logic-block pins and outputs, I/O — is one
    broadcast over a fixed loop nest, flattened in that loop order, and
    the groups with wire sources come first.  So every source's
    out-edges keep one fixed order, and a stable sort by source forms
    the CSR rows (``_build.c`` places them in that order without a
    sort).  Only IPINs drive SINKs, and they drive nothing else,
    so ``edge_mid`` is a per-kind choice.  No node object, name string
    or per-edge Python value is created.  The object-graph oracle
    (``tests/oracles/rrg_oracle.py``) builds the same fabric loop by
    loop in this order; the tests lower it and compare it with these
    arrays.
    """
    cols, rows, width = params.cols, params.rows, params.channel_width
    i32 = np.int32
    specs = params.track_specs()
    double = np.array([s.kind is SegmentKind.DOUBLE for s in specs])
    phase = np.array([s.phase for s in specs], dtype=i32)
    track_edge = np.where(double, _BUF, _PASS).astype(np.int8)

    # channel wires.  A horizontal segment of channel y spans tile
    # columns start..end between tile rows y-1 and y (vertical: rows
    # start..end between columns x-1 and x).  chanx[y, x, t] is the
    # segment of track t of horizontal channel y covering column x;
    # chany[x, y, t] likewise for vertical channel x
    begins_x, ends_x, sx, ex, lx, local_x = _segments(double, phase, cols)
    begins_y, ends_y, sy, ey, ly, local_y = _segments(double, phase, rows)
    mx, my = len(sx), len(sy)
    n_x = (rows + 1) * mx
    chanx = (np.arange(rows + 1, dtype=i32) * i32(mx))[:, None, None] + local_x
    chany = (np.arange(cols + 1, dtype=i32) * i32(my)
             + i32(n_x))[:, None, None] + local_y

    # logic blocks: per tile, the IPINs, the SINKs, then an (OPIN,
    # SOURCE) pair per output.  The 4W wires of the four channels
    # bordering a tile are distinct, and their ids already ascend in
    # the order below, above, left, right: each row of tile_wires is
    # sorted
    n_in, n_out = _lb_pins(params)
    lb_kinds = np.array([KIND_IPIN] * n_in + [KIND_SINK] * n_in
                        + [KIND_OPIN, KIND_SOURCE] * n_out, dtype=np.int8)
    n_tiles, per_lb = rows * cols, len(lb_kinds)
    lb_first = n_x + (cols + 1) * my
    first = np.arange(n_tiles, dtype=i32) * i32(per_lb) + i32(lb_first)
    ipin = first[:, None] + np.arange(n_in, dtype=i32)
    sink = ipin + i32(n_in)
    opin = first[:, None] + (np.arange(n_out, dtype=i32) * i32(2)
                             + i32(2 * n_in))
    source = opin + i32(1)
    tile_y, tile_x = np.divmod(np.arange(n_tiles, dtype=i32), i32(cols))
    n_wires = 4 * width
    tile_wires = np.concatenate(
        (chanx[:-1], chanx[1:], chany[:-1].transpose(1, 0, 2),
         chany[1:].transpose(1, 0, 2)), axis=2).reshape(n_tiles, n_wires)

    # perimeter I/O: a (SOURCE, OPIN, IPIN, SINK) run per pad, every pad
    # pin reaching every adjacent wire
    n_pads = params.io_capacity
    perimeter = np.flatnonzero((tile_x == 0) | (tile_x == cols - 1)
                               | (tile_y == 0) | (tile_y == rows - 1))
    n_perim = len(perimeter)
    io_first = lb_first + n_tiles * per_lb
    io_source = (np.arange(n_perim * n_pads, dtype=i32) * i32(4)
                 + i32(io_first)).reshape(n_perim, n_pads)
    io_opin, io_ipin, io_sink = (io_source + i32(k) for k in (1, 2, 3))
    io_wires = tile_wires[perimeter][:, None, :]
    io_x, io_y = tile_x[perimeter][:, None], tile_y[perimeter][:, None]
    io_kinds = np.array([KIND_SOURCE, KIND_OPIN, KIND_IPIN, KIND_SINK] * n_pads,
                        dtype=np.int8)

    # node attributes, run by run: kind, length, xlo, xhi, ylo, yhi.
    # Channel c lies between tile rows (columns) c-1 and c
    n = io_first + 4 * n_perim * n_pads
    kind = np.empty(n, dtype=np.int8)
    length = np.empty(n, dtype=np.int8)
    xlo, xhi, ylo, yhi = np.empty((4, n), dtype=i32)
    attrs = (kind, length, xlo, xhi, ylo, yhi)
    lo = np.arange(-1, max(rows, cols) + 1, dtype=i32)[:, None]
    at = _fill(attrs, 0, (rows + 1, mx),
               (KIND_CHANX, lx, sx, ex, lo[:rows + 1], lo[1:rows + 2]))
    at = _fill(attrs, at, (cols + 1, my),
               (KIND_CHANY, ly, lo[:cols + 1], lo[1:cols + 2], sy, ey))
    tx, ty = tile_x[:, None], tile_y[:, None]
    at = _fill(attrs, at, (n_tiles, per_lb), (lb_kinds, 1, tx, tx, ty, ty))
    _fill(attrs, at, (n_perim, 4 * n_pads),
          (io_kinds, 1, io_x, io_x, io_y, io_y))

    # switch points: at intersection (xi, yi), track t's west, east,
    # south and north segments that end or start there (a double's
    # interior is bypassed), every pair of them both ways
    side = np.zeros((cols + 1, rows + 1, width, 4), dtype=i32)
    touch = np.zeros((cols + 1, rows + 1, width, 4), dtype=bool)
    along_x = chanx.transpose(1, 0, 2)
    side[1:, :, :, 0], touch[1:, :, :, 0] = along_x, ends_x.T[:, None]
    side[:-1, :, :, 1], touch[:-1, :, :, 1] = along_x, begins_x.T[:, None]
    side[:, 1:, :, 2], touch[:, 1:, :, 2] = chany, ends_y.T
    side[:, :-1, :, 3], touch[:, :-1, :, 3] = chany, begins_y.T
    pair = touch[..., _PAIR_FROM] & touch[..., _PAIR_TO]

    # the edge groups: (shape of the loop nest, src, dst, kind).  Switch
    # points loop (xi, yi, t, pair, direction); per tile, wire -> IPIN
    # (pin, wire), IPIN -> SINK (sink, ipin: input-pin equivalence, any
    # IPIN feeds any input slot), SOURCE -> OPIN and OPIN -> wire
    # (output, wire); per perimeter tile, the pads
    in_wires = tile_wires[:, _fc_rows(params.fc_in, n_in, n_wires)]
    out_wires = tile_wires[:, _fc_rows(params.fc_out, n_out, n_wires)]
    pads_wide = (n_perim, n_pads, n_wires)
    groups = (
        ((int(np.count_nonzero(pair)),), side[..., _PAIR_FROM][pair],
         side[..., _PAIR_TO][pair],
         np.broadcast_to(track_edge[:, None], pair.shape)[pair]),
        (in_wires.shape, in_wires, ipin[..., None], _PIN),
        (pads_wide, io_wires, io_ipin[..., None], _PIN),
        ((n_tiles, n_in, n_in), ipin[:, None, :], sink[..., None], _INTERNAL),
        (source.shape, source, opin, _INTERNAL),
        (out_wires.shape, opin[..., None], out_wires, _PIN),
        (io_source.shape, io_source, io_opin, _INTERNAL),
        (pads_wide, io_opin[..., None], io_wires, _PIN),
        (io_ipin.shape, io_ipin, io_sink, _INTERNAL),
    )
    n_edges = sum(math.prod(shape) for shape, *_ in groups)
    src = np.empty(n_edges, dtype=i32)
    dst = np.empty(n_edges, dtype=i32)
    ekind = np.empty(n_edges, dtype=np.int8)
    at = 0
    for shape, *values in groups:
        at = _fill((src, dst, ekind), at, shape, values)

    # uint16 keys take numpy's radix sort; either sort is stable.  The
    # sort's working arrays are dropped as soon as they are used, which
    # keeps the build's transient peak down
    order = np.argsort(src.astype(np.uint16) if n <= 1 << 16 else src,
                       kind="stable")
    counts = np.bincount(src, minlength=n).astype(i32)
    del src
    edge_start = np.zeros(n + 1, dtype=i32)
    np.cumsum(counts, out=edge_start[1:])
    edge_mid = edge_start[1:] - np.where(kind == KIND_IPIN, counts, i32(0))
    dst, ekind = dst[order], ekind[order]
    del order

    # pad pin nodes spread from perimeter rows to tile rows
    io_ids = np.full((2, n_tiles, n_pads), -1, dtype=i32)
    io_ids[:, perimeter] = io_source, io_sink
    return CompiledRRG._from_arrays(
        params,
        node_kind=kind,
        node_capacity=np.ones(n, dtype=np.int64),
        node_length=length,
        base_cost=_BASE_COST[length],
        xlo=xlo,
        xhi=xhi,
        ylo=ylo,
        yhi=yhi,
        edge_start=edge_start,
        edge_mid=edge_mid,
        edge_dst=dst,
        edge_kind=ekind,
        lb_source_ids=source,
        lb_sink_ids=sink,
        io_source_ids=io_ids[0],
        io_sink_ids=io_ids[1],
    )


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
    """Drop all cached substrates (mainly for tests / memory)."""
    _substrate_cached.cache_clear()
