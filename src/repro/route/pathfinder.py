"""PathFinder negotiated-congestion routing on the flat substrate.

Classic iterative rip-up-and-reroute: every net is routed by a shortest
path search over the routing-resource graph; node costs grow with
present overuse and accumulated (history) congestion until the solution
is overlap-free.  Multi-sink nets route as Steiner-ish trees by
re-running the search from the partial tree to each remaining sink.

Multi-context specifics: each context is an independent routing problem
on the same RRG, but the *proposed* flow reuses routes for nets that are
identical across contexts (same source and sink nodes) — reused routes
make the corresponding switch patterns CONSTANT, which is what the RCM
rewards (paper Section 3).

The router runs over the flat CSR arrays of a
:class:`~repro.arch.compiled.CompiledRRG`, and each kernel has one
search.  A context route is one native call when the C build is there
(:func:`route_kernel`): ``route_context`` in ``_search.c`` (built at
first use by :mod:`repro.utils.native`) runs the whole loop — setting
up the congestion state (dead wires unroutable), adopting bank routes,
finding and seeding the salvaged branches, each net's sink searches inside its prune box
(``CompiledRRG.bbox_mask``'s inequalities, tested per relaxation) and
the unpruned retry, the usage commits and every rip-up iteration
(overuse test, history bump, pressure growth, re-price) — over this
module's arrays, with :class:`_FlatCongestion`'s arithmetic operation
for operation, and hands back each net's route tree as arrays
(:class:`RouteTree`).  It allocates its own search buffers.  What
Python still does around the call: it extracts the nets' endpoints
(:class:`NetEndpoints`, which a caller may keep), looks the nets up in
the reuse bank and the salvage, hands over the per-call arrays and
empty congestion buffers (:class:`_CongestionArrays`), and builds one
:class:`RoutedNet` per net from the output.

Without a C compiler the Python loop (:func:`_route_initial` and the
rip-up loop of :func:`route_context_compiled`) runs :func:`_search`,
the Python kernel :func:`_astar`, on a :class:`RouterScratch` made for
that context route.  The loop stays as the fallback and the oracle: it
builds the same trees from its sink paths
(:meth:`RouteTree.from_paths`), and
``tests/route/test_native_context.py`` holds the two equal net for
net, counters included.  Search buffers are reused by epoch stamping
within a context route; each net is pruned to its terminal bounding
box, with a full-graph retry.

Both searches are A*, VPR's directed search (Betz, Rose & Marquardt,
1999) inside PathFinder's negotiated congestion (McMurchie & Ebeling,
FPGA'95).  The bound on the cost left from node ``n`` to target ``t``
is ``h_t(n) = ASTAR_FAC * (gap_x + gap_y)``, each gap the tiles
between ``n``'s extent box and ``t``'s tile (:func:`_lower_bounds`).
It is consistent: an edge ``u -> v`` joins nodes whose boxes overlap
and no box spans more than 2 tiles a side, so each gap shrinks by at
most one tile and ``h_t(u) - h_t(v) <= 0.5 * 2 = 1.0``, while every
cost ``eff[v]`` is at least its base cost, >= 1.0.  So the search
pops every node first at its shortest distance and returns a cheapest
path, as Dijkstra would; only the choice among equally cheap paths is
the bound's (``tests/route/test_lower_bound.py`` checks the inequality
on every edge of the workloads' fabrics).  The bound is infinite, and
the search never pushes the node, at an input pin (a node whose only
edges are SINK edges) on another tile than the target's: it reaches
none of the target's sinks, so skipping it moves no route, only pops.
Both heaps order entries by ``(g + h, -g, node)``: ``h`` is fixed per
node within a search and a node's pushed ``g`` strictly decrease, so
no two keys tie and the C binary heap and ``heapq`` pop the same
order.

A routed net keeps its route as one :class:`RouteTree`: int32 arrays
in tree order that timing, repair and the statistics read directly.
The set and dict views (``nodes``, ``edges``, ``sink_paths``) are
built only when something asks for them, so a yield trial's routes
never build one on the native path.

``route_context_compiled`` / ``route_program_compiled`` are the public
entry points.  The original dict/set router over an object graph lives
in the test suite (``tests/oracles/legacy_router.py``) as the
independent reference: it shares cost arithmetic and tie-breaking with
this engine, and bounding-box pruning *can* in principle divert a net whose
oracle-optimal detour leaves the terminal box by more than
``BBOX_MARGIN`` tiles while a costlier in-box path exists.  The
equivalence suite (``tests/route/test_compiled_equivalence.py``) pins
bit-identical routes and the scaling bench equal wirelength, so a
divergence fails loudly rather than shipping silently.

The router also accepts a
:class:`~repro.reliability.defect_map.DefectMap` (``defects=``).  Dead
wires are priced unroutable in the congestion state and masked out of
every search.  Dead switches are lowered once per map into a copy of
``edge_dst`` in which each dead edge ``u -> v`` is the self-loop
``u -> u`` (:meth:`~repro.reliability.defect_map.DefectMap.live_edge_dst`);
a self-loop never relaxes, so the kernel needs no per-edge test and
its pop order is unchanged.  This is what the defect-tolerant mapping
and Monte Carlo yield subsystem (:mod:`repro.reliability`) rides on.
A clean map is normalised away up front, so defect-free routing takes
the exact original code path.
"""

from __future__ import annotations

import ctypes
import heapq
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.reliability.defect_map import DefectMap

from repro.arch.compiled import CompiledRRG
from repro.errors import PlacementError, RoutingError
from repro.netlist.dfg import MultiContextProgram
from repro.netlist.index import DFF, LUT, NetlistIndex
from repro.netlist.netlist import Netlist
from repro.place.placer import Placement
from repro.utils.native import NativeLibrary
from repro.utils.telemetry import collecting, current_collector
from repro.utils.telemetry import count as _tcount

#: PathFinder schedule parameters.
MAX_ITERATIONS = 40
PRES_FAC_FIRST = 0.6
PRES_FAC_MULT = 1.6
HIST_FAC = 0.35

#: Weight of the search's lower bound: each tile between a node and
#: its target counts this much of the cost still to pay (see the
#: module docstring for why 0.5 keeps every search optimal).
ASTAR_FAC = 0.5

#: Starting pressure factor for warm-started (delta-reroute) calls.  A
#: cold route begins gentle (``PRES_FAC_FIRST``) because early sharing
#: is cheap information about where congestion will form.  A warm
#: repair route already *has* that information — the adopted golden
#: routes — so its fresh nets should treat occupied nodes as expensive
#: from the very first search instead of sharing now and unwinding the
#: collision over several rip-up iterations.  Empirically the reroute
#: count stops improving past ~8 while detour quality is unchanged;
#: escalation still multiplies from here if congestion does persist.
WARM_PRES_FAC = 8.0

#: Tiles of slack added around a net's terminal bounding box before the
#: compiled router prunes the search.  Generous enough that detours under
#: congestion stay inside the box on realistic fabrics; when a search
#: still fails inside the box it is retried unpruned.
BBOX_MARGIN = 3


class RouteTree:
    """One routed net's tree as read-only int32 arrays in tree order.

    ``node[i]`` is the ``i``-th distinct node the route added
    (``node[0]`` is the source), ``parent[i]`` the position of the node
    it was reached from and ``edge[i]`` the CSR index of that edge (the
    first ``node[parent[i]] -> node[i]`` edge of the parent's row; -1
    at the source), so a parent always comes before its children.
    ``branch[k]`` is the ``k``-th sink path, in the order the router
    added them, as ``(position of the path's last node, length)``: the
    path is the last ``length`` nodes of that node's chain to the
    source (a searched path starts at the tree node it grew from, a
    salvaged one at the source).  :meth:`edge_codes` keys the edges
    as ``src * n_nodes + dst``.

    The set and dict views of the route (:attr:`nodes`, :attr:`edges`,
    :attr:`sink_paths`) are built on first access and cached, each
    filled in the order the router adds nodes, edges and paths, so
    even their iteration order is the router's.  An adopted route
    shares its bank route's tree, caches included.  ``delay_memo`` is
    :mod:`repro.route.timing`'s per-tree sink-delay table.  No cache
    pickles.
    """

    __slots__ = ("node", "parent", "edge", "branch", "delay_memo",
                 "_nodes", "_edges", "_sink_paths", "_chains")

    def __init__(self, node: np.ndarray, parent: np.ndarray,
                 edge: np.ndarray, branch: np.ndarray) -> None:
        self.node = node
        self.parent = parent
        self.edge = edge
        self.branch = branch
        self.delay_memo = None
        self._nodes = self._edges = self._sink_paths = self._chains = None

    @classmethod
    def from_paths(cls, c: CompiledRRG, source: int, paths) -> "RouteTree":
        """The tree over ``c`` of ``(sink, path)`` branches in
        ``sink_paths`` order, each path starting at the source or at a
        node of an earlier path and ending at its sink (the Python
        router's and a hand-built record).

        A node reached from several predecessors keeps the first; a
        path whose first node is not in the tree yet adds it without a
        parent (and without an edge), so a record that is not a tree
        still gives each node at most one parent.  An edge the fabric
        lacks has index -1.
        """
        pos = {source: 0}
        node, parent, branch = [source], [-1], []
        for _sink, path in paths:
            at = -1
            for n in path:
                here = pos.get(n)
                if here is None:
                    here = pos[n] = len(node)
                    node.append(n)
                    parent.append(at)
                elif at >= 0 and here and parent[here] < 0:
                    parent[here] = at
                at = here
            branch.append((at, len(path)))
        src = [node[p] if p >= 0 else -1 for p in parent]
        edge = c.edge_index(np.array(src), np.array(node))
        return cls(*_frozen(node, parent, edge),
                   _frozen(branch)[0].reshape(-1, 2))

    @property
    def nodes(self) -> set[int]:
        """The route's nodes (read-only)."""
        if self._nodes is None:
            self._nodes = set(self.node.tolist())
        return self._nodes

    @property
    def edges(self) -> set[tuple[int, int]]:
        """The route's ``(src, dst)`` edges (read-only)."""
        if self._edges is None:
            nl = self.node.tolist()
            self._edges = {(nl[p], n) for p, n in
                           zip(self.parent[1:].tolist(), nl[1:]) if p >= 0}
        return self._edges

    @property
    def sink_paths(self) -> dict[int, list[int]]:
        """Each sink's path, as the router found it (read-only)."""
        if self._sink_paths is None:
            nl, pl = self.node.tolist(), self.parent.tolist()
            out: dict[int, list[int]] = {}
            for at, length in self.branch.tolist():
                path = [0] * length
                for k in range(length - 1, -1, -1):
                    path[k] = nl[at]
                    at = pl[at]
                out[path[-1]] = path
            self._sink_paths = out
        return self._sink_paths

    def edge_codes(self, n_nodes: int) -> np.ndarray:
        """``src * n_nodes + dst`` of edge ``i``, for ``i >= 1``."""
        return (self.node[self.parent[1:]].astype(np.int64) * n_nodes
                + self.node[1:])

    def root_chains(self) -> tuple[np.ndarray, np.ndarray]:
        """Each sink's whole chain from the source, in branch order,
        cached: the chains' nodes back to back (int32) and each chain's
        length.  A chain that never reaches the source (a record that
        is not a tree) is left out."""
        if self._chains is None:
            pl = self.parent.tolist()
            limit = len(pl)
            flat: list[int] = []
            lens: list[int] = []
            for at, _length in self.branch.tolist():
                walk = [at]
                while at != 0:
                    at = pl[at]
                    if at < 0 or len(walk) > limit:
                        break
                    walk.append(at)
                if walk[-1] != 0:
                    continue
                walk.reverse()
                flat += walk
                lens.append(len(walk))
            self._chains = (self.node[np.array(flat, dtype=np.intp)],
                            np.array(lens, dtype=np.int64))
        return self._chains

    def __eq__(self, other) -> bool:
        if not isinstance(other, RouteTree):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in (
            (self.node, other.node), (self.parent, other.parent),
            (self.edge, other.edge), (self.branch, other.branch)))

    __hash__ = None

    def __getstate__(self):
        return self.node, self.parent, self.edge, self.branch

    def __setstate__(self, state) -> None:
        self.__init__(*_frozen(*state))


def _frozen(*arrays) -> list[np.ndarray]:
    """Each sequence as a read-only int32 array."""
    out = []
    for a in arrays:
        a = np.array(a, dtype=np.int32)
        a.setflags(write=False)
        out.append(a)
    return out


@dataclass
class RoutedNet:
    """One routed net: its endpoints and its :class:`RouteTree`.

    ``nodes``, ``edges`` and ``sink_paths`` are the tree's read-only
    views.  ``reused`` marks a route adopted from the reuse bank (and
    never ripped up since): it shares the bank route's tree.
    """

    name: str
    source: int
    sinks: list[int]
    tree: RouteTree
    reused: bool = False

    @property
    def nodes(self) -> set[int]:
        return self.tree.nodes

    @property
    def edges(self) -> set[tuple[int, int]]:
        return self.tree.edges

    @property
    def sink_paths(self) -> dict[int, list[int]]:
        return self.tree.sink_paths


@dataclass
class RouteResult:
    """Routing of one context."""

    nets: dict[str, RoutedNet]
    iterations: int
    context: int = 0

    def wirelength(self, g: CompiledRRG) -> int:
        """Wire segments used, one gather over the concatenated tree
        nodes (weights are 0 for non-wire nodes; a node shared by
        several nets counts once per net)."""
        if not self.nets:
            return 0
        ids = np.concatenate([net.tree.node for net in self.nets.values()])
        return int(g.wire_length_weights()[ids].sum())


class NetEndpoints:
    """The routable nets of one placed netlist.

    ``rows`` holds each net as a ``(name, source, sinks)`` tuple, sinks
    ascending and without repeats (read-only).  The nets are also packed
    into one read-only int32 buffer, ``source[n] | sink_start[n + 1] |
    sinks``, which the native context route reads in place at
    ``addresses`` (one per part).  It is built here, never replaced, so
    endpoints that threads share (the repair ladder keeps the golden's)
    hand every native call the same live buffer.  :meth:`signatures`
    gives each net's :func:`endpoint_signature`, built on first use and
    cached.
    """

    __slots__ = ("rows", "n_sinks", "addresses", "_buf", "_sigs")

    def __init__(self, rows: list[tuple[str, int, list[int]]]) -> None:
        self.rows = rows
        n = len(rows)
        packed = [src for _name, src, _sinks in rows]
        packed += accumulate((len(sinks) for _n, _s, sinks in rows),
                             initial=0)
        for _name, _src, sinks in rows:
            packed += sinks
        self.n_sinks = len(packed) - 2 * n - 1
        self._buf = np.array(packed, dtype=np.int32)
        self._buf.setflags(write=False)
        at = _addr(self._buf)
        self.addresses = (at, at + 4 * n, at + 4 * (2 * n + 1))
        self._sigs = None

    def __len__(self) -> int:
        return len(self.rows)

    def signatures(self) -> list[str]:
        """Each net's :func:`endpoint_signature`, cached (a thread that
        races another here builds an equal list)."""
        if self._sigs is None:
            self._sigs = [endpoint_signature(src, sinks)
                          for _name, src, sinks in self.rows]
        return self._sigs

    def __eq__(self, other) -> bool:
        if not isinstance(other, NetEndpoints):
            return NotImplemented
        return self.rows == other.rows

    __hash__ = None


def _pin_bases(ix: NetlistIndex, kinds: list[int], placement: Placement,
               g: CompiledRRG) -> tuple[list, list]:
    """Each cell's first entry, by id, in the SOURCE and in the SINK
    table of :meth:`CompiledRRG.pin_tables`: its logic block's pin 0
    for a LUT or DFF at its :meth:`Placement.location`, its pad's pin
    for a primary input or output; None where the cell is not placed.
    A LUT or DFF's input slot ``s`` is ``s`` entries on."""
    (_t, src_width, src_lb, pad_width), (_t, sink_width, sink_lb, _w) = \
        g.pin_tables()
    cols = g.params.cols
    cells, ios = placement.cells, placement.ios
    src: list = []
    sink: list = []
    for name, kind in zip(ix.cell_names, kinds):
        site = ios.get(name)
        if kind == LUT or kind == DFF:
            loc = cells.get(name) or (site[0] if site else None)
            if loc is None:
                src.append(None)
                sink.append(None)
            else:
                tile = loc.y * cols + loc.x
                src.append(tile * src_width)
                sink.append(tile * sink_width)
        elif site is None:
            src.append(None)
            sink.append(None)
        else:
            at = (site[0].y * cols + site[0].x) * pad_width + site[1]
            src.append(src_lb + at)
            sink.append(sink_lb + at)
    return src, sink


def _net_endpoints(
    netlist: Netlist, placement: Placement, g: CompiledRRG
) -> NetEndpoints:
    """The :class:`NetEndpoints` of every routable net.

    One pass over the reader rows of :meth:`Netlist.index`: a LUT's
    input slot ``s`` sinks at its tile's SINK ``s``, a DFF at SINK 0 and
    a primary output at its pad's SINK; an input sources at its pad's
    SOURCE, a LUT or DFF at its tile's SOURCE 0.  Nets come in
    ``net_driver`` order, each sink list sorted and without repeats;
    nets nobody reads are left out.
    """
    ix = netlist.index()
    kinds = ix.kind.tolist()
    src_base, sink_base = _pin_bases(ix, kinds, placement, g)
    start = ix.pin_start.tolist()
    read = [n for n in range(ix.n_driven) if start[n] < start[n + 1]]
    stop = start[ix.n_driven]
    cells = ix.pin_cell[:stop].tolist()
    drivers = ix.driver[read].tolist()
    if None in src_base:
        for c in chain(drivers, cells):
            if src_base[c] is None:
                raise PlacementError(f"cell {ix.cell_names[c]!r} not placed")
    (src_table, *_), (sink_table, *_) = g.pin_tables()
    sinks = [sink_table[sink_base[c] + (slot if kinds[c] in (LUT, DFF) else 0)]
             for c, slot in zip(cells, ix.pin_slot[:stop].tolist())]
    sources = [src_table[src_base[c]] for c in drivers]
    for nodes in (sinks, sources):
        if min(nodes, default=0) < 0:
            raise PlacementError("an I/O cell sits on a tile without pads")
    names = ix.net_names
    rows = []
    for n, src in zip(read, sources):
        a, b = start[n], start[n + 1]
        rows.append((names[n], src, sorted(set(sinks[a:b])) if b - a > 1
                     else sinks[a:b]))
    return NetEndpoints(rows)


# ========================================================================= #
# compiled engine
# ========================================================================= #
class RouterScratch:
    """The Python kernel's search buffers for one context route.

    ``dist``/``prev`` are never cleared between searches: a per-node
    ``stamp`` records the epoch that last wrote the entry, and any
    other stamp reads as "unvisited".  The epoch counts the route's
    searches from 1, so it never wraps.
    """

    __slots__ = ("dist", "prev", "stamp", "epoch")

    def __init__(self, n_nodes: int) -> None:
        self.dist = np.zeros(n_nodes, dtype=np.float64)
        self.prev = np.full(n_nodes, -1, dtype=np.int32)
        self.stamp = np.zeros(n_nodes, dtype=np.uint64)
        self.epoch = 0

    def next_epoch(self) -> int:
        self.epoch += 1
        return self.epoch


class _FlatCongestion:
    """numpy-backed PathFinder congestion bookkeeping for one context
    of the Python loop (the native route keeps the same state in
    :class:`_CongestionArrays` and sets it up itself, operation for
    operation as ``__init__`` here does).

    The entire node-cost formula — ``base * (1 + pres_fac * overuse) +
    history`` with ``overuse = max(0, usage + 1 - capacity)`` — is
    folded into one *effective cost* per node, so the search's relax is
    a single load + add.  ``usage``, ``history`` and the costs ``eff``
    are numpy buffers: usage add/remove are scatter updates that
    re-price only the touched nodes, and the whole-graph re-price after
    each PathFinder iteration (history bump + pressure escalation) is
    one vectorised expression.  ``eff`` is one contiguous float64 array,
    written in place by fancy-index stores, so the Python search reads
    it with no per-search copy.

    ``overused_ids`` is maintained incrementally by the scatter
    updates, which makes the per-iteration overuse census O(1) and the
    per-net congestion test a set intersection instead of an O(nodes)
    scan.  ``pressured_ids`` (nodes with ``usage + 1 > capacity``, i.e.
    a non-zero overuse term) is maintained the same way: those are the
    only nodes whose folded cost involves ``pres_fac`` at all, so the
    per-iteration escalation re-prices just that set instead of the
    whole graph — every other node's stored value is ``base * 1.0 +
    history`` with both terms unchanged, which is what a full refresh
    would recompute bit-for-bit.  The arithmetic is the legacy
    router's, IEEE operation for operation (the equivalence suite pins
    identical routes).
    """

    __slots__ = (
        "c", "usage", "history", "eff", "pres_fac", "overused_ids",
        "pressured_ids", "capacity_np",
    )

    def __init__(self, c: CompiledRRG, defects: "DefectMap | None" = None) -> None:
        self.c = c
        self.usage = np.zeros(c.n_nodes, dtype=np.int64)
        self.history = np.zeros(c.n_nodes, dtype=np.float64)
        self.pres_fac = PRES_FAC_FIRST
        self.overused_ids: set[int] = set()
        # a defect mask zeroes the capacity of dead nodes and prices
        # them infinite (via the history term, which flows through both
        # the whole-graph refresh and the scatter updates unchanged);
        # without defects the capacity view *is* the substrate's array,
        # so the defect-free cost arithmetic is untouched
        if defects is None:
            self.capacity_np = c.node_capacity
        else:
            bad = ~defects.node_ok
            self.capacity_np = np.where(bad, 0, c.node_capacity)
            self.history[bad] = np.inf
        # zero-capacity nodes (defects) are born pressured: their
        # overuse term is non-zero even at usage 0
        self.pressured_ids: set[int] = set(
            np.flatnonzero(self.capacity_np <= 0).tolist()
        )
        self.eff = self._fold(slice(None))[0]

    def _fold(self, idx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The node-cost formula at ``idx`` (an index array, or
        ``slice(None)`` for the whole graph).

        Returns ``(costs, overused, pressured)``, the last two as bool
        arrays.  This is the one place the formula is written, so every
        re-price — whole-graph, per-net scatter, batched commit and
        targeted escalation — runs the same IEEE operations in the same
        order.
        """
        used = self.usage[idx]
        cap = self.capacity_np[idx]
        over = np.maximum(used + 1 - cap, 0)
        costs = self.c.base_cost[idx] * (1.0 + self.pres_fac * over) \
            + self.history[idx]
        return costs, used > cap, over > 0

    def _refresh_all(self) -> None:
        """Vectorised whole-graph re-price of the effective costs."""
        self.eff[:] = self._fold(slice(None))[0]

    def _refold(self, idx: np.ndarray) -> None:
        """Re-price nodes ``idx`` (distinct ids) after a usage change
        and move them in or out of the overused/pressured sets."""
        costs, congested, pressured = self._fold(idx)
        self.eff[idx] = costs
        for members, flags in ((self.overused_ids, congested),
                               (self.pressured_ids, pressured)):
            members.difference_update(idx[~flags].tolist())
            members.update(idx[flags].tolist())

    def _scatter(self, nodes: set[int], delta: int) -> None:
        idx = np.fromiter(nodes, dtype=np.int64, count=len(nodes))
        self.usage[idx] += delta
        self._refold(idx)

    def add(self, nodes: set[int]) -> None:
        self._scatter(nodes, 1)

    def add_batch(self, node_sets: list[set[int]]) -> None:
        """Commit many nets' usage with one vectorised scatter-add.

        Equivalent to ``for nodes in node_sets: self.add(nodes)`` —
        the effective cost of a touched node is re-folded from its
        *final* usage (never accumulated), and no search reads the
        state between the per-net adds it replaces, so one batched
        update reproduces N sequential ones bit-for-bit.  Duplicates
        across nets (a node carried by several committed routes) are
        handled by the unbuffered ``np.add.at``.
        """
        if not node_sets:
            return
        if len(node_sets) == 1:
            self._scatter(node_sets[0], 1)
            return
        idx = np.fromiter(
            (n for nodes in node_sets for n in nodes), dtype=np.int64
        )
        np.add.at(self.usage, idx, 1)
        # distinct ids by a sort and adjacent changes: np.unique would
        # import numpy.ma (through np.ma.is_masked)
        idx.sort()
        keep = np.ones(len(idx), dtype=bool)
        keep[1:] = idx[1:] != idx[:-1]
        self._refold(idx[keep])

    def remove(self, nodes: set[int]) -> None:
        self._scatter(nodes, -1)

    def overused(self) -> int:
        return len(self.overused_ids)

    def bump_history(self) -> None:
        if not self.overused_ids:
            return
        idx = np.fromiter(
            self.overused_ids, dtype=np.int64, count=len(self.overused_ids)
        )
        self.history[idx] += HIST_FAC * (
            self.usage[idx] - self.capacity_np[idx]
        )

    def _reprice_pressured(self) -> None:
        """Re-fold the effective cost of the pressured nodes only.

        After a history bump (touches overused nodes, a subset of the
        pressured set) and a pressure-factor change (only felt by nodes
        with a non-zero overuse term), every non-pressured node's
        stored value is still exactly what :meth:`_refresh_all` would
        write — ``base * 1.0 + history`` with both terms unchanged —
        so re-folding the pressured set reproduces the whole-graph
        refresh bit-for-bit at a fraction of the cost.  Usage is
        unchanged, so set membership is too.
        """
        ids = self.pressured_ids
        if not ids:
            return
        _tcount("router.repriced_nodes", len(ids))
        idx = np.fromiter(ids, dtype=np.int64, count=len(ids))
        self.eff[idx] = self._fold(idx)[0]

    def next_iteration(self) -> None:
        """One PathFinder escalation step: history bump, pressure-factor
        growth, and the targeted re-price they both invalidate."""
        _tcount("router.pressure_rounds")
        self.bump_history()
        self.pres_fac *= PRES_FAC_MULT
        self._reprice_pressured()


def _lower_bounds(c: CompiledRRG, target: int) -> np.ndarray:
    """The search's lower bound ``h`` on every node for one target:
    :data:`ASTAR_FAC` times the tile gap, on each axis, between the
    node's extent box and the target's tile, and infinite at a node
    whose only edges are SINK edges (an input pin) on another tile,
    which reaches none of the target's sinks."""
    tx, ty = c.xlo[target], c.ylo[target]
    gap = (np.maximum(np.maximum(c.xlo - tx, tx - c.xhi), 0)
           + np.maximum(np.maximum(c.ylo - ty, ty - c.yhi), 0))
    h = ASTAR_FAC * gap
    pins = c.edge_mid == c.edge_start[:-1]
    h[pins & ((c.xlo != tx) | (c.ylo != ty))] = np.inf
    return h


#: The bound of a node that cannot reach the target.
_NEVER = float("inf")


def _astar(c: CompiledRRG, state: _FlatCongestion, tree_nodes: set[int],
           target: int, scratch: RouterScratch, mask: bytes | None,
           edst: np.ndarray) -> list[int] | None:
    """Cheapest path from the route tree to ``target`` over flat arrays.

    The Python kernel (see the module docstring): A* on one ``heapq``
    of ``(g + h, -g, node)``, with ``h`` from :func:`_lower_bounds`; a
    node whose bound is infinite is never pushed.

    ``edst`` is the edge-destination array to search: ``c.edge_dst``,
    or a defect map's copy in which every dead switch is a self-loop
    (:meth:`~repro.reliability.defect_map.DefectMap.live_edge_dst`).
    A self-loop never relaxes — a popped node has ``dist == g`` and a
    cost >= 1.0 — so dead switches need no test here.  ``mask`` is a
    per-node 0/1 membership mask (the net's expanded bounding box);
    zero-mask nodes are never relaxed.  Returns ``None`` when
    ``target`` is unreachable inside the mask (the caller retries
    unmasked); the full congestion formula is pre-folded into
    ``state.eff``, so a relax is one load + one add.  It iterates the
    substrate's cached list forms of the rows, and reads the numpy
    buffers through memoryviews (no copy).
    """
    ep = scratch.next_epoch()
    dist, prev, stamp, eff, bound = map(memoryview, (
        scratch.dist, scratch.prev, scratch.stamp, state.eff,
        _lower_bounds(c, target)))
    estart, emid, rows_dst = c.row_lists()
    dst = rows_dst if edst is c.edge_dst else memoryview(edst)

    heap = []
    for n in tree_nodes:
        stamp[n] = ep
        dist[n] = 0.0
        if bound[n] != _NEVER:
            heap.append((bound[n], -0.0, n))
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    pops = 0
    while heap:
        _f, g, nid = pop(heap)
        pops += 1
        d = -g
        if d > dist[nid]:
            continue  # stale: the node was reached cheaper since
        if nid == target:
            path = [nid]
            tail = nid
            while tail not in tree_nodes:
                tail = prev[tail]
                path.append(tail)
            path.reverse()
            _tcount("router.pops", pops)
            return path
        lo, mid, hi = estart[nid], emid[nid], estart[nid + 1]
        outs = dst[lo:mid]  # non-SINK destinations (bulk of the fan-out)
        if mask is not None:
            outs = [nxt for nxt in outs if mask[nxt]]
        if mid < hi and target in dst[mid:hi]:
            outs = [*outs, target]  # the only enterable SINK
        for nxt in outs:
            h = bound[nxt]
            if h == _NEVER:
                continue  # an input pin of another tile
            nd = d + eff[nxt]
            if stamp[nxt] != ep or nd < dist[nxt]:
                stamp[nxt] = ep
                dist[nxt] = nd
                prev[nxt] = nid
                push(heap, (nd + h, -nd, nxt))
    _tcount("router.pops", pops)
    return None


#: The Python loop's search; the test suite patches its oracles in here.
_search = _astar
#: ``_search`` as defined here: the native context route stands in for
#: the Python loop only while this is the search in effect.
_SEARCH = _search


class _RouteJob(ctypes.Structure):
    """``route_job`` of ``_search.c``: one native context route's
    graph, congestion state, nets and outputs (pointers are buffer
    addresses; an input left unset is the C side's NULL)."""

    _fields_ = [(name, kind) for names, kind in (
        ("n_nodes", ctypes.c_int64),
        ("estart emid edge_dst xlo xhi ylo yhi", ctypes.c_void_p),
        ("cols rows margin", ctypes.c_int64),
        ("node_ok edst base node_cap usage live_cap hist eff",
         ctypes.c_void_p),
        ("pres_fac pres_fac_mult hist_fac astar_fac", ctypes.c_double),
        ("max_iterations n_nets", ctypes.c_int64),
        ("source sink_start sinks order adopt_start adopt", ctypes.c_void_p),
        ("n_salvage", ctypes.c_int64),
        ("seed_of salvage_tree salvage_paths salvage_node salvage_parent "
         "salvage_branch", ctypes.c_void_p),
        ("out_nodes_cap out_paths_cap", ctypes.c_int64),
        ("out_nodes out_parent out_edge out_branch out_survived "
         "out_net_node out_net_path", ctypes.c_void_p),
        ("stats", ctypes.c_int64 * 13),
        ("cap", ctypes.c_void_p),  # set by the call
    ) for name in names.split()]


#: ``route_job.stats`` slots and ``route_context`` status codes.
(_ST_STATUS, _ST_DETAIL, _ST_ITERATIONS, _ST_POPS, _ST_FIRST_POPS,
 _ST_RIPUPS, _ST_CENSUS, _ST_REPRICED, _ST_RIPPED, _ST_OUT_NODES,
 _ST_OUT_PATHS, _ST_SALVAGED, _ST_RESEARCHED) = range(13)
_RC_OK, _RC_NO_PATH, _RC_CONGESTED, _RC_NOMEM = range(4)

#: The native sequential context route, built at the first route.
_ROUTE = NativeLibrary(
    "repro.route", "_search.c", "route_context",
    (ctypes.POINTER(_RouteJob),), ctypes.c_int64,
)


def _route_function():
    """The bound ``route_context``, or ``None`` to run the Python loop.

    The C route runs its own search inline, so it stands in for the
    loop only while :func:`_search` is this module's own: a substituted
    ``_search`` (the test suite patches its oracles in there) is
    honoured through the Python loop.
    """
    if _search is not _SEARCH:
        return None
    return _ROUTE.function()


def route_kernel() -> str:
    """The sequential context route: ``"native"`` (one C call per
    context) or ``"python"`` (the loop around :func:`_search`).  Builds
    the C route on first use."""
    return "python" if _route_function() is None else "native"


def _addr(a: np.ndarray) -> int:
    return a.ctypes.data


class _CongestionArrays:
    """The congestion state of one native context route: ``usage``,
    ``history``, the folded costs ``eff``, the effective ``capacity``
    and ``pres_fac``, named as :class:`_FlatCongestion` names them.

    The arrays are views of one uninitialised buffer, and each view's
    address goes into ``job`` (``capacity`` is the substrate's own
    without defects, and the job's ``live_cap`` stays NULL):
    ``route_context`` sets the state up in them with
    ``_FlatCongestion.__init__``'s values and leaves its final state
    there.  The one difference is the pressure factor the initial costs
    are folded with, the route's starting one: it enters only a node
    whose capacity is 0, and the only such nodes are dead ones, whose
    infinite history prices them out at any factor.
    """

    __slots__ = ("usage", "history", "eff", "capacity", "pres_fac")

    def __init__(self, c: CompiledRRG, defects: bool, pres_fac: float,
                 job: _RouteJob) -> None:
        n = c.n_nodes
        buf = np.empty((4 if defects else 3) * n, dtype=np.int64)
        self.usage = buf[:n]
        self.history = buf[n:2 * n].view(np.float64)
        self.eff = buf[2 * n:3 * n].view(np.float64)
        self.capacity = buf[3 * n:] if defects else c.node_capacity
        self.pres_fac = pres_fac
        at = _addr(buf)
        job.usage, job.hist, job.eff = at, at + 8 * n, at + 16 * n
        if defects:
            job.live_cap = at + 24 * n


def _job_template(c: CompiledRRG) -> tuple[bytes, int]:
    """A ``route_job`` holding what every route on ``c`` shares (its
    arrays' addresses, its size, the schedule's constants), and the
    summed node capacity, which bounds the nodes of a context's
    overlap-free routes counted once per net; built once per substrate
    and kept on it (see :meth:`CompiledRRG.__getstate__`).
    """
    if c._route_job is None:
        job = _RouteJob(
            n_nodes=c.n_nodes, cols=c.params.cols,
            rows=c.params.rows, margin=BBOX_MARGIN,
            pres_fac_mult=PRES_FAC_MULT, hist_fac=HIST_FAC,
            astar_fac=ASTAR_FAC)
        (job.estart, job.emid, job.edge_dst, job.xlo, job.xhi, job.ylo,
         job.yhi, job.base, job.node_cap) = map(_addr, (
            c.edge_start, c.edge_mid, c.edge_dst, c.xlo, c.xhi, c.ylo,
            c.yhi, c.base_cost, c.node_capacity))
        job.edst = job.edge_dst
        c._route_job = (bytes(job), int(c.node_capacity.sum()))
    return c._route_job


def _route_native(
    fn,
    c: CompiledRRG,
    endpoints: NetEndpoints,
    order: list[int] | None,
    priors: list[RoutedNet | None] | None,
    salvage: list[RoutedNet] | None,
    seed_of: list[int] | None,
    defects: "DefectMap | None",
    pres_fac: float,
    max_iterations: int,
    context: int,
) -> RouteResult:
    """The sequential loop of :func:`route_context_compiled` in one
    native call (``route_context`` in ``_search.c``).

    The C route reads the substrate's and the endpoints' arrays and
    the defect map's node mask and lowered edge rows in place, and sets
    up the congestion state itself (:class:`_CongestionArrays`).  What
    differs per call shares one int32 buffer, inputs then outputs,
    whose segments this function lays out and points the job at: the routing
    ``order``, each adopted bank route's tree nodes (``priors``, by
    routing position) and the golden trees of the ``salvage`` routes
    (``seed_of`` gives each routing position its salvage route, -1 for
    none), whose healthy chains the C route finds as :class:`_Salvage`
    does; an absent input stays NULL.  The call runs the initial pass
    and the rip-up iterations on search buffers it allocates itself,
    and hands back every routed net's tree (nodes, parent positions,
    CSR edge indexes, branches) in the order the Python loop builds it;
    the :class:`RouteTree` of each net is a read-only slice of the
    buffer, and an adopted net that was never ripped up keeps its bank
    route's tree.  Counters and the errors are the loop's.
    """
    n = len(endpoints)
    template, nodes_cap = _job_template(c)
    job = _RouteJob.from_buffer_copy(template)
    job.n_nets, job.pres_fac, job.max_iterations = n, pres_fac, max_iterations
    job.source, job.sink_start, job.sinks = endpoints.addresses
    if defects is not None:
        job.node_ok = _addr(defects.node_ok)
        edst = defects.live_edge_dst(c)
        if edst is not c.edge_dst:
            job.edst = _addr(edst)
    state = _CongestionArrays(c, defects is not None, pres_fac, job)
    # this call's inputs, Python ints then arrays, with the job field
    # and the size of each segment
    ints: list[int] = []
    int_fields: list[tuple[str, int]] = []
    arrays: list[np.ndarray] = []
    array_fields: list[tuple[str, int]] = []
    if order is not None:
        ints += order
        int_fields.append(("order", n))
    adopted = [prior.tree.node for prior in priors or () if prior is not None]
    if adopted:
        ints += accumulate((0 if prior is None else prior.tree.node.size
                            for prior in priors), initial=0)
        int_fields.append(("adopt_start", n + 1))
        arrays += adopted
        array_fields.append(("adopt", ints[-1]))
    # a net has a path per sink, salvaged or searched
    paths_cap = endpoints.n_sinks
    if salvage:
        trees = [prior.tree for prior in salvage]
        ints += seed_of
        ints += accumulate((t.node.size for t in trees), initial=0)
        size = ints[-1]
        ints += accumulate((len(t.branch) for t in trees), initial=0)
        paths = ints[-1]
        int_fields += (("seed_of", n), ("salvage_tree", len(trees) + 1),
                       ("salvage_paths", len(trees) + 1))
        arrays += [t.node for t in trees]
        arrays += [t.parent for t in trees]
        arrays += [t.branch.ravel() for t in trees]
        array_fields += (("salvage_node", size), ("salvage_parent", size),
                         ("salvage_branch", 2 * paths))
        job.n_salvage = len(trees)
        paths_cap += paths
    # then the outputs: tree nodes | parents | edges | branches |
    # survived flags | each net's first tree node | each net's first
    # branch
    fields = [*int_fields, *array_fields,
              ("out_nodes", nodes_cap), ("out_parent", nodes_cap),
              ("out_edge", nodes_cap), ("out_branch", 2 * paths_cap),
              ("out_survived", n), ("out_net_node", n + 1),
              ("out_net_path", n + 1)]
    at = list(accumulate((size for _field, size in fields), initial=0))
    out = np.empty(at[-1], dtype=np.int32)
    base = _addr(out)
    for (field, _size), offset in zip(fields, at):
        setattr(job, field, base + 4 * offset)
    job.out_nodes_cap, job.out_paths_cap = nodes_cap, paths_cap
    o = at[-8:]  # where each output starts, then the end
    if ints:
        out[:len(ints)] = ints
    if arrays:
        np.concatenate(arrays, out=out[len(ints):o[0]])
    fn(ctypes.byref(job))
    stats = job.stats[:]
    state.pres_fac = job.pres_fac
    if salvage:
        _tcount("router.warm.salvaged_sinks", stats[_ST_SALVAGED])
        _tcount("router.warm.researched_sinks", stats[_ST_RESEARCHED])
    if order is not None:
        _count_adopted(priors)
    # the Python loop's counters, first seen in the same order
    ripups = stats[_ST_RIPUPS]
    if stats[_ST_FIRST_POPS]:
        _tcount("router.pops", stats[_ST_POPS])
    if ripups:
        _tcount("router.overused_census", stats[_ST_CENSUS])
        _tcount("router.ripup_iterations", ripups)
        _tcount("router.pressure_rounds", ripups)
        _tcount("router.repriced_nodes", stats[_ST_REPRICED])
    if stats[_ST_POPS] and not stats[_ST_FIRST_POPS]:
        _tcount("router.pops", stats[_ST_POPS])
    status = stats[_ST_STATUS]
    if status == _RC_NO_PATH:
        sink = stats[_ST_DETAIL]
        raise RoutingError(
            f"no path to sink node {sink} ({c.node_name(sink)})")
    if status == _RC_CONGESTED:
        raise RoutingError(
            f"context {context}: congestion unresolved after {max_iterations} "
            f"iterations ({stats[_ST_DETAIL]} overused nodes)"
        )
    if status == _RC_NOMEM:
        raise MemoryError("context route: allocation failed")
    if status != _RC_OK:
        raise RuntimeError(f"context route: output overflow (status {status})")
    _tcount("router.contexts_routed")
    _tcount("router.ripped_nets", stats[_ST_RIPPED])
    out.setflags(write=False)  # the trees are slices of it
    nodes, parents, edges = out[o[0]:o[1]], out[o[1]:o[2]], out[o[2]:o[3]]
    branches = out[o[3]:o[4]].reshape(-1, 2)
    tail = out[o[4]:].tolist()
    survived, node_at, path_at = tail[:n], tail[n:2 * n + 1], tail[2 * n + 1:]
    rows = endpoints.rows
    if order is not None:
        rows = [rows[i] for i in order]
    routes: dict[str, RoutedNet] = {}
    for i, (name, source, sinks) in enumerate(rows):
        if survived[i]:
            routes[name] = _adopt(name, source, sinks, priors[i])
            continue
        a, b = node_at[i], node_at[i + 1]
        p, q = path_at[i], path_at[i + 1]
        routes[name] = RoutedNet(name, source, list(sinks), RouteTree(
            nodes[a:b], parents[a:b], edges[a:b], branches[p:q]))
    return RouteResult(routes, stats[_ST_ITERATIONS], context)


def _net_mask(
    c: CompiledRRG, source: int, sinks: list[int], margin: int = BBOX_MARGIN
) -> bytes | None:
    """Prune mask of a net's margin-expanded terminal bounding box,
    ``None`` when it cannot prune."""
    ends = [source, *sinks]
    xlo = int(c.xlo[ends].min()) - margin
    xhi = int(c.xhi[ends].max()) + margin
    ylo = int(c.ylo[ends].min()) - margin
    yhi = int(c.yhi[ends].max()) + margin
    p = c.params
    if xlo <= -1 and ylo <= -1 and xhi >= p.cols and yhi >= p.rows:
        return None  # box covers the whole fabric; masking is pure overhead
    return c.bbox_mask(xlo, xhi, ylo, yhi)


def _route_net_flat(
    c: CompiledRRG,
    state: _FlatCongestion,
    name: str,
    source: int,
    sinks: list[int],
    scratch: RouterScratch,
    mask: bytes | None,
    base_mask: bytes | None,
    edst: np.ndarray,
    seed_paths: dict[int, list[int]] | None = None,
) -> RoutedNet:
    """Route one net.  ``mask`` is the net's (defect-combined) prune
    mask; ``base_mask`` is the defect-only floor the full-graph retry
    must keep honouring (``None`` without defects), and ``edst`` is the
    edge-destination array to search (dead switches lowered to
    self-loops, see :func:`_astar`).

    ``seed_paths`` (delta-reroute) pre-adopts known-good source→sink
    branches — the healthy portion of a dirty net's golden route —
    so only the broken sinks are searched, and those searches start
    from the salvaged tree instead of the bare source."""
    nodes = {source}
    sink_paths: dict[int, list[int]] = {}
    if seed_paths:
        for sink, path in seed_paths.items():
            sink_paths[sink] = list(path)
            nodes.update(path)
    for sink in sinks:
        if sink in sink_paths:
            continue
        path = _search(c, state, nodes, sink, scratch, mask, edst)
        if path is None and mask is not base_mask:
            # the pruned region disconnected this sink — retry without
            # the bounding box (defective resources stay excluded)
            path = _search(
                c, state, nodes, sink, scratch, base_mask, edst
            )
        if path is None:
            raise RoutingError(
                f"no path to sink node {sink} ({c.node_name(sink)})"
            )
        sink_paths[sink] = list(path)
        nodes.update(path)
    return net_from_paths(c, name, source, sinks, sink_paths.items())


def net_from_paths(c: CompiledRRG, name: str, source: int,
                   sinks: list[int], paths) -> RoutedNet:
    """A :class:`RoutedNet` over ``c`` from its ``(sink, path)``
    branches, in ``sink_paths`` order (see
    :meth:`RouteTree.from_paths`)."""
    return RoutedNet(name, source, list(sinks),
                     RouteTree.from_paths(c, source, paths))


def _adopt(name: str, source: int, sinks: list[int],
           prior: RoutedNet) -> RoutedNet:
    """A bank route adopted for net ``name``: it shares the prior
    net's tree (routes are only ever replaced wholesale, never mutated
    in place)."""
    return RoutedNet(name, source, list(sinks), prior.tree, True)


class _Salvage:
    """The healthy chains of several golden routes under one defect
    map, tested together (delta-reroute salvage).

    A dirty net is dirty because *some* branch crosses a dead resource;
    a sink whose entire chain back to the source is healthy can adopt
    it verbatim.  A branch stores only its new part (it starts at a
    node of an earlier branch), so each chain is walked through the
    tree's parent positions (:meth:`RouteTree.root_chains`, cached on
    the tree) — a branch that merely *hangs off* a broken branch is
    correctly rejected.  A chain is healthy when every node on it is
    alive and no switch between two consecutive nodes is dead.  The
    chains of all ``priors`` go back to back, so one gather of the node
    mask, one binary search of the consecutive pairs' edge codes (a
    pair that straddles two chains is not an edge and is ignored) and
    one segmented reduction test them all.

    Prior ``k``'s chains are ``chain_start[k]:chain_start[k + 1]``;
    ``kept`` counts the healthy chains and ``branches`` the priors'
    sink paths.
    """

    __slots__ = ("nodes", "lens", "starts", "healthy", "chain_start",
                 "kept", "branches")

    def __init__(self, priors: list[RoutedNet], defects: "DefectMap") -> None:
        chains = [prior.tree.root_chains() for prior in priors]
        self.chain_start = [0, *accumulate(lens.size for _n, lens in chains)]
        self.branches = sum(len(prior.tree.branch) for prior in priors)
        if not self.chain_start[-1]:
            self.nodes = np.empty(0, dtype=np.int32)
            self.lens = self.starts = np.empty(0, dtype=np.int64)
            self.healthy = np.empty(0, dtype=bool)
            self.kept = 0
            return
        nodes = self.nodes = np.concatenate([ch[0] for ch in chains])
        lens = self.lens = np.concatenate([ch[1] for ch in chains])
        starts = self.starts = np.cumsum(lens) - lens
        bad = ~defects.node_ok[nodes]
        if defects.bad_edge_codes.size and nodes.size > 1:
            dead = defects.edges_dead(
                nodes[:-1].astype(np.int64) * defects.n_nodes + nodes[1:])
            dead[starts[1:] - 1] = False
            bad[1:] |= dead
        self.healthy = ~np.logical_or.reduceat(bad, starts)
        self.kept = int(np.count_nonzero(self.healthy))

    def paths(self, k: int) -> dict[int, list[int]]:
        """Prior ``k``'s healthy chains by sink, in branch order."""
        a, b = self.chain_start[k], self.chain_start[k + 1]
        out: dict[int, list[int]] = {}
        for at, length, ok in zip(self.starts[a:b].tolist(),
                                  self.lens[a:b].tolist(),
                                  self.healthy[a:b].tolist()):
            if ok:
                chain = self.nodes[at:at + length].tolist()
                out[chain[-1]] = chain
        return out


def _healthy_sink_paths(
    prior: RoutedNet, defects: "DefectMap"
) -> dict[int, list[int]]:
    """Full source→sink chains of a golden route untouched by defects,
    by sink in branch order (one route's :class:`_Salvage`)."""
    return _Salvage([prior], defects).paths(0)


def _count_adopted(priors: list[RoutedNet | None]) -> None:
    """The warm route's bank hits and fresh nets."""
    fresh = sum(prior is None for prior in priors)
    _tcount("router.warm.adopted_nets", len(priors) - fresh)
    _tcount("router.warm.fresh_nets", fresh)


def _route_initial(
    c: CompiledRRG,
    state: _FlatCongestion,
    nets: list[tuple[str, int, list[int]]],
    priors: list[RoutedNet | None] | None,
    seeds: list[dict[int, list[int]] | None] | None,
    routes: dict[str, RoutedNet],
    mask_for,
    base_mask: bytes | None,
    edst: np.ndarray,
    scratch: RouterScratch,
) -> None:
    """The initial routing pass: every net in order, on the caller's
    scratch, with the full-graph retry.  ``priors`` holds each net's
    bank route (``None``: route it) and ``seeds`` its salvaged
    branches, by routing position.

    Usage is committed in *batches*: runs of adopted (reused) routes
    flush their node sets through one :meth:`_FlatCongestion.add_batch`
    right before the next search needs them.  Costs are re-folded from
    final usage and nothing reads the state in between, so this is
    bit-identical to per-net commits; the ``routes`` insertion order
    (which the rip-up loop iterates) is kept per net.
    """
    pending: list[set[int]] = []  # usage awaiting one batched commit
    for i, (name, source, sinks) in enumerate(nets):
        prior = priors[i] if priors else None
        if prior is not None:
            net = _adopt(name, source, sinks, prior)
        else:
            if pending:  # the search must see every earlier net
                state.add_batch(pending)
                pending.clear()
            net = _route_net_flat(
                c, state, name, source, sinks, scratch,
                mask_for(name, source, sinks), base_mask, edst,
                seed_paths=seeds[i] if seeds else None,
            )
        routes[name] = net
        pending.append(net.nodes)
    if pending:  # the rip-up loop reads the final state
        state.add_batch(pending)


def route_context_compiled(
    c: CompiledRRG,
    netlist: Netlist,
    placement: Placement,
    context: int = 0,
    reuse: dict[str, RoutedNet] | None = None,
    max_iterations: int = MAX_ITERATIONS,
    defects: "DefectMap | None" = None,
    warm: bool = False,
    salvage: dict[str, RoutedNet] | None = None,
    endpoints: NetEndpoints | None = None,
) -> RouteResult:
    """Route one context's placed netlist over the compiled RRG.

    Mirrors the legacy router (``tests/oracles/legacy_router.py``)
    decision-for-decision (same net order, same congestion schedule,
    same rip-up criterion and search key), but searches CSR arrays with
    epoch-stamped search buffers and per-net bounding boxes (see the
    module docstring for the one case where pruning may pick a
    different route than the legacy engine).  The native route
    allocates its buffers per call; the Python loop makes one
    :class:`RouterScratch` per call.

    ``reuse`` maps *endpoint signatures* (see :func:`endpoint_signature`)
    to routes from earlier contexts; matching nets adopt the previous
    route up front (they still take part in congestion resolution — a
    reused route that conflicts within this context gets ripped up,
    losing its reuse mark).

    ``defects`` (a :class:`~repro.reliability.defect_map.DefectMap`)
    excludes dead wires/switches from every search and prices them
    unroutable; a clean map is normalised to ``None``.

    ``warm`` changes the initial-pass *order* (only meaningful with
    ``reuse``): every bank hit is adopted before the first fresh net
    routes, so fresh nets search against the complete congestion
    picture of the adopted routes instead of colliding with
    not-yet-seen ones and negotiating the conflicts away over rip-up
    iterations.  It also escalates the starting pressure factor (see
    :data:`WARM_PRES_FAC`) so fresh nets steer around adopted usage in
    their first search.  ``salvage`` maps endpoint signatures of nets
    *not* in the bank to their prior (golden) routes: the healthy sink
    branches of a salvaged net are adopted verbatim and only the broken
    sinks are re-searched.  See :func:`route_context_warm`.

    ``endpoints`` may supply ``_net_endpoints(netlist, placement, c)``
    when the caller already holds it (the repair ladder caches the
    golden's on the golden mapping, signatures included); it is only
    read.
    """
    if defects is not None and defects.is_clean:
        defects = None  # all-healthy map: take the defect-free path verbatim
    if endpoints is None:
        endpoints = _net_endpoints(netlist, placement, c)
    if not salvage or defects is None:
        salvage = None
    # one endpoint signature per net keys the bank and the salvage
    sigs = endpoints.signatures() if reuse or salvage else None
    # the routing order (None: the endpoints') and, by routing
    # position, each net's bank route
    order = priors = None
    if reuse:
        priors = [reuse.get(sig) for sig in sigs]
        if warm:
            # delta-reroute order: adopt every bank hit before the first
            # fresh search, so fresh (dirty) nets route against the full
            # golden congestion state and steer around healthy routes
            # immediately instead of discovering the collisions one
            # rip-up iteration at a time
            order = [i for i, prior in enumerate(priors) if prior is not None]
            order += [i for i, prior in enumerate(priors) if prior is None]
            priors = [priors[i] for i in order]
    # delta-reroute salvage: the healthy branches of each dirty net's
    # golden route are adopted verbatim, so only broken sinks are
    # searched (and from the salvaged tree, not the bare source)
    entries = seed_of = None
    if salvage:
        entries = list(salvage.values())
        entry = dict(zip(salvage, range(len(entries))))
        seed_of = [entry.get(sigs[i], -1)
                   for i in (range(len(sigs)) if order is None else order)]
        if priors:  # a bank route wins over a salvage
            seed_of = [-1 if prior is not None else k
                       for k, prior in zip(seed_of, priors)]
    # delta-reroute pricing: fresh nets see adopted usage at full price
    # immediately (see WARM_PRES_FAC).  Safe to set before any usage
    # commits — pres_fac only enters the folded cost of pressured
    # nodes, and the only born-pressured nodes (defects) carry an
    # infinite history term that dominates regardless.
    pres_fac = WARM_PRES_FAC if order is not None else PRES_FAC_FIRST
    fn = _route_function()
    if fn is not None:
        return _route_native(fn, c, endpoints, order, priors, entries,
                             seed_of, defects, pres_fac, max_iterations,
                             context)
    seeds = None
    if entries:
        salvaged = _Salvage(entries, defects)
        _tcount("router.warm.salvaged_sinks", salvaged.kept)
        _tcount("router.warm.researched_sinks",
                salvaged.branches - salvaged.kept)
        seeds = [None if k < 0 else salvaged.paths(k) for k in seed_of]
    if order is not None:
        _count_adopted(priors)
    state = _FlatCongestion(c, defects)
    state.pres_fac = pres_fac
    nets = endpoints.rows
    if order is not None:
        nets = [nets[i] for i in order]
    edst = defects.live_edge_dst(c) if defects is not None else c.edge_dst
    base_mask = defects.node_ok_bytes if defects is not None else None
    scratch = RouterScratch(c.n_nodes)
    routes: dict[str, RoutedNet] = {}
    # prune masks are built lazily: a reused net only needs one if it is
    # ripped up later, and mask construction is O(n_nodes) per net
    masks: dict[str, bytes | None] = {}

    def mask_for(name: str, source: int, sinks: list[int]) -> bytes | None:
        if name not in masks:
            m = _net_mask(c, source, sinks)
            if base_mask is not None:
                # fold the defect floor into the per-net prune mask; with
                # no bounding box the combined mask IS the floor, so the
                # full-graph retry (``mask is not base_mask``) stays off
                m = base_mask if m is None else (
                    np.frombuffer(m, dtype=np.uint8)
                    & np.frombuffer(base_mask, dtype=np.uint8)
                ).tobytes()
            masks[name] = m
        return masks[name]

    _route_initial(c, state, nets, priors, seeds, routes, mask_for,
                   base_mask, edst, scratch)

    overused_ids = state.overused_ids
    iteration = 1
    ripped = 0
    while overused_ids:
        if iteration >= max_iterations:
            raise RoutingError(
                f"context {context}: congestion unresolved after "
                f"{max_iterations} iterations ({state.overused()} overused "
                "nodes)"
            )
        _tcount("router.overused_census", len(overused_ids))
        _tcount("router.ripup_iterations")
        state.next_iteration()
        # rip up and reroute congested nets only; ``overused_ids`` is
        # live-updated by add/remove, so the test sees reroutes made
        # earlier in this same sweep over the nets (legacy semantics)
        for name, net in routes.items():
            if overused_ids.isdisjoint(net.nodes):
                continue
            state.remove(net.nodes)
            fresh = _route_net_flat(
                c, state, name, net.source, net.sinks, scratch,
                mask_for(name, net.source, net.sinks), base_mask, edst,
            )
            routes[name] = fresh
            state.add(fresh.nodes)
            ripped += 1
        iteration += 1
    _tcount("router.contexts_routed")
    _tcount("router.ripped_nets", ripped)
    return RouteResult(routes, iteration, context)


def route_context_warm(
    c: CompiledRRG,
    netlist: Netlist,
    placement: Placement,
    golden: RouteResult,
    dirty: set[str],
    context: int = 0,
    max_iterations: int = MAX_ITERATIONS,
    defects: "DefectMap | None" = None,
    signatures: dict[str, str] | None = None,
    endpoints: NetEndpoints | None = None,
) -> RouteResult:
    """Delta-reroute: warm-start from a golden routing, re-routing only
    the ``dirty`` nets.

    Seeds PathFinder with the golden congestion state: every non-dirty
    golden route is adopted *before the first fresh search* — adopted
    routes share the golden net's tree and commit their usage in
    vectorised batches — so each dirty net's search already sees the
    full picture of healthy routes and steers around them immediately,
    instead of colliding with not-yet-routed ones and negotiating the
    conflicts away over rip-up iterations.  Adopted routes still
    participate in congestion resolution: one that conflicts with a
    rerouted dirty net is ripped up like any other (losing its reuse
    mark).  Dirty nets themselves are *salvaged* per sink: branches of
    the golden route untouched by the defect map are adopted verbatim,
    and only the broken sinks are re-searched (from the salvaged tree).
    The result is a valid conflict-free routing, deterministic
    per input — but the routes may legitimately differ from a cold :func:`route_context_compiled` call with the same bank,
    which discovers the bank hits in netlist order.  ``signatures``
    optionally supplies precomputed ``endpoint_signature`` strings per
    golden net name, and ``endpoints`` the netlist's endpoints on
    ``placement`` (the repair ladder caches both on the golden
    mapping).
    """
    bank: dict[str, RoutedNet] = {}
    salvage: dict[str, RoutedNet] = {}
    nets = golden.nets
    if signatures is None:
        for name, net in nets.items():
            sig = endpoint_signature(net.source, net.sinks)
            (salvage if name in dirty else bank)[sig] = net
    else:
        for name, net in nets.items():
            (salvage if name in dirty else bank)[signatures[name]] = net
    return route_context_compiled(
        c, netlist, placement, context=context, reuse=bank,
        max_iterations=max_iterations, defects=defects,
        warm=True, salvage=salvage or None,
        endpoints=endpoints,
    )


def route_program_compiled(
    c: CompiledRRG,
    program: MultiContextProgram,
    placements: list[Placement],
    share_aware: bool = True,
    workers: int | None = None,
    defects: "DefectMap | None" = None,
) -> list[RouteResult]:
    """Route all contexts over the compiled RRG.

    With ``share_aware`` the contexts are routed in order so each can
    adopt earlier contexts' routes (the reuse bank is a sequential
    dependency).  Without it every context is an independent problem
    and ``workers > 1`` routes them in parallel on threads, sharing the
    read-only compiled substrate.  ``defects`` applies
    one defect map to every context (manufacturing defects are a
    property of the die, not of a configuration).
    """
    if len(placements) != program.n_contexts:
        raise RoutingError("one placement per context required")
    jobs = list(enumerate(zip(program.contexts, placements)))
    if not share_aware and workers and workers > 1 and len(jobs) > 1:
        tel = current_collector()  # the threads count into the caller's

        def _one(job: tuple[int, tuple[Netlist, Placement]]) -> RouteResult:
            ci, (netlist, placement) = job
            with collecting(tel):
                return route_context_compiled(
                    c, netlist, placement, context=ci, defects=defects
                )

        with ThreadPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            return list(pool.map(_one, jobs))

    results: list[RouteResult] = []
    bank: dict[str, RoutedNet] = {}
    for ci, (netlist, placement) in jobs:
        res = route_context_compiled(
            c, netlist, placement, context=ci,
            reuse=bank if share_aware else None, defects=defects,
        )
        results.append(res)
        if share_aware:
            for net in res.nets.values():
                bank.setdefault(endpoint_signature(net.source, net.sinks), net)
    return results


def endpoint_signature(source: int, sinks: list[int]) -> str:
    """Canonical key identifying a net by its physical endpoints."""
    return f"{source}->{','.join(map(str, sorted(sinks)))}"
