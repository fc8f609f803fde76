"""Timing: SE-chain (RCM) delay vs. buffered double-length lines.

Paper Section 3: "The delay is large if a signal is routed through many
SEs in series" — series pass-gates form an RC ladder whose Elmore delay
grows *quadratically* with chain length, which is why the architecture
adds buffered double-length lines that bypass alternate diamond switches
and routes critical paths over them.

The model:

- a PASS edge (SE pass-gate) appends one (R_pass, C_seg) stage to the
  current unbuffered ladder; its incremental Elmore contribution is
  ``R_pass * C_seg * chain_position`` — the k-th series pass-gate costs
  k times the first one;
- a BUF edge (double-length line driver) adds a fixed buffer delay and
  *resets* the ladder;
- PIN/INTERNAL edges add small constants.

Units are normalized to the delay of one isolated SE hop (R*C = 1.0).

Static timing reads each net's route as its
:class:`~repro.route.pathfinder.RouteTree`: int32 arrays in tree
order, every parent before its children, each edge by its CSR index.
The delay to each node is its parent's plus the stage of the edge
between them, so one pass in tree order times a whole net.  The
arrivals are one pass over the netlist index's reader cells in
topological order, each input's SINK node read from the endpoints the
router routed (:attr:`NetEndpoints.pin_sinks
<repro.route.pathfinder.NetEndpoints>`; the native kernel's packed rows
are cached on them, so every warm reroute of a golden mapping reuses
the golden's).

:func:`critical_path` runs in C when the native route's library is
built (:func:`timing_kernel`): ``time_context`` in ``_search.c`` times
every tree of the route's :class:`~repro.route.pathfinder.RouteForest`
(the native route's output buffer as it is) and then the arrivals, with
the arithmetic of the Python body in the same order, so the two agree
bit for bit.  The Python body (:mod:`repro.route._python_timing`,
imported only when it runs) is the fallback and the test twin: it times
the trees that have no delay memo for this substrate and model together
(one gather of ``CompiledRRG.edge_kind``, then one Python pass per
tree) and memoises each tree's ``{sink: delay}`` table on it
(``RouteTree.delay_memo``, the Python kernel's alone), so a net adopted
from a golden routing, which shares the golden's tree, costs a lookup.
:func:`route_tree_delays` always runs it.  The dict walk both replace is
the test suite's STA oracle (``tests/oracles/sta_oracle.py``).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.arch.compiled import EDGE_KIND_INDEX, CompiledRRG, EdgeKind
from repro.errors import SimulationError
from repro.netlist.index import INPUT, LUT
from repro.netlist.netlist import Netlist
from repro.route.pathfinder import (
    _ROUTE,
    RouteResult,
    RoutedNet,
    _addr,
    _net_endpoints,
)

_PASS, _BUF, _PIN = (EDGE_KIND_INDEX[k] for k in (
    EdgeKind.PASS, EdgeKind.BUF, EdgeKind.PIN))


@dataclass(frozen=True)
class DelayModel:
    """Normalized delay constants.

    ``r_pass * c_seg`` is the unit; a chain of ``n`` SEs then costs
    ``n*(n+1)/2`` units (Elmore ladder).  ``t_buf`` is the fixed delay of
    a double-length line driver including its two-tile wire flight;
    ``t_pin`` covers connection-block switches; ``t_lut`` one LUT lookup.
    """

    r_pass: float = 1.0
    c_seg: float = 1.0
    t_buf: float = 1.4
    t_pin: float = 0.3
    t_lut: float = 1.0

    def pass_stage(self, chain_position: int) -> float:
        """Incremental Elmore delay of the ``chain_position``-th series SE
        (1-based)."""
        return self.r_pass * self.c_seg * chain_position


def chain_delay(n_series_ses: int, model: DelayModel | None = None) -> float:
    """Total delay of ``n`` SEs in series: the quadratic ladder.

    >>> chain_delay(1)
    1.0
    >>> chain_delay(4)
    10.0
    """
    m = model or DelayModel()
    return sum(m.pass_stage(i) for i in range(1, n_series_ses + 1))


_DEFAULT_MODEL = DelayModel()


def path_delay(
    g: CompiledRRG,
    path: list[int],
    model: DelayModel | None = None,
) -> float:
    """Delay along a node path using edge kinds from the RRG."""
    m = model or _DEFAULT_MODEL
    kinds = g.edge_kinds(np.asarray(path[:-1], dtype=np.int64), path[1:])
    missing = np.flatnonzero(kinds < 0)
    if missing.size:
        at = int(missing[0])
        raise SimulationError(f"no RRG edge {path[at]}->{path[at + 1]}")
    total = 0.0
    chain = 0
    for kind in kinds.tolist():
        if kind == _PASS:
            chain += 1
            total += m.pass_stage(chain)
        elif kind == _BUF:
            total += m.t_buf
            chain = 0
        elif kind == _PIN:
            total += m.t_pin
            chain = 0  # connection blocks are buffered in this model
        else:  # INTERNAL
            pass
    return total


def route_tree_delays(
    g: CompiledRRG,
    net: RoutedNet,
    model: DelayModel | None = None,
) -> dict[int, float]:
    """Source-to-sink delay for every sink of a routed net.

    One pass over the net's tree by the Python kernel (memoised on it,
    whichever kernel :func:`critical_path` runs); raises if the route
    is not a connected tree.
    """
    from repro.route._python_timing import sink_tables

    table = sink_tables(g, [net], model or _DEFAULT_MODEL)[0]
    return {sink: table[sink] for sink in net.sinks}


class _StaJob(ctypes.Structure):
    """``sta_job`` of ``_search.c``: one ``time_context`` call's route
    forest, endpoint rows, substrate, netlist and delay model (pointers
    are buffer addresses; ``order`` left unset is the C side's NULL),
    and its result."""

    _fields_ = [(name, kind) for names, kind in (
        ("n_nets", ctypes.c_int64),
        ("node parent edge branch tree_start path_start order sink_start "
         "sinks row_net", ctypes.c_void_p),
        ("n_edges", ctypes.c_int64),
        ("edge_kind", ctypes.c_void_p),
        ("kind_pass kind_buf kind_pin kind_input kind_lut n_netlist_nets "
         "n_cells n_pins", ctypes.c_int64),
        ("topo kind out_net in_start in_net pin_cell pin_slot pin_sink",
         ctypes.c_void_p),
        ("unit t_buf t_pin t_lut worst", ctypes.c_double),
        ("status net sink", ctypes.c_int64),
    ) for name in names.split()]


#: ``time_context`` status codes.
_STA_OK, _STA_EDGE, _STA_NOT_TREE, _STA_NO_SINK, _STA_NOMEM = range(5)


def _time_function():
    """The bound ``time_context`` (in the native route's library, so it
    costs no second build or load), or ``None`` to run the Python
    body."""
    return _ROUTE.export("time_context", (ctypes.POINTER(_StaJob),),
                         ctypes.c_int64)


def timing_kernel() -> str:
    """The static timing :func:`critical_path` runs: ``"native"`` (one
    C call per routed context) or ``"python"``.  Builds the native
    route's library on first use."""
    return "python" if _time_function() is None else "native"


def _sta_template(g: CompiledRRG, ix, pin_sinks: list[int],
                  rows: tuple[int, int, int]) -> tuple[bytes, np.ndarray]:
    """A ``sta_job`` holding what one (netlist, placement, substrate)
    shares: the endpoint ``rows`` (the addresses of their sink starts,
    sinks and netlist nets), the edge kinds, and the index's cells in
    topological order, its cell, input and reader-pin rows and each
    reader pin's SINK node (``pin_sinks``, as
    :attr:`NetEndpoints.pin_sinks
    <repro.route.pathfinder.NetEndpoints>`), copied into one buffer;
    and that buffer."""
    parts = (ix.topo, ix.kind, ix.out_net, ix.in_start, ix.in_net,
             ix.pin_cell, ix.pin_slot, pin_sinks)
    sizes = [len(part) for part in parts]
    buf = np.concatenate(parts, dtype=np.int32)
    base = _addr(buf)
    job = _StaJob(
        n_edges=g.n_edges, edge_kind=_addr(g.edge_kind), kind_pass=_PASS,
        kind_buf=_BUF, kind_pin=_PIN, kind_input=INPUT, kind_lut=LUT,
        n_netlist_nets=ix.n_nets, n_cells=ix.n_cells, n_pins=sizes[-1])
    job.sink_start, job.sinks, job.row_net = rows
    (job.topo, job.kind, job.out_net, job.in_start, job.in_net,
     job.pin_cell, job.pin_slot, job.pin_sink) = (
        base + 4 * at for at in accumulate(sizes[:-1], initial=0))
    return bytes(job), buf


def _rows_by_name(endpoints, route: RouteResult) -> np.ndarray:
    """Each of ``route``'s nets' row in ``endpoints``, found by name;
    raises when a net is not one of them or sinks elsewhere."""
    row_of = {name: (r, sinks)
              for r, (name, _src, sinks) in enumerate(endpoints.rows)}
    order = []
    for name, net in route.nets.items():
        r, sinks = row_of.get(name, (-1, ()))
        if r < 0 or set(sinks) != set(net.sinks):
            raise SimulationError(
                f"route of net {name!r} does not match its net on this "
                f"placement")
        order.append(r)
    return np.array(order, dtype=np.int32)


def _critical_path_native(fn, g: CompiledRRG, ix, route: RouteResult,
                          endpoints, order: np.ndarray | None,
                          m: DelayModel) -> float:
    """:func:`critical_path` in one ``time_context`` call over the
    route's forest, net ``i`` being row ``order[i]`` (``None``: ``i``)
    of ``endpoints``, whose memo holds the job's template."""
    forest = route.forest()
    template = endpoints.sta_memo
    if template is None:
        template = endpoints.sta_memo = _sta_template(
            g, ix, endpoints.pin_sinks, endpoints.addresses[1:])
    job = _StaJob.from_buffer_copy(template[0])
    (job.node, job.parent, job.edge, job.branch, job.tree_start,
     job.path_start) = (forest.address + 4 * at for at in forest.at)
    job.n_nets = forest.n_nets
    if order is not None:
        job.order = _addr(order)
    job.unit, job.t_buf, job.t_pin, job.t_lut = (
        m.r_pass * m.c_seg, m.t_buf, m.t_pin, m.t_lut)
    status = fn(ctypes.byref(job))
    if status == _STA_OK:
        return job.worst
    if status == _STA_NOMEM:
        raise MemoryError("static timing: allocation failed")
    name = list(route.nets)[job.net]
    if status == _STA_EDGE:
        raise SimulationError(
            f"route of net {name!r} uses an edge the fabric lacks")
    if status == _STA_NOT_TREE:
        raise SimulationError(
            f"route of net {name!r} is not a tree in tree order")
    raise SimulationError(
        f"sink {job.sink} unreachable in route tree of net {name!r}")


def critical_path(
    g: CompiledRRG,
    netlist: Netlist,
    route: RouteResult,
    placement,
    model: DelayModel | None = None,
) -> float:
    """Static timing analysis of one routed context.

    Arrival at a LUT = max over fanin (driver arrival + routed net delay
    to the LUT's sink) + t_lut.  Returns the worst primary-output /
    DFF-input arrival.

    Each input's SINK node comes from the endpoints the route was made
    on, when they were made for this netlist's index, ``placement`` and
    ``g``, and otherwise from endpoints extracted here, each route net
    matched to its row by name; either way an unplaced cell raises
    :class:`~repro.errors.PlacementError` naming it.  The timing itself
    is one native call (:func:`timing_kernel`) or the Python body, bit
    for bit the same; a route that is not a tree of the fabric's edges
    reaching every sink, or (matched by name) has a net the placed
    netlist does not have, raises :class:`~repro.errors.SimulationError`
    with the same text on both.
    """
    m = model or _DEFAULT_MODEL
    ix = netlist.index()
    endpoints, order = route.endpoints, route.order
    if endpoints is None or any(a is not b for a, b in zip(
            endpoints.made_for, (ix, placement, g))):
        endpoints = _net_endpoints(netlist, placement, g)
        order = _rows_by_name(endpoints, route)
    fn = _time_function()
    if fn is None:
        from repro.route._python_timing import critical_path_python

        return critical_path_python(g, ix, route, endpoints.pin_sinks, m)
    return _critical_path_native(fn, g, ix, route, endpoints, order, m)
