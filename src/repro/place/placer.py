"""Simulated-annealing placement.

Places LUT cells onto logic tiles (one LUT slot per tile output — we
place one cell per tile and let the 2-output MCMG packing happen in the
analysis layer) and primary I/O onto perimeter pads.  Supports *pinned*
cells, which is how the multi-context mapper keeps shared cells at the
same physical location across contexts (the prerequisite for their
configuration bits to become CONSTANT patterns).

The annealer is a standard VPR-style schedule (Betz & Rose, FPL'97):
move/swap proposals, adaptive temperature decay, and a per-net cached
half-perimeter bounding box, so a proposal recomputes only the nets of
the cells it moves.

Anneal state is integer-only and built once per call as contiguous
numpy arrays (:class:`_AnnealState`).  A tile is ``y * cols + x``;
``occ`` holds a movable cell's index, ``_FREE`` or ``_PINNED``;
forbidden tiles are uint8 bytes.  Every terminal (movable cells first,
then pinned cells, then I/O pads) has an id into the int32 x and y
coordinate arrays.  The live nets (two or more distinct terminals) and
each movable cell's nets (a cell reading one net twice counts once)
are CSR rows.  The set-up reads the netlist's connectivity from its
:class:`~repro.netlist.index.NetlistIndex` (terminal rows, I/O pad
rows), never from the cells.  ``Coord`` objects are written back once,
after the last round.

Two kernels run the move loop on that state.  The native one,
``_anneal.c``, runs the whole schedule in one C call; it is compiled by
:mod:`repro.utils.native` at the first anneal (never at import) and
:func:`anneal_kernel` says whether it runs.  Without a C compiler, or
when the build fails, the Python kernel :func:`_anneal_python` runs
instead; it is also the native kernel's test oracle.

Draw-for-draw contract: the proposal schedule, the acceptance test and
the RNG call sequence are those of the original ``Coord``-keyed loop,
so placements, costs and the generator's state afterwards are
bit-identical for a given seed, whichever kernel runs; that matters
because ``place_program`` and the repair/sweep callers keep drawing
from a shared generator.

- The Python kernel draws through :func:`repro.utils.rng.scalar_draws`,
  which returns exactly what ``int(rng.integers(n))`` and
  ``rng.random()`` would and leaves the generator in the same state.
- The native kernel draws through the generator's own ``bitgen_t``
  (``rng.bit_generator.ctypes.bit_generator``): ``integers(n)`` is the
  same 32-bit Lemire rejection on ``next_uint32`` (``n == 1`` draws
  nothing), ``random()`` is ``next_double``, and the uphill test draws
  only when the cost rises, as in Python.  Costs are integers, so the
  order in which a move's nets are summed cannot matter.  The one
  floating-point path is the same operation for operation:
  ``exp(-delta / T)`` calls the libm ``exp`` that ``math.exp`` calls,
  the accept ratio is one division of two exactly representable
  integers, and every temperature step is one multiply; no expression
  has the form ``a*b+c``, so floating-point contraction cannot change
  a result.

Both kernels draw past numpy's own locking, so ``place`` holds
``rng.bit_generator.lock`` for the anneal, and only for it:
``rng.permutation`` takes the same lock itself, which is a plain
(non-reentrant) ``Lock`` on older numpy releases.  The native call
releases the interpreter lock, so threads placing on different
generators anneal in parallel.

Perimeter pad assignment uses the per-grid precomputed distance tables
of :func:`distance_tables`.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from repro.arch.geometry import Coord, Grid
from repro.arch.params import ArchParams
from repro.errors import PlacementError
from repro.netlist.dfg import MultiContextProgram
from repro.netlist.netlist import Netlist
from repro.utils.native import NativeLibrary
from repro.utils.rng import ensure_rng, scalar_draws
from repro.utils.telemetry import count as _tcount


@dataclass
class Placement:
    """Placement of one context's netlist.

    ``cells`` maps LUT cell names to tile coordinates; ``ios`` maps
    primary input/output cell names to ``(coord, pad_index)``.
    """

    cells: dict[str, Coord] = field(default_factory=dict)
    ios: dict[str, tuple[Coord, int]] = field(default_factory=dict)
    cost: float = 0.0

    def location(self, cell_name: str) -> Coord:
        if cell_name in self.cells:
            return self.cells[cell_name]
        if cell_name in self.ios:
            return self.ios[cell_name][0]
        raise PlacementError(f"cell {cell_name!r} not placed")


class DistanceTables:
    """Precomputed per-grid geometry tables for placement hot paths.

    ``perimeter`` fixes the pad-candidate order; ``perim_x`` /
    ``perim_y`` are its coordinates as numpy arrays, so the distances
    from every I/O cell to every pad tile are one vectorised Manhattan
    expression.
    """

    __slots__ = ("cols", "rows", "perimeter", "perim_x", "perim_y")

    def __init__(self, cols: int, rows: int) -> None:
        self.cols = cols
        self.rows = rows
        grid = Grid(cols, rows)
        self.perimeter: list[Coord] = list(grid.perimeter())
        self.perim_x = np.array([t.x for t in self.perimeter], dtype=np.float64)
        self.perim_y = np.array([t.y for t in self.perimeter], dtype=np.float64)


@lru_cache(maxsize=32)
def distance_tables(cols: int, rows: int) -> DistanceTables:
    """Cached :class:`DistanceTables` for a grid size."""
    return DistanceTables(cols, rows)


def _net_hpwl(net_start: np.ndarray, net_terms: np.ndarray, tx: np.ndarray,
              ty: np.ndarray) -> np.ndarray:
    """Half-perimeter bounding box of every CSR net (none may be empty)."""
    if not len(net_terms):
        return np.zeros(len(net_start) - 1, dtype=np.int32)
    lo = net_start[:-1]
    xs = tx[net_terms]
    ys = ty[net_terms]
    return (np.maximum.reduceat(xs, lo) - np.minimum.reduceat(xs, lo)
            + np.maximum.reduceat(ys, lo) - np.minimum.reduceat(ys, lo))


def _cell_nets(net_start: np.ndarray, net_terms: np.ndarray,
               n_mov: int) -> tuple[np.ndarray, np.ndarray]:
    """Each movable cell's nets as CSR rows, ascending and without
    repeats: a net lists a terminal once, so grouping the (net,
    terminal) pairs by terminal, stably, is enough."""
    net_of = np.repeat(np.arange(len(net_start) - 1, dtype=np.int32),
                       np.diff(net_start))
    moving = net_terms < n_mov
    cells = net_terms[moving]
    start = np.zeros(n_mov + 1, dtype=np.int32)
    np.cumsum(np.bincount(cells, minlength=n_mov), out=start[1:])
    return start, net_of[moving][np.argsort(cells, kind="stable")]


_FREE = -1
_PINNED = -2


def place(
    netlist: Netlist,
    params: ArchParams,
    seed: int | np.random.Generator | None = 0,
    pinned: dict[str, Coord] | None = None,
    effort: float = 1.0,
    forbidden: "set[Coord] | frozenset[Coord] | None" = None,
) -> Placement:
    """Anneal a placement for ``netlist`` on the ``params`` grid.

    ``pinned`` cells keep their given coordinates; ``effort`` scales the
    move budget (1.0 ≈ VPR default for small designs).  ``forbidden``
    tiles are never used (defective logic sites — the reliability
    subsystem's re-place repair); an empty/absent set leaves the anneal
    trajectory bit-identical to the pre-``forbidden`` placer, since the
    membership test then never fires and the RNG stream is untouched.
    """
    rng = ensure_rng(seed)
    grid = Grid(params.cols, params.rows)
    cols, rows = params.cols, params.rows
    pinned = dict(pinned or {})
    forbidden = frozenset(forbidden or ())

    ix = netlist.index()
    names = ix.cell_names
    movable_ids = [c for c in chain(ix.luts, ix.dffs)
                   if names[c] not in pinned]
    movable = [names[c] for c in movable_ids]
    forb = bytearray(grid.n_tiles)
    for t in forbidden:
        if grid.contains(t):
            forb[t.y * cols + t.x] = 1
    n_place = len(movable) + len(pinned)
    n_usable = grid.n_tiles - sum(forb)
    if n_place > n_usable:
        raise PlacementError(
            f"{n_place} cells exceed {n_usable} usable tiles "
            f"({cols}x{rows}, {len(forbidden)} forbidden)"
        )

    # --- initial assignment: pinned, then a random order of free tiles - #
    # occ[tile] is a movable cell's index, _FREE or _PINNED
    occ = np.full(grid.n_tiles, _FREE, dtype=np.int32)
    location: dict[str, Coord] = {}
    for name, coord in pinned.items():
        grid.check(coord)
        tile = coord.y * cols + coord.x
        if forb[tile]:
            raise PlacementError(f"pinned cell {name!r} on forbidden tile {coord}")
        if occ[tile] != _FREE:
            raise PlacementError(f"pinned collision at {coord}")
        occ[tile] = _PINNED
        location[name] = coord
    forb_np = np.frombuffer(forb, dtype=np.uint8)
    free_tiles = np.flatnonzero((occ == _FREE) & (forb_np == 0))
    n_mov = len(movable)
    order = rng.permutation(len(free_tiles))[:n_mov]
    tiles = free_tiles[order].astype(np.int32)
    occ[tiles] = np.arange(n_mov, dtype=np.int32)
    mx, my = tiles % cols, tiles // cols

    # --- I/O pads: greedy nearest perimeter tile ------------------------- #
    # cx/cy: each cell's tile where ``placed`` (the pads' barycentres)
    n_cells = ix.n_cells
    cx = np.zeros(n_cells, dtype=np.int32)
    cy = np.zeros(n_cells, dtype=np.int32)
    placed = np.zeros(n_cells, dtype=bool)
    cx[movable_ids], cy[movable_ids], placed[movable_ids] = mx, my, True
    pinned_ids = [ix.cell_id.get(name) for name in pinned]
    for c, coord in zip(pinned_ids, pinned.values()):
        if c is not None:
            cx[c], cy[c], placed[c] = coord.x, coord.y, True
    io_ids, io_owner, io_cells = ix.io_rows
    io_names = [names[c] for c in io_ids]
    ios = _assign_ios(io_names, io_owner, io_cells, params, cx, cy, placed)

    # --- terminals as integer ids: movable, then pinned cells, then pads - #
    # every cell has one (a pinned I/O cell takes its pad's)
    n_fixed = n_mov + len(pinned)
    term = [0] * n_cells
    for t, c in enumerate(chain(movable_ids, pinned_ids)):
        if c is not None:
            term[c] = t
    for t, c in enumerate(io_ids, n_fixed):
        term[c] = t
    fixed = [*pinned.values(), *(coord for coord, _pad in ios.values())]
    tx = np.concatenate((mx, np.array([c.x for c in fixed], dtype=np.int32)))
    ty = np.concatenate((my, np.array([c.y for c in fixed], dtype=np.int32)))
    net_start, term_cells, n_multi = ix.terminals
    net_terms = np.array(term, dtype=np.int32)[term_cells]
    net_cost = _net_hpwl(net_start, net_terms, tx, ty)
    cost = float(net_cost.sum())

    if not movable:
        return Placement(location, ios, cost)

    st = _AnnealState(
        occ, forb_np, tx, ty, net_cost, net_start, net_terms,
        *_cell_nets(net_start, net_terms, n_mov), n_mov, cols, rows,
        moves_per_t=max(10, int(effort * 10 * (n_mov ** 1.33))),
        temperature=max(1.0, 0.05 * cost / max(1, n_multi) * 20),
    )
    kernel = _anneal_python if _NATIVE.function() is None else _anneal_native
    # both kernels draw past numpy's own locking, so hold the generator's
    # lock for the whole anneal, and only for it: Generator methods take
    # it themselves, and it is not reentrant on older numpy releases
    with rng.bit_generator.lock:
        rounds, accepted = kernel(st, rng)
    _tcount("placer.rounds", rounds)
    _tcount("placer.moves_proposed", rounds * st.moves_per_t)
    _tcount("placer.moves_accepted", accepted)

    for name, x, y in zip(movable, tx[:n_mov].tolist(), ty[:n_mov].tolist()):
        location[name] = Coord(x, y)
    # refresh IO pads for final cell positions
    cx[movable_ids], cy[movable_ids] = tx[:n_mov], ty[:n_mov]
    ios = _assign_ios(io_names, io_owner, io_cells, params, cx, cy, placed)
    tx[n_fixed:] = [coord.x for coord, _pad in ios.values()]
    ty[n_fixed:] = [coord.y for coord, _pad in ios.values()]
    cost = float(_net_hpwl(net_start, net_terms, tx, ty).sum())
    return Placement(location, ios, cost)


class _AnnealState(NamedTuple):
    """Everything the move loop reads or writes, as contiguous arrays.

    ``occ``, ``tx``, ``ty`` and ``net_cost`` are int32 and annealed in
    place; ``forb`` is uint8.  The live nets (two or more distinct
    terminals) are CSR rows ``net_start``/``net_terms``; each movable
    cell's nets, ascending and without repeats, are ``cell_start``/
    ``cell_nets``.  The rest is the schedule.
    """

    occ: np.ndarray
    forb: np.ndarray
    tx: np.ndarray
    ty: np.ndarray
    net_cost: np.ndarray
    net_start: np.ndarray
    net_terms: np.ndarray
    cell_start: np.ndarray
    cell_nets: np.ndarray
    n_mov: int
    cols: int
    rows: int
    moves_per_t: int
    temperature: float
    min_t: float = 0.005

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """The nine arrays, in the C kernel's argument order."""
        return self[:9]


#: The native twin of :func:`_anneal_python`, built at the first anneal.
_NATIVE = NativeLibrary(
    "repro.place", "_anneal.c", "place_anneal",
    (ctypes.c_void_p,) * 10 + (ctypes.c_int32,) * 4
    + (ctypes.c_int64, ctypes.c_double, ctypes.c_double, ctypes.c_void_p),
    ctypes.c_int64,
)


def anneal_kernel() -> str:
    """The anneal kernel: ``"native"`` or ``"python"`` (builds it)."""
    return _NATIVE.kernel


def _anneal_native(st: _AnnealState, rng: np.random.Generator
                   ) -> tuple[int, int]:
    """The whole schedule in one C call (``_anneal.c``); the caller holds
    ``rng.bit_generator.lock``.  Returns ``(rounds, accepted)``."""
    _check_state(st)
    accepted = ctypes.c_int64()
    rounds = _NATIVE.function()(
        rng.bit_generator.ctypes.bit_generator,
        *(a.ctypes.data for a in st.arrays), st.n_mov, len(st.net_cost),
        st.cols, st.rows, st.moves_per_t, st.temperature, st.min_t,
        ctypes.byref(accepted),
    )
    if rounds < 0:
        raise MemoryError("anneal: scratch allocation failed")
    return rounds, accepted.value


def _check_state(st: _AnnealState) -> None:
    """The dtypes and lengths the C kernel relies on (``place`` builds
    the values, which are sound by construction)."""
    if not all(a.flags.c_contiguous
               and a.dtype == (np.uint8 if a is st.forb else np.int32)
               for a in st.arrays):
        raise ValueError("anneal state: arrays must be contiguous int32 "
                         "(forb uint8)")
    tiles = st.cols * st.rows
    if (len(st.occ) != tiles or len(st.forb) != tiles
            or len(st.ty) != len(st.tx) or len(st.tx) < st.n_mov
            or len(st.net_start) != len(st.net_cost) + 1
            or len(st.cell_start) != st.n_mov + 1
            or st.net_start[-1] != len(st.net_terms)
            or st.cell_start[-1] != len(st.cell_nets)):
        raise ValueError("anneal state: array lengths disagree")


def _anneal_python(st: _AnnealState, rng: np.random.Generator
                   ) -> tuple[int, int]:
    """The Python kernel: the fallback, and the oracle of
    :func:`_anneal_native`.  Same state, same result, same draws."""
    occ = st.occ.tolist()
    forb = st.forb.tolist()
    tx = st.tx.tolist()
    ty = st.ty.tolist()
    net_cost = st.net_cost.tolist()
    ns = st.net_start.tolist()
    nt = st.net_terms.tolist()
    live = [nt[ns[k]:ns[k + 1]] for k in range(len(net_cost))]
    cs = st.cell_start.tolist()
    cn = st.cell_nets.tolist()
    n_mov, cols, temperature = st.n_mov, st.cols, st.temperature
    cell_nets = [frozenset(cn[cs[i]:cs[i + 1]]) for i in range(n_mov)]
    moves_per_t, min_t = st.moves_per_t, st.min_t
    span = max(cols, st.rows)
    width = 2 * span + 1
    xmax, ymax = cols - 1, st.rows - 1
    integers, random = scalar_draws(rng)
    exp = math.exp

    rounds = 0
    total_accepted = 0
    while temperature > min_t:
        rounds += 1
        accepted = 0
        for _ in range(moves_per_t):
            ci = integers(n_mov)
            sx = tx[ci]
            sy = ty[ci]
            x = sx + integers(width) - span
            y = sy + integers(width) - span
            if x < 0:
                x = 0
            elif x > xmax:
                x = xmax
            if y < 0:
                y = 0
            elif y > ymax:
                y = ymax
            dst = y * cols + x
            if (x == sx and y == sy) or forb[dst]:
                continue
            other = occ[dst]
            if other == _PINNED:
                continue
            if other == _FREE:
                affected = cell_nets[ci]
            else:
                affected = cell_nets[ci] | cell_nets[other]
            # tentative move (occupancy is only written on accept)
            tx[ci] = x
            ty[ci] = y
            if other != _FREE:
                tx[other] = sx
                ty[other] = sy
            delta = 0
            new_costs = []
            for k in affected:
                # plain compares: ~4x faster than max()/min() on
                # the 2-6 terminal nets of a LUT netlist
                ids = live[k]
                t = ids[0]
                x0 = x1 = tx[t]
                y0 = y1 = ty[t]
                for t in ids:
                    v = tx[t]
                    if v < x0:
                        x0 = v
                    elif v > x1:
                        x1 = v
                    v = ty[t]
                    if v < y0:
                        y0 = v
                    elif v > y1:
                        y1 = v
                nc = x1 - x0 + y1 - y0
                new_costs.append(nc)
                delta += nc - net_cost[k]
            if delta <= 0 or random() < exp(-delta / temperature):
                accepted += 1
                occ[dst] = ci
                occ[sy * cols + sx] = other
                for k, nc in zip(affected, new_costs):
                    net_cost[k] = nc
            else:  # revert
                tx[ci] = sx
                ty[ci] = sy
                if other != _FREE:
                    tx[other] = x
                    ty[other] = y
        total_accepted += accepted
        ratio = accepted / max(1, moves_per_t)
        if ratio > 0.96:
            temperature *= 0.5
        elif ratio > 0.8:
            temperature *= 0.9
        elif ratio > 0.15:
            temperature *= 0.95
        else:
            temperature *= 0.8

    st.occ[:] = occ
    st.tx[:] = tx
    st.ty[:] = ty
    st.net_cost[:] = net_cost
    return rounds, total_accepted


def _assign_ios(
    names: list[str],
    owner: np.ndarray,
    near: np.ndarray,
    params: ArchParams,
    cx: np.ndarray,
    cy: np.ndarray,
    placed: np.ndarray,
) -> dict[str, tuple[Coord, int]]:
    """Assign each primary input/output to a perimeter pad near its logic.

    I/O ``i`` (named ``names[i]``) goes near the barycentre of the
    ``placed`` cells ``near[j]`` with ``owner[j] == i`` (an input's
    readers, an output's driver: :class:`NetlistIndex.io_rows
    <repro.netlist.index.NetlistIndex>`), or the grid centre
    when none is placed, on the nearest perimeter tile with a pad left;
    ties go to the first tile in perimeter order.  A barycentre is an
    integer sum of the cells' ``cx``/``cy``, then one division.  The
    Manhattan distances from every barycentre to every tile are one
    vectorised expression over the grid's :class:`DistanceTables`,
    ranked once with a stable sort, so the greedy pass, in I/O order,
    only skips exhausted tiles.
    """
    tables = distance_tables(params.cols, params.rows)
    n_io = len(names)
    hit = placed[near]
    owner, near = owner[hit], near[hit]
    n = np.bincount(owner, minlength=n_io)
    bx = np.full(n_io, params.cols / 2)
    by = np.full(n_io, params.rows / 2)
    np.divide(np.bincount(owner, cx[near], n_io), n, out=bx, where=n > 0)
    np.divide(np.bincount(owner, cy[near], n_io), n, out=by, where=n > 0)
    d = (np.abs(tables.perim_x - bx[:, None])
         + np.abs(tables.perim_y - by[:, None]))
    ranked = np.argsort(d, axis=1, kind="stable").tolist()
    free = [params.io_capacity] * len(tables.perimeter)
    ios: dict[str, tuple[Coord, int]] = {}
    for name, candidates in zip(names, ranked):
        for idx in candidates:
            if free[idx]:
                break
        else:
            raise PlacementError(
                f"out of I/O pads for {name!r} "
                f"(capacity {params.io_capacity}/perimeter tile)"
            )
        ios[name] = (tables.perimeter[idx], params.io_capacity - free[idx])
        free[idx] -= 1
    return ios


def place_program(
    program: MultiContextProgram,
    params: ArchParams,
    seed: int | np.random.Generator | None = 0,
    share_aware: bool = True,
    effort: float = 1.0,
    forbidden: "set[Coord] | frozenset[Coord] | None" = None,
) -> list[Placement]:
    """Place every context of a multi-context program.

    With ``share_aware=True`` (the proposed mapping style) cells that
    compute the same function of the same primary inputs in different
    contexts are *pinned to the same tile*, so their LUT configuration
    repeats (single-plane) and their routing can be reused — the
    precondition for CONSTANT context patterns.  With False each context
    is placed independently (the conventional/naive baseline).
    ``forbidden`` tiles (defective logic sites) are excluded in every
    context.
    """
    from repro.netlist.sharing import analyze_sharing

    rng = ensure_rng(seed)
    placements: list[Placement] = []

    # signature-group anchors: once any member of a shared group is
    # placed, every later member is pinned to that tile.
    group_of_cell: dict[tuple[int, str], int] = {}
    anchors: dict[int, Coord] = {}
    if share_aware and program.n_contexts > 1:
        report = analyze_sharing(program)
        for gi, group in enumerate(report.shared_groups):
            for c, cell_name in group.members.items():
                group_of_cell[(c, cell_name)] = gi

    for c, netlist in enumerate(program.contexts):
        pinned: dict[str, Coord] = {}
        used_tiles: set[Coord] = set()
        for cell in netlist.luts():
            gi = group_of_cell.get((c, cell.name))
            if gi is not None and gi in anchors and anchors[gi] not in used_tiles:
                # two groups anchored in different contexts may collide on a
                # tile; keep the first and let the annealer place the other
                pinned[cell.name] = anchors[gi]
                used_tiles.add(anchors[gi])
        pl = place(
            netlist, params, seed=rng, pinned=pinned, effort=effort,
            forbidden=forbidden,
        )
        placements.append(pl)
        for cell in netlist.luts():
            gi = group_of_cell.get((c, cell.name))
            if gi is not None and gi not in anchors and cell.name in pl.cells:
                anchors[gi] = pl.cells[cell.name]
    return placements
