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

:func:`place` checks its arguments in Python, draws the initial
order of the free tiles with numpy's own ``rng.permutation`` (the draw
contract is numpy's shuffle) and hands a kernel a :class:`_PlaceJob`;
afterwards it writes ``Coord`` objects and the ``placer.*`` counters.
A kernel does everything in between:

1. the initial occupancy (a tile is ``y * cols + x``; each holds a
   movable cell's index, or is free or pinned; forbidden tiles are
   bytes);
2. the I/O pads, placed greedily near their cells;
3. every terminal (movable cells first, then pinned cells, then I/O
   pads) as an id into int32 x and y coordinate arrays, the live nets
   (two or more distinct terminals) and each movable cell's nets (a
   cell reading one net twice counts once) as CSR rows, their
   half-perimeters and the start temperature;
4. the move loop;
5. the pads again, for the final cell positions, and the final cost.

The set-up reads the netlist's connectivity from its
:class:`~repro.netlist.index.NetlistIndex` (terminal rows, I/O pad
rows), never from the cells.

Two kernels do this.  The native one, ``_anneal.c``, is one C call of
its one export, ``place_context``; it is compiled by
:mod:`repro.utils.native` at the first placement (never at import) and
:func:`anneal_kernel` says whether it runs.  Without a C compiler, or
when the build fails, the Python kernel
:func:`repro.place._python_kernel.place_python` runs instead, with the
move loop in :func:`~repro.place._python_kernel.anneal_python`; it is
also the native kernel's test oracle.  ``place`` imports it only then,
so a process that places natively never compiles or loads it.

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
  order in which a move's nets are summed cannot matter.  The
  floating-point steps are the same operation for operation:
  ``exp(-delta / T)`` calls the libm ``exp`` that ``math.exp`` calls,
  the accept ratio is one division of two exactly representable
  integers, and every temperature step is one multiply.  A pad's
  barycentre is a float64 sum of small integers (exact in any order)
  and one division, its distances to the pad tiles are computed as
  numpy computes them, and ties go to the first tile in perimeter
  order, as the Python kernel's stable argsort ranks them.  No
  expression has the form ``a*b+c``, so floating-point contraction
  cannot change a result.

Both kernels draw past numpy's own locking, so ``place`` holds
``rng.bit_generator.lock`` for the kernel, and only for it:
``rng.permutation`` takes the same lock itself, which is a plain
(non-reentrant) ``Lock`` on older numpy releases.  The native call
releases the interpreter lock, so threads placing on different
generators place in parallel.

The pads' perimeter order is that of the per-grid tables of
:func:`distance_tables`.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from repro.arch.geometry import Coord, Grid
from repro.arch.params import ArchParams
from repro.errors import PlacementError
from repro.netlist.dfg import MultiContextProgram
from repro.netlist.index import NetlistIndex
from repro.netlist.netlist import Netlist
from repro.utils.native import NativeLibrary
from repro.utils.rng import ensure_rng
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
    ``perim_y`` are its coordinates as int32 arrays, so the distances
    from every I/O cell to every pad tile are one vectorised Manhattan
    expression (in float64, which holds them exactly).
    """

    __slots__ = ("cols", "rows", "perimeter", "perim_x", "perim_y")

    def __init__(self, cols: int, rows: int) -> None:
        self.cols = cols
        self.rows = rows
        grid = Grid(cols, rows)
        self.perimeter: list[Coord] = list(grid.perimeter())
        self.perim_x = np.array([t.x for t in self.perimeter], dtype=np.int32)
        self.perim_y = np.array([t.y for t in self.perimeter], dtype=np.int32)


@lru_cache(maxsize=32)
def distance_tables(cols: int, rows: int) -> DistanceTables:
    """Cached :class:`DistanceTables` for a grid size."""
    return DistanceTables(cols, rows)


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
    forb = {t.y * cols + t.x for t in forbidden if grid.contains(t)}
    n_mov = len(movable_ids)
    n_place = n_mov + len(pinned)
    n_usable = grid.n_tiles - len(forb)
    if n_place > n_usable:
        raise PlacementError(
            f"{n_place} cells exceed {n_usable} usable tiles "
            f"({cols}x{rows}, {len(forbidden)} forbidden)"
        )
    pin_tiles: list[int] = []
    taken: set[int] = set()
    for name, coord in pinned.items():
        grid.check(coord)
        tile = coord.y * cols + coord.x
        if tile in forb:
            raise PlacementError(f"pinned cell {name!r} on forbidden tile {coord}")
        if tile in taken:
            raise PlacementError(f"pinned collision at {coord}")
        taken.add(tile)
        pin_tiles.append(tile)

    # movable cell i starts on the order[i]-th free tile (ascending)
    order = rng.permutation(n_usable - len(pinned))[:n_mov]
    job = _PlaceJob(
        ix, movable_ids, order, pin_tiles,
        [ix.cell_id.get(name, -1) for name in pinned], list(forb),
        cols, rows, params.io_capacity,
        max(10, int(effort * 10 * (n_mov ** 1.33))),
    )
    if _NATIVE.function() is None:
        from repro.place._python_kernel import place_python as kernel
    else:
        kernel = _place_native
    # both kernels draw past numpy's own locking, so hold the generator's
    # lock for the kernel, and only for it: Generator methods take it
    # themselves, and it is not reentrant on older numpy releases
    try:
        with rng.bit_generator.lock:
            out = kernel(job, rng)
    except _OutOfPads as exc:
        name = names[ix.io_rows[0][exc.args[0]]]
        raise PlacementError(
            f"out of I/O pads for {name!r} "
            f"(capacity {params.io_capacity}/perimeter tile)"
        ) from None
    if n_mov:
        _tcount("placer.rounds", out.rounds)
        _tcount("placer.moves_proposed", out.rounds * job.moves_per_t)
        _tcount("placer.moves_accepted", out.accepted)

    location = dict(pinned)
    location.update(zip((names[c] for c in movable_ids),
                        map(Coord, out.x, out.y)))
    perimeter = distance_tables(cols, rows).perimeter
    ios = {names[c]: (perimeter[p], s)
           for c, p, s in zip(ix.io_rows[0], out.pads, out.slots)}
    return Placement(location, ios, float(out.cost))


class _PlaceJob(NamedTuple):
    """One context to place, after :func:`place`'s checks and its draw.

    ``movable`` are cell ids (LUTs, then DFFs, not pinned); movable cell
    ``i`` starts on the ``order[i]``-th free tile in ascending tile
    order (neither pinned nor forbidden).  Pinned cell ``pin_cells[j]``
    (-1 for a name the netlist lacks) holds tile ``pin_tiles[j]``; a
    tile is ``y * cols + x``.  The pinned tiles are distinct, and so are
    the ``forb_tiles``; all lie in the grid, and no pinned tile is
    forbidden.
    """

    ix: NetlistIndex
    movable: list[int]
    order: np.ndarray
    pin_tiles: list[int]
    pin_cells: list[int]
    forb_tiles: list[int]
    cols: int
    rows: int
    io_capacity: int
    moves_per_t: int
    min_t: float = 0.005


class _Placed(NamedTuple):
    """A kernel's result: the movable cells' ``x``/``y``, each I/O's
    perimeter index (:class:`DistanceTables` order) and slot on that
    tile, the final cost, and the anneal's rounds and accepted moves
    (both 0 when nothing moves)."""

    x: list[int]
    y: list[int]
    pads: list[int]
    slots: list[int]
    cost: int
    rounds: int
    accepted: int


class _OutOfPads(Exception):
    """I/O ``args[0]`` (an index into ``io_rows``) found no pad left."""


#: The native twin of :func:`~repro.place._python_kernel.place_python`,
#: built at the first placement.
_NATIVE = NativeLibrary(
    "repro.place", "_anneal.c", "place_context",
    (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
     ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p),
    ctypes.c_int64,
)

#: ``place_context``'s error codes: below ``_OUT_OF_PADS``, I/O
#: ``_OUT_OF_PADS - code`` found no pad.
_NO_MEMORY = -1
_OUT_OF_PADS = -2


def anneal_kernel() -> str:
    """The placement kernel: ``"native"`` or ``"python"`` (builds it)."""
    return _NATIVE.kernel


def _place_native(job: _PlaceJob, rng: np.random.Generator) -> _Placed:
    """The whole placement in one C call (``_anneal.c``); the caller
    holds ``rng.bit_generator.lock``."""
    ix = job.ix
    io_ids, owner, near = ix.io_rows
    net_start, term_cells, n_multi = ix.terminals
    n_mov, n_io = len(job.movable), len(io_ids)
    if (net_start[-1] != len(term_cells) or len(owner) != len(near)
            or len(job.order) != n_mov):
        raise ValueError("place job: row lengths disagree")
    # place_context's one int32 input: the counts, then the rows (the
    # cast refuses any row that is not integer)
    rows = np.concatenate((
        [ix.n_cells, len(net_start) - 1, len(term_cells), len(owner),
         n_mov, len(job.pin_tiles), len(job.forb_tiles), n_io, job.cols,
         job.rows, job.io_capacity, *job.movable, *job.pin_cells,
         *job.pin_tiles, *job.forb_tiles, *io_ids],
        net_start, term_cells, owner, near, job.order,
    ), dtype=np.int32, casting="same_kind")
    out = (ctypes.c_int32 * (2 * (n_mov + n_io)))()
    stats = (ctypes.c_int64 * 2)()
    rounds = _NATIVE.function()(
        rng.bit_generator.ctypes.bit_generator, rows.ctypes.data, n_multi,
        job.moves_per_t, job.min_t, out, stats,
    )
    if rounds == _NO_MEMORY:
        raise MemoryError("place: scratch allocation failed")
    if rounds < 0:
        raise _OutOfPads(_OUT_OF_PADS - rounds)
    pads = 2 * n_mov
    return _Placed(out[:n_mov], out[n_mov:pads], out[pads:pads + n_io],
                   out[pads + n_io:], stats[0], rounds, stats[1])


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
