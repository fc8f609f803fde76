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

Anneal state is integer-only.  A tile is ``y * cols + x``; occupancy
is a list holding a movable cell's index, ``_FREE`` or ``_PINNED``;
forbidden tiles are a bytearray.  Every terminal (movable cells first,
then pinned cells, then I/O pads) has an id into two int lists of x
and y coordinates, and each movable cell carries a frozenset of the
nets it sits on (a cell reading one net twice counts once).
``Coord`` objects are written back once, after the last round.

Draw-for-draw contract: the anneal draws through
:func:`repro.utils.rng.scalar_draws`, which returns exactly what
``int(rng.integers(n))`` and ``rng.random()`` would and leaves the
generator in exactly the same state.  The proposal schedule, the
acceptance test and the RNG call sequence are those of the original
``Coord``-keyed loop, so placements, costs and the generator's state
afterwards are bit-identical for a given seed; that matters because
``place_program`` and the repair/sweep callers keep drawing from a
shared generator.  Those draws bypass numpy's locking, so ``place``
holds ``rng.bit_generator.lock`` for the anneal, and only for it:
``rng.permutation`` takes the same lock itself, which is a plain
(non-reentrant) ``Lock`` on older numpy releases.

Perimeter pad assignment uses the per-grid precomputed distance tables
of :func:`distance_tables`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.arch.geometry import Coord, Grid
from repro.arch.params import ArchParams
from repro.errors import PlacementError
from repro.netlist.dfg import MultiContextProgram
from repro.netlist.netlist import CellKind, Netlist
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

    ``perimeter`` fixes the pad-candidate iteration order; ``perim_x`` /
    ``perim_y`` are its coordinates as numpy arrays so nearest-pad
    selection is one vectorised Manhattan expression instead of a
    Python loop over tiles.
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


def _net_terminals(netlist: Netlist) -> dict[str, list[str]]:
    """Net -> cell names touching it (driver + fanout), LUT/IO only."""
    terminals: dict[str, list[str]] = {}
    for cell in netlist.cells.values():
        if cell.kind is CellKind.LUT or cell.kind is CellKind.INPUT:
            if cell.output:
                terminals.setdefault(cell.output, []).append(cell.name)
        if cell.kind in (CellKind.LUT, CellKind.OUTPUT):
            for net in cell.inputs:
                terminals.setdefault(net, []).append(cell.name)
        if cell.kind is CellKind.DFF:
            # DFFs live inside the driver/sink LBs in this model; tie the
            # net endpoints to the cells around them.
            for net in cell.inputs:
                terminals.setdefault(net, []).append(cell.name)
            terminals.setdefault(cell.output, []).append(cell.name)
    return terminals


def _hpwl(ids: tuple[int, ...], tx: list[int], ty: list[int]) -> int:
    """Half-perimeter bounding box of the terminals ``ids`` (0 if none)."""
    if not ids:
        return 0
    xs = [tx[t] for t in ids]
    ys = [ty[t] for t in ids]
    return max(xs) - min(xs) + max(ys) - min(ys)


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

    movable = [c.name for c in netlist.luts() + netlist.dffs()
               if c.name not in pinned]
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

    # --- initial assignment: pinned first, then row-major scan ---------- #
    # occ[tile] is a movable cell's index, _FREE or _PINNED
    occ = [_FREE] * grid.n_tiles
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
    free_tiles = [
        t for t in range(grid.n_tiles) if occ[t] == _FREE and not forb[t]
    ]
    order = rng.permutation(len(free_tiles))
    for ci, (name, idx) in enumerate(zip(movable, order)):
        tile = free_tiles[int(idx)]
        occ[tile] = ci
        location[name] = Coord(tile % cols, tile // cols)

    # --- I/O pads: greedy nearest perimeter tile ------------------------- #
    ios = _assign_ios(netlist, params, location)

    # --- terminals as integer ids: movable cells first ------------------- #
    term_id: dict[str, int] = {}
    tx: list[int] = []
    ty: list[int] = []
    placed = [(name, location[name]) for name in movable]
    placed += [(name, coord) for name, coord in location.items()
               if name in pinned]
    placed += [(name, coord) for name, (coord, _pad) in ios.items()]
    for name, coord in placed:
        term_id[name] = len(tx)
        tx.append(coord.x)
        ty.append(coord.y)
    net_ids = [
        tuple(dict.fromkeys(term_id[c] for c in terminals if c in term_id))
        for terminals in _net_terminals(netlist).values()
        if len(terminals) > 1
    ]
    cost = float(sum(_hpwl(ids, tx, ty) for ids in net_ids))

    if not movable:
        return Placement(location, ios, cost)

    # nets with one distinct terminal cost 0 whatever moves: leave them out
    live = [ids for ids in net_ids if len(ids) > 1]
    net_cost = [_hpwl(ids, tx, ty) for ids in live]
    n_mov = len(movable)
    nets_of: list[list[int]] = [[] for _ in range(n_mov)]
    for k, ids in enumerate(live):
        for t in ids:
            if t < n_mov:
                nets_of[t].append(k)
    cell_nets = [frozenset(ks) for ks in nets_of]

    # --- annealing schedule ----------------------------------------------- #
    moves_per_t = max(10, int(effort * 10 * (n_mov ** 1.33)))
    temperature = max(1.0, 0.05 * cost / max(1, len(net_ids)) * 20)
    min_t = 0.005
    span = max(cols, rows)
    width = 2 * span + 1
    xmax, ymax = cols - 1, rows - 1
    integers, random = scalar_draws(rng)
    exp = math.exp

    rounds = 0
    total_accepted = 0
    # the draws bypass numpy's own locking, so hold the generator's lock
    # for the whole anneal, and only for it: Generator methods take it
    # themselves, and it is not reentrant on older numpy releases
    with rng.bit_generator.lock:
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

    _tcount("placer.rounds", rounds)
    _tcount("placer.moves_proposed", rounds * moves_per_t)
    _tcount("placer.moves_accepted", total_accepted)

    for ci, name in enumerate(movable):
        location[name] = Coord(tx[ci], ty[ci])
    # refresh IO pads for final cell positions
    ios = _assign_ios(netlist, params, location)
    for name, (coord, _pad) in ios.items():
        tx[term_id[name]] = coord.x
        ty[term_id[name]] = coord.y
    cost = float(sum(_hpwl(ids, tx, ty) for ids in net_ids))
    return Placement(location, ios, cost)


def _assign_ios(
    netlist: Netlist,
    params: ArchParams,
    location: dict[str, Coord],
) -> dict[str, tuple[Coord, int]]:
    """Assign each primary input/output to a perimeter pad near its logic.

    An input's pad goes near the barycentre of the placed cells reading
    its net, an output's near its driver.  Candidate distances come
    from the grid's precomputed :class:`DistanceTables`: one vectorised
    Manhattan evaluation per I/O cell, with exhausted tiles masked out.
    ``argmin`` returns the first minimum in perimeter order — the same
    tile the original tile-by-tile scan picked.
    """
    tables = distance_tables(params.cols, params.rows)
    free = np.full(len(tables.perimeter), params.io_capacity, dtype=np.int64)
    readers: dict[str, list[str]] = {}
    for c in netlist.cells.values():
        for net in dict.fromkeys(c.inputs):
            readers.setdefault(net, []).append(c.name)
    ios: dict[str, tuple[Coord, int]] = {}
    io_cells = netlist.inputs() + netlist.outputs()
    for cell in io_cells:
        if cell.kind is CellKind.INPUT:
            conn = readers.get(cell.output, [])
        else:
            drv = netlist.net_driver.get(cell.inputs[0])
            conn = [drv] if drv else []
        pts = [location[name] for name in conn if name in location]
        if pts:
            bx = sum(p.x for p in pts) / len(pts)
            by = sum(p.y for p in pts) / len(pts)
        else:
            bx, by = params.cols / 2, params.rows / 2
        d = np.abs(tables.perim_x - bx) + np.abs(tables.perim_y - by)
        d[free == 0] = np.inf
        idx = int(np.argmin(d))
        if free[idx] == 0:
            raise PlacementError(
                f"out of I/O pads for {cell.name!r} "
                f"(capacity {params.io_capacity}/perimeter tile)"
            )
        pad = params.io_capacity - int(free[idx])
        free[idx] -= 1
        ios[cell.name] = (tables.perimeter[idx], pad)
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
