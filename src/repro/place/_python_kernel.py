"""The Python placement kernel: the fallback and the test oracle.

:func:`place_python` does for one :class:`~repro.place.placer._PlaceJob`
what ``_anneal.c``'s ``place_context`` does in C, in numpy and plain
Python: the occupancy, the I/O pads (:func:`_assign_ios`), the terminals,
nets and start temperature, the move loop (:func:`anneal_python` over an
:class:`AnnealState`), the pads again and the final cost.
:func:`repro.place.placer.place` imports this module only when the
native kernel cannot run, so a process that places natively never
loads it; the tests run both kernels on the same jobs.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

import numpy as np

from repro.place.placer import (
    DistanceTables,
    _OutOfPads,
    _PlaceJob,
    _Placed,
    distance_tables,
)
from repro.utils.rng import scalar_draws

#: Occupancy of a tile no movable cell holds.
_FREE = -1
_PINNED = -2


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


def place_python(job: _PlaceJob, rng: np.random.Generator) -> _Placed:
    """The Python kernel: the fallback, and the oracle of
    :func:`repro.place.placer._place_native`.  Same job, same result,
    same draws."""
    ix = job.ix
    cols, n_mov = job.cols, len(job.movable)
    n_tiles = cols * job.rows
    forb = np.zeros(n_tiles, dtype=np.uint8)
    forb[job.forb_tiles] = 1
    # occ[tile] is a movable cell's index, _FREE or _PINNED
    occ = np.full(n_tiles, _FREE, dtype=np.int32)
    occ[job.pin_tiles] = _PINNED
    free_tiles = np.flatnonzero((occ == _FREE) & (forb == 0))
    tiles = free_tiles[job.order].astype(np.int32)
    occ[tiles] = np.arange(n_mov, dtype=np.int32)
    mx, my = tiles % cols, tiles // cols

    # --- I/O pads: greedy nearest perimeter tile ------------------------- #
    # cx/cy: each cell's tile where ``placed`` (the pads' barycentres)
    movable_ids = job.movable
    pinned_ids = [c for c in job.pin_cells if c >= 0]
    pin_tiles = np.array([t for c, t in zip(job.pin_cells, job.pin_tiles)
                          if c >= 0], dtype=np.int32)
    cx = np.zeros(ix.n_cells, dtype=np.int32)
    cy = np.zeros(ix.n_cells, dtype=np.int32)
    placed = np.zeros(ix.n_cells, dtype=bool)
    cx[movable_ids], cy[movable_ids], placed[movable_ids] = mx, my, True
    cx[pinned_ids], cy[pinned_ids] = pin_tiles % cols, pin_tiles // cols
    placed[pinned_ids] = True
    io_ids, io_owner, io_cells = ix.io_rows
    tables = distance_tables(cols, job.rows)
    pads, slots = _assign_ios(io_owner, io_cells, len(io_ids), tables,
                              job.io_capacity, cx, cy, placed)

    # --- terminals as integer ids: movable, then pinned cells, then pads - #
    # every cell has one (a pinned I/O cell takes its pad's)
    n_fixed = n_mov + len(job.pin_tiles)
    term = [0] * ix.n_cells
    for t, c in enumerate(chain(movable_ids, job.pin_cells)):
        if c >= 0:
            term[c] = t
    for t, c in enumerate(io_ids, n_fixed):
        term[c] = t
    fixed = np.array(job.pin_tiles, dtype=np.int32)
    tx = np.concatenate((mx, fixed % cols, tables.perim_x[pads]))
    ty = np.concatenate((my, fixed // cols, tables.perim_y[pads]))
    net_start, term_cells, n_multi = ix.terminals
    net_terms = np.array(term, dtype=np.int32)[term_cells]
    net_cost = _net_hpwl(net_start, net_terms, tx, ty)
    cost = int(net_cost.sum())
    if not n_mov:
        return _Placed([], [], pads, slots, cost, 0, 0)

    st = AnnealState(
        occ, forb, tx, ty, net_cost, net_start, net_terms,
        *_cell_nets(net_start, net_terms, n_mov), n_mov, cols, job.rows,
        moves_per_t=job.moves_per_t,
        temperature=max(1.0, 0.05 * float(cost) / max(1, n_multi) * 20),
        min_t=job.min_t,
    )
    rounds, accepted = anneal_python(st, rng)

    # refresh the I/O pads for the final cell positions
    cx[movable_ids], cy[movable_ids] = tx[:n_mov], ty[:n_mov]
    pads, slots = _assign_ios(io_owner, io_cells, len(io_ids), tables,
                              job.io_capacity, cx, cy, placed)
    tx[n_fixed:] = tables.perim_x[pads]
    ty[n_fixed:] = tables.perim_y[pads]
    cost = int(_net_hpwl(net_start, net_terms, tx, ty).sum())
    return _Placed(tx[:n_mov].tolist(), ty[:n_mov].tolist(), pads, slots,
                   cost, rounds, accepted)


class AnnealState(NamedTuple):
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
    min_t: float


def anneal_python(st: AnnealState, rng: np.random.Generator
                   ) -> tuple[int, int]:
    """The move loop of :func:`place_python`; the native kernel's
    ``anneal`` is its twin.  Same state, same result, same draws."""
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
    owner: np.ndarray,
    near: np.ndarray,
    n_io: int,
    tables: DistanceTables,
    capacity: int,
    cx: np.ndarray,
    cy: np.ndarray,
    placed: np.ndarray,
) -> tuple[list[int], list[int]]:
    """Assign each primary input/output to a perimeter pad near its logic.

    I/O ``i`` goes near the barycentre of the ``placed`` cells
    ``near[j]`` with ``owner[j] == i`` (an input's readers, an output's
    driver: :class:`NetlistIndex.io_rows
    <repro.netlist.index.NetlistIndex>`), or the grid centre
    when none is placed, on the nearest perimeter tile with a pad left;
    ties go to the first tile in perimeter order.  A barycentre is an
    integer sum of the cells' ``cx``/``cy``, then one division.  The
    Manhattan distances from every barycentre to every tile are one
    vectorised expression over the grid's :class:`DistanceTables`,
    ranked once with a stable sort, so the greedy pass, in I/O order,
    only skips exhausted tiles.  Returns each I/O's perimeter index and
    its slot on that tile; raises :class:`~repro.place.placer._OutOfPads` for the first
    I/O left without one.
    """
    hit = placed[near]
    owner, near = owner[hit], near[hit]
    n = np.bincount(owner, minlength=n_io)
    bx = np.full(n_io, tables.cols / 2)
    by = np.full(n_io, tables.rows / 2)
    np.divide(np.bincount(owner, cx[near], n_io), n, out=bx, where=n > 0)
    np.divide(np.bincount(owner, cy[near], n_io), n, out=by, where=n > 0)
    d = (np.abs(tables.perim_x - bx[:, None])
         + np.abs(tables.perim_y - by[:, None]))
    ranked = np.argsort(d, axis=1, kind="stable").tolist()
    free = [capacity] * len(tables.perimeter)
    pads: list[int] = []
    slots: list[int] = []
    for i, candidates in enumerate(ranked):
        for idx in candidates:
            if free[idx]:
                break
        else:
            raise _OutOfPads(i)
        pads.append(idx)
        slots.append(capacity - free[idx])
        free[idx] -= 1
    return pads, slots
