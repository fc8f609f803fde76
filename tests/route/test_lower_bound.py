"""The route search's lower bound is sound: admissible and consistent.

Both route loops run A* with ``h_t(n) = ASTAR_FAC * (gap_x + gap_y)``,
each gap the tiles between node ``n``'s extent box and target ``t``'s
tile, infinite at an input pin of another tile
(``pathfinder._lower_bounds``; ``_search.c`` computes the same
numbers, which ``test_native_context.py`` holds bit for bit).  A*
returns a cheapest path only while ``h`` never overestimates, and pops
each node once at its shortest distance only while ``h`` is consistent:
``h_t(u) <= cost(v) + h_t(v)`` on every edge ``u -> v``.  Every cost is
at least the node's base cost, so

- (a) a property over the fabrics the workloads build checks
  ``base_cost >= 1.0`` and the consistency inequality on base costs
  for every CSR edge and every SINK target, so a longer wire or a
  cheaper node fails here instead of silently losing optimality, and
  that a node with an infinite bound can enter only its own tile's
  sinks;
- (b) a plain Dijkstra written here, on the same folded costs, mask and
  edge row, finds the same path cost as every A* search of congested,
  fractional-cost and defect-map routes.
"""

import heapq
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.compiled import (
    KIND_SINK,
    CompiledRRG,
    build_flat,
    flat_rrg_for,
)
from repro.arch.params import ArchParams
from repro.netlist.techmap import tech_map
from repro.place.placer import place
from repro.reliability import DefectMap
from repro.route import pathfinder
from repro.route.pathfinder import route_context_compiled
from repro.workloads.generators import random_dag


def _fabrics():
    """The grids, widths, Fc and double fractions of the sweep, yield,
    map8 and jobs workloads, and the space between them."""
    fc = st.floats(0.3, 1.0)
    return st.builds(
        ArchParams,
        cols=st.integers(5, 7), rows=st.integers(5, 7),
        channel_width=st.integers(4, 12),
        double_fraction=st.one_of(st.sampled_from((0.0, 0.5, 1.0)),
                                  st.floats(0.0, 1.0)),
        fc_in=fc, fc_out=fc, io_capacity=st.integers(2, 4),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(params=_fabrics())
def test_bound_is_consistent_on_every_edge(params):
    c = build_flat(params)
    assert (c.base_cost >= 1.0).all()
    src = np.repeat(np.arange(c.n_nodes), np.diff(c.edge_start))
    dst = c.edge_dst
    sinks = np.flatnonzero(c.node_kind == KIND_SINK)
    assert sinks.size
    # h depends on the target's tile only: one check per distinct tile
    tiles = {(int(c.xlo[t]), int(c.ylo[t])): int(t) for t in sinks}
    for target in tiles.values():
        h = pathfinder._lower_bounds(c, target)
        assert h[target] == 0.0
        assert (h >= 0.0).all()
        # inf <= inf holds: an edge between unreachable nodes is fine
        bad = ~(h[src] <= c.base_cost[dst] + h[dst])
        assert not bad.any(), (params, target, np.flatnonzero(bad)[:5])
        # an infinite bound is exact: every edge out of such a node
        # enters a SINK of its own tile, never a target elsewhere
        never = np.isinf(h)
        assert never.any()
        out = never[src]
        assert (c.node_kind[dst[out]] == KIND_SINK).all()
        assert (c.xlo[dst[out]] == c.xlo[src[out]]).all()
        assert (c.ylo[dst[out]] == c.ylo[src[out]]).all()
        assert not never[sinks[(c.xlo[sinks] == c.xlo[target])
                               & (c.ylo[sinks] == c.ylo[target])]].any()


def _dijkstra(c, eff, tree_nodes, target, mask, edst):
    """The cheapest cost from the tree to ``target``, or ``None``."""
    dist = {n: 0.0 for n in tree_nodes}
    heap = [(0.0, n) for n in tree_nodes]
    heapq.heapify(heap)
    while heap:
        d, nid = heapq.heappop(heap)
        if d > dist[nid]:
            continue
        if nid == target:
            return d
        for e in range(c.edge_start[nid], c.edge_start[nid + 1]):
            nxt = int(edst[e])
            if e >= c.edge_mid[nid]:
                if nxt != target:
                    continue
            elif mask is not None and not mask[nxt]:
                continue
            nd = d + eff[nxt]
            if nxt not in dist or nd < dist[nxt]:
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return None


@pytest.fixture
def checked(monkeypatch):
    """Patches a checker around the Python loop's A* search (which
    moves the route onto the Python loop): every search's path cost
    must equal a plain Dijkstra's.  Yields the list of checked
    searches."""
    kernel = pathfinder._search
    searches = []

    def search(c, state, tree_nodes, target, scratch, mask, edst):
        path = kernel(c, state, tree_nodes, target, scratch, mask, edst)
        want = _dijkstra(c, state.eff.tolist(), tree_nodes, target, mask,
                         edst)
        if path is None:
            assert want is None
        else:
            cost = sum(float(state.eff[n]) for n in path[1:])
            assert cost == pytest.approx(want, rel=1e-12, abs=0.0)
        searches.append(path is not None)
        return path

    monkeypatch.setattr(pathfinder, "_search", search)
    return searches


def _congested():
    params = ArchParams(cols=6, rows=6, channel_width=4, io_capacity=4)
    netlist = tech_map(random_dag(6, 18, 6, seed=2), k=4)
    return flat_rrg_for(params), netlist, place(netlist, params, seed=2)


class TestSearchesAreOptimal:
    def test_congested_context(self, checked):
        c, netlist, pl = _congested()
        rr = route_context_compiled(c, netlist, pl)
        assert rr.iterations > 1
        assert len(checked) >= 30

    def test_fractional_base_costs(self, checked):
        c, netlist, pl = _congested()
        arrays = {
            name: getattr(c, name)
            for name, p in inspect.signature(
                CompiledRRG._from_arrays).parameters.items()
            if p.kind is p.KEYWORD_ONLY
        }
        rng = np.random.default_rng(5)
        arrays["base_cost"] = 1.0 + rng.random(c.n_nodes) / 3.0
        skewed = CompiledRRG._from_arrays(c.params, **arrays)
        route_context_compiled(skewed, netlist, pl)
        assert len(checked) >= 30

    def test_defect_maps(self, checked):
        params = ArchParams(cols=6, rows=6, channel_width=8, io_capacity=4)
        c = flat_rrg_for(params)
        netlist = tech_map(random_dag(5, 12, 4, seed=3), k=4)
        pl = place(netlist, params, seed=2, effort=0.3)
        for rate in (0.01, 0.03, 0.05):
            dm = DefectMap.sample(c, rate, seed=9, logic_rate=0.0)
            assert dm.switch_defects.size
            route_context_compiled(c, netlist, pl, defects=dm,
                                   max_iterations=25)
        assert len(checked) >= 30
