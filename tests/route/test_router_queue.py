"""The router's search kernels against an independent binary-heap oracle.

Each kernel runs one A* search: the native context route on a binary
heap, or without a C compiler the Python loop on ``heapq``, both keyed
``(g + h, -g, node)`` with ``h`` the tile gap to the target times
``ASTAR_FAC``.  The key never ties, so any correct heap pops the same
order.  Dead switches reach the kernel as self-loops in a lowered copy
of ``edge_dst``.

The oracle below is a plain binary-heap A* that reads ``c.edge_dst``,
computes its own bound from the node extents and skips the defect
map's ``switch_defects`` itself, so it shares no code with the
kernels, their bound or the self-loop lowering.  These tests patch it
over ``pathfinder._search``, the Python loop's search (which moves the
route onto the Python loop), and pin that the routes (not just the
wirelengths) are identical — including congested runs whose escalated
costs spread distances far apart, and defect maps with dead switches.
They also pin that the targeted congestion re-price reproduces the
whole-graph refresh bit-for-bit.
"""

import heapq

import numpy as np
import pytest

from repro.arch.compiled import flat_rrg_for
from repro.arch.params import ArchParams
from repro.netlist.techmap import tech_map
from repro.place.placer import place
from repro.route import pathfinder
from repro.route.pathfinder import _FlatCongestion, route_context_compiled
from repro.reliability.defect_map import DefectMap
from repro.workloads.generators import crc_step, random_dag, ripple_adder

#: Narrow channels force congestion iterations; wide ones resolve in
#: one pass — both matter (late iterations price nodes very high, so
#: the bound is a small part of the key).
CASES = [
    ("adder-tight", ArchParams(cols=5, rows=5, channel_width=5,
                               io_capacity=4), lambda: ripple_adder(3)),
    ("random-tight", ArchParams(cols=6, rows=6, channel_width=6,
                                io_capacity=4),
     lambda: random_dag(5, 14, 4, seed=11)),
    ("crc-wide", ArchParams(cols=6, rows=6, channel_width=10,
                            io_capacity=4), lambda: crc_step(6)),
]


def heap_search(dead_switches=()):
    """A binary-heap A* with the kernel's signature and results.

    Ignores the ``edst`` it is handed: it walks ``c.edge_dst`` and
    skips the edge ids in ``dead_switches`` on its own.
    """
    dead = frozenset(dead_switches)

    def search(c, state, tree_nodes, target, scratch, mask, edst):
        eff = state.eff
        tx, ty = int(c.xlo[target]), int(c.ylo[target])

        def h(n):
            gx = max(0, int(c.xlo[n]) - tx, tx - int(c.xhi[n]))
            gy = max(0, int(c.ylo[n]) - ty, ty - int(c.yhi[n]))
            return pathfinder.ASTAR_FAC * (gx + gy)

        dist = {n: 0.0 for n in tree_nodes}
        prev = {}
        heap = [(h(n), -0.0, n) for n in tree_nodes]
        heapq.heapify(heap)
        while heap:
            _f, g, nid = heapq.heappop(heap)
            d = -g
            if d > dist[nid]:
                continue
            if nid == target:
                path = [nid]
                while path[-1] not in tree_nodes:
                    path.append(prev[path[-1]])
                return path[::-1]
            for e in range(c.edge_start[nid], c.edge_start[nid + 1]):
                nxt = c.edge_dst[e]
                if e in dead:
                    continue
                if e >= c.edge_mid[nid]:  # SINK: only the target enters
                    if nxt != target:
                        continue
                elif mask is not None and not mask[nxt]:
                    continue
                nd = d + eff[nxt]
                if nxt not in dist or nd < dist[nxt]:
                    dist[nxt] = nd
                    prev[nxt] = nid
                    heapq.heappush(heap, (nd + h(nxt), -nd, nxt))
        return None

    return search


def _route(params, circuit, **kw):
    netlist = tech_map(circuit(), k=4)
    c = flat_rrg_for(params)
    pl = place(netlist, params, seed=2, effort=0.3)
    return route_context_compiled(c, netlist, pl, **kw)


def _assert_identical(a, b):
    assert a.iterations == b.iterations
    assert set(a.nets) == set(b.nets)
    for name, net in a.nets.items():
        other = b.nets[name]
        assert other.nodes == net.nodes, name
        assert other.edges == net.edges, name
        assert other.sink_paths == net.sink_paths, name


class TestQueueEquivalence:
    @pytest.mark.parametrize("name,params,circuit", CASES)
    def test_dial_routes_bit_identical_to_heap(
        self, name, params, circuit, monkeypatch
    ):
        dial = _route(params, circuit)
        monkeypatch.setattr(pathfinder, "_search", heap_search())
        heap = _route(params, circuit)
        _assert_identical(dial, heap)

    def test_dial_with_defects_matches_heap(self, monkeypatch):
        params = ArchParams(cols=6, rows=6, channel_width=8, io_capacity=4)
        netlist = tech_map(random_dag(5, 12, 4, seed=3), k=4)
        c = flat_rrg_for(params)
        pl = place(netlist, params, seed=2, effort=0.3)
        kernel = pathfinder._search
        for rate in (0.01, 0.03, 0.05):
            dm = DefectMap.sample(c, rate, seed=9, logic_rate=0.0)
            assert dm.switch_defects.size
            monkeypatch.setattr(pathfinder, "_search", kernel)
            dial = route_context_compiled(c, netlist, pl, defects=dm)
            monkeypatch.setattr(
                pathfinder, "_search", heap_search(dm.switch_defects.tolist())
            )
            heap = route_context_compiled(c, netlist, pl, defects=dm)
            _assert_identical(dial, heap)
            for net in heap.nets.values():
                codes = [a * c.n_nodes + b for a, b in net.edges]
                assert np.intersect1d(codes, dm.bad_edge_codes).size == 0


class TestTargetedReprice:
    """``next_iteration``'s pressured-only re-price must equal the
    whole-graph refresh after any usage/history trajectory."""

    def _mirror_states(self, c):
        return _FlatCongestion(c), _FlatCongestion(c)

    def test_escalation_matches_full_refresh(self):
        params = ArchParams(cols=5, rows=5, channel_width=6, io_capacity=4)
        c = flat_rrg_for(params)
        rng = np.random.default_rng(4)
        a, b = self._mirror_states(c)
        wires = c.wire_node_ids()
        for _ in range(4):
            nodes = set(rng.choice(wires, size=30, replace=False).tolist())
            a.add(nodes)
            b.add(nodes)
            drop = set(list(nodes)[:10])
            a.remove(drop)
            b.remove(drop)
            # a: the production escalation (targeted re-price)
            a.next_iteration()
            # b: same arithmetic, whole-graph refresh
            b.bump_history()
            b.pres_fac *= pathfinder.PRES_FAC_MULT
            b._refresh_all()
            assert a.eff.dtype == b.eff.dtype == np.float64
            assert np.array_equal(a.eff, b.eff)
            assert a.overused_ids == b.overused_ids
            assert a.pressured_ids >= a.overused_ids

    def test_defect_nodes_stay_infinite(self):
        params = ArchParams(cols=5, rows=5, channel_width=6, io_capacity=4)
        c = flat_rrg_for(params)
        dm = DefectMap.sample(c, 0.05, seed=1)
        state = _FlatCongestion(c, defects=dm)
        dead = np.flatnonzero(~dm.node_ok).tolist()
        assert dead, "defect sample produced no dead nodes"
        for _ in range(3):
            state.next_iteration()
            assert all(state.eff[n] == float("inf") for n in dead)
