"""Tests for the compiled flat-array RRG, against the object-graph
oracle (``tests/oracles/rrg_oracle.py``)."""

import numpy as np
import pytest

from repro.arch.compiled import (
    EDGE_KINDS,
    NODE_KIND_INDEX,
    NODE_KINDS,
    CompiledRRG,
    NodeKind,
    build_flat,
    clear_rrg_cache,
    compiled_rrg_for,
)
from repro.arch.params import ArchParams
from rrg_oracle import build_rrg, pin_table

PIN_TABLES = ("lb_source", "lb_sink", "io_source", "io_sink")


@pytest.fixture(scope="module")
def graphs():
    params = ArchParams(cols=4, rows=3, channel_width=6, io_capacity=2)
    return params, build_rrg(params), build_flat(params)


class TestStructuralEquivalence:
    def test_node_count(self, graphs):
        _, g, c = graphs
        assert c.n_nodes == g.n_nodes

    def test_edge_count(self, graphs):
        _, g, c = graphs
        assert c.n_edges == g.n_edges

    def test_adjacency_matches_per_node(self, graphs):
        """CSR rows hold exactly the legacy out-edges (as sets: the
        compiled form segregates SINK destinations to the row tail)."""
        _, g, c = graphs
        for nid in range(g.n_nodes):
            lo, hi = c.edge_start[nid], c.edge_start[nid + 1]
            legacy = {(dst, kind) for dst, kind in g.out_edges[nid]}
            compiled = {
                (c.edge_dst[i], EDGE_KINDS[c.edge_kind[i]])
                for i in range(lo, hi)
            }
            assert compiled == legacy

    def test_sink_segregation(self, graphs):
        """Every destination before edge_mid is a non-SINK, after is SINK."""
        _, g, c = graphs
        sink = NODE_KIND_INDEX[NodeKind.SINK]
        for nid in range(g.n_nodes):
            lo, mid, hi = c.edge_start[nid], c.edge_mid[nid], c.edge_start[nid + 1]
            assert all(c.node_kind[c.edge_dst[i]] != sink for i in range(lo, mid))
            assert all(c.node_kind[c.edge_dst[i]] == sink for i in range(mid, hi))

    def test_node_attributes(self, graphs):
        _, g, c = graphs
        for node in g.nodes:
            assert NODE_KINDS[c.node_kind[node.id]] is node.kind
            assert c.node_capacity[node.id] == node.capacity
            assert c.node_length[node.id] == node.length
            assert c.base_cost[node.id] == 1.0 + 0.2 * (node.length - 1)

    def test_extents_cover_wire_span(self, graphs):
        _, g, c = graphs
        for node in g.nodes:
            if node.kind is NodeKind.CHANX:
                assert c.xlo[node.id] == node.pos
                assert c.xhi[node.id] == node.pos + node.length - 1
            elif node.kind is NodeKind.CHANY:
                assert c.ylo[node.id] == node.pos
                assert c.yhi[node.id] == node.pos + node.length - 1
            else:
                assert (c.xlo[node.id], c.ylo[node.id]) == (node.x, node.y)

    def test_pin_lookups_shared(self, graphs):
        """Each ``(tile, pin)`` table holds the oracle's pin dict, with
        -1 exactly where the dict has no key."""
        p, g, c = graphs
        for name in PIN_TABLES:
            ids = getattr(c, f"{name}_ids")
            assert ids.dtype == np.int32, name
            assert np.array_equal(ids, pin_table(getattr(g, name), p)), name


class TestBBoxMask:
    def test_full_box_all_ones(self, graphs):
        p, _, c = graphs
        mask = c.bbox_mask(-1, p.cols, -1, p.rows)
        assert all(mask[i] for i in range(c.n_nodes))

    def test_partial_box_excludes_far_nodes(self, graphs):
        _, g, c = graphs
        mask = c.bbox_mask(0, 1, 0, 1)
        for node in g.nodes:
            if node.kind is NodeKind.IPIN and node.x >= 3:
                assert not mask[node.id]
            if node.kind is NodeKind.IPIN and node.x <= 1 and node.y <= 1:
                assert mask[node.id]


class TestCaching:
    def test_params_cache_shares_instance(self):
        clear_rrg_cache()
        params = ArchParams(cols=3, rows=3, channel_width=4, io_capacity=2)
        a = compiled_rrg_for(params)
        b = compiled_rrg_for(ArchParams(cols=3, rows=3, channel_width=4,
                                        io_capacity=2))
        assert a is b
        assert isinstance(a, CompiledRRG)

    def test_distinct_params_distinct_graphs(self):
        a = compiled_rrg_for(ArchParams(cols=3, rows=3, channel_width=4))
        b = compiled_rrg_for(ArchParams(cols=4, rows=3, channel_width=4))
        assert a is not b
        assert a.params.cols == 3 and b.params.cols == 4

    def test_describe(self, graphs):
        _, _, c = graphs
        assert "CompiledRRG" in c.describe()
        assert "CSR" in c.describe()


class TestFlatSubstrate:
    def test_flat_matches_full_arrays(self):
        """Both cache names serve one substrate, whose arrays equal
        those of a fresh build, and whose pin tables hold the object
        graph's pin dicts."""
        from repro.arch.compiled import flat_rrg_for

        params = ArchParams(cols=4, rows=4, channel_width=6, io_capacity=2)
        flat = flat_rrg_for(params)
        assert flat is compiled_rrg_for(params)
        full = build_flat(params)
        assert flat is not full
        assert flat.n_nodes == full.n_nodes
        for row in ("edge_start", "edge_mid", "edge_dst"):
            a, b = getattr(flat, row), getattr(full, row)
            assert a.dtype == b.dtype == np.int32, row
            assert a.tobytes() == b.tobytes(), row
        assert np.array_equal(flat.edge_kind, full.edge_kind)
        assert np.array_equal(flat.node_kind, full.node_kind)
        assert np.array_equal(flat.base_cost, full.base_cost)
        g = build_rrg(params)
        for name in ("lb_sink", "io_source"):
            ids = getattr(flat, f"{name}_ids")
            assert np.array_equal(ids, pin_table(getattr(g, name), params))

    def test_flat_cache_hits(self):
        from repro.arch.compiled import flat_rrg_for

        params = ArchParams(cols=3, rows=3, channel_width=4)
        assert flat_rrg_for(params) is flat_rrg_for(params)

    def test_node_name_without_source(self):
        from repro.arch.compiled import flat_rrg_for

        params = ArchParams(cols=3, rows=3, channel_width=4)
        flat = flat_rrg_for(params)
        assert flat.node_name(0) == "node 0 (chanx)"

    def test_flat_routes_and_times_like_full(self):
        """Routing + STA on the substrate == the legacy router on the
        object graph."""
        from legacy_router import route_context_legacy, wirelength
        from repro.arch.compiled import flat_rrg_for
        from repro.netlist.techmap import tech_map
        from repro.place.placer import place
        from repro.route.pathfinder import route_context_compiled
        from repro.route.timing import critical_path
        from repro.workloads.generators import ripple_adder

        params = ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4)
        net = tech_map(ripple_adder(3), k=4)
        pl = place(net, params, seed=0, effort=0.2)
        flat = flat_rrg_for(params)
        g = build_rrg(params)
        rr_flat = route_context_compiled(flat, net, pl)
        rr_full = route_context_legacy(g, net, pl)
        for name in rr_full.nets:
            assert rr_flat.nets[name].nodes == rr_full.nets[name].nodes
        assert rr_flat.wirelength(flat) == wirelength(g, rr_full)
        # identical routes time identically, bit for bit
        assert critical_path(flat, net, rr_flat, pl) == critical_path(
            flat, net, rr_full, pl
        )
