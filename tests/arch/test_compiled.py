"""Tests for the compiled flat-array RRG."""

import numpy as np
import pytest

from repro.arch.compiled import (
    EDGE_KINDS,
    NODE_KIND_INDEX,
    NODE_KINDS,
    CompiledRRG,
    clear_rrg_cache,
    compile_rrg,
    compiled_rrg_for,
)
from repro.arch.params import ArchParams
from repro.arch.rrg import NodeKind, build_rrg


@pytest.fixture(scope="module")
def graphs():
    params = ArchParams(cols=4, rows=3, channel_width=6, io_capacity=2)
    g = build_rrg(params)
    return params, g, compile_rrg(g)


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
        _, g, c = graphs
        assert c.lb_sink is g.lb_sink
        assert c.lb_source is g.lb_source
        assert c.io_sink is g.io_sink
        assert c.io_source is g.io_source


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
    def test_compile_memoised_on_graph(self, graphs):
        _, g, c = graphs
        assert compile_rrg(g) is c

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
        from repro.arch.compiled import flat_rrg_for

        params = ArchParams(cols=4, rows=4, channel_width=6, io_capacity=2)
        flat = flat_rrg_for(params)
        full = compiled_rrg_for(params)
        assert flat.source is None and full.source is not None
        assert flat.n_nodes == full.n_nodes
        for row in ("edge_start", "edge_mid", "edge_dst"):
            a, b = getattr(flat, row), getattr(full, row)
            assert a.dtype == b.dtype == np.int32, row
            assert a.tobytes() == b.tobytes(), row
        assert flat.edge_kind == full.edge_kind
        assert flat.node_kind == full.node_kind
        assert flat.base_cost == full.base_cost
        assert flat.lb_sink == full.lb_sink
        assert flat.io_source == full.io_source

    def test_flat_cache_hits(self):
        from repro.arch.compiled import flat_rrg_for

        params = ArchParams(cols=3, rows=3, channel_width=4)
        assert flat_rrg_for(params) is flat_rrg_for(params)

    def test_node_name_without_source(self):
        from repro.arch.compiled import flat_rrg_for

        params = ArchParams(cols=3, rows=3, channel_width=4)
        flat = flat_rrg_for(params)
        full = compiled_rrg_for(params)
        assert full.node_name(0) == full.source.nodes[0].name
        assert "node 0" in flat.node_name(0)

    def test_flat_routes_and_times_like_full(self):
        """Routing + STA on a stripped substrate == the full substrate."""
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
        full = compiled_rrg_for(params)
        rr_flat = route_context_compiled(flat, net, pl)
        rr_full = route_context_compiled(full, net, pl)
        for name in rr_full.nets:
            assert rr_flat.nets[name].nodes == rr_full.nets[name].nodes
        assert rr_flat.wirelength(flat) == rr_full.wirelength(full)
        # compiled STA == object-graph STA, bit for bit
        assert critical_path(flat, net, rr_flat, pl) == critical_path(
            full.source, net, rr_full, pl
        )
