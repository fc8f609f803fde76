"""Tests for the routing-resource graph."""

import pytest

from repro.arch.params import ArchParams
from repro.arch.compiled import EdgeKind, NodeKind
from rrg_oracle import build_rrg
from repro.arch.wires import SegmentKind


@pytest.fixture(scope="module")
def rrg():
    return build_rrg(ArchParams(cols=3, rows=3, channel_width=4,
                                double_fraction=0.5, io_capacity=2))


class TestStructure:
    def test_all_tiles_have_pins(self, rrg):
        p = rrg.params
        geom = p.lut_geometry()
        n_in = geom.base_inputs + geom.max_extra_inputs
        for y in range(p.rows):
            for x in range(p.cols):
                for i in range(n_in):
                    assert (x, y, i) in rrg.lb_ipin
                    assert (x, y, i) in rrg.lb_sink
                assert (x, y, 0) in rrg.lb_source

    def test_perimeter_io(self, rrg):
        assert (0, 0, 0) in rrg.io_source
        assert (1, 1, 0) not in rrg.io_source  # interior tile

    def test_channel_coverage(self, rrg):
        """Every (position, channel, track) is covered by some node."""
        p = rrg.params
        for ychan in range(p.rows + 1):
            for x in range(p.cols):
                for t in range(p.channel_width):
                    assert (x, ychan, t) in rrg.chanx

    def test_double_segments_span_two(self, rrg):
        doubles = [
            n for n in rrg.wire_nodes() if n.seg_kind is SegmentKind.DOUBLE
        ]
        assert doubles
        assert any(n.length == 2 for n in doubles)

    def test_edge_symmetry_for_switches(self, rrg):
        """PASS/BUF switches are bidirectional."""
        for a, edges in enumerate(rrg.out_edges):
            for b, kind in edges:
                if kind in (EdgeKind.PASS, EdgeKind.BUF):
                    assert (a, kind) in rrg.in_edges[a] or any(
                        dst == a and k == kind for dst, k in rrg.out_edges[b]
                    )

    def test_single_tracks_use_pass_switches(self, rrg):
        """RCM tracks connect through SE pass-gates."""
        for a, edges in enumerate(rrg.out_edges):
            na = rrg.nodes[a]
            if na.seg_kind is SegmentKind.SINGLE:
                for b, kind in edges:
                    nb = rrg.nodes[b]
                    if nb.kind in (NodeKind.CHANX, NodeKind.CHANY):
                        assert kind is EdgeKind.PASS

    def test_double_tracks_use_buffers(self, rrg):
        for a, edges in enumerate(rrg.out_edges):
            na = rrg.nodes[a]
            if na.seg_kind is SegmentKind.DOUBLE:
                for b, kind in edges:
                    nb = rrg.nodes[b]
                    if nb.kind in (NodeKind.CHANX, NodeKind.CHANY):
                        assert kind is EdgeKind.BUF


class TestConnectivity:
    def test_source_reaches_sink_somewhere(self, rrg):
        """BFS from an LB source must reach another tile's sink."""
        from collections import deque

        src = rrg.lb_source[(0, 0, 0)]
        target = rrg.lb_sink[(2, 2, 0)]
        seen = {src}
        q = deque([src])
        while q:
            n = q.popleft()
            if n == target:
                break
            for nxt, _ in rrg.out_edges[n]:
                if nxt not in seen:
                    seen.add(nxt)
                    q.append(nxt)
        assert target in seen

    def test_pass_switch_count_positive(self, rrg):
        assert rrg.pass_switch_count() > 0

    def test_describe(self, rrg):
        text = rrg.describe()
        assert "nodes" in text and "edges" in text
