"""Tests for the physical defect models (DefectMap)."""

import numpy as np
import pytest

from repro.arch.compiled import (
    KIND_CHANX,
    KIND_CHANY,
    build_flat,
    flat_rrg_for,
)
from repro.arch.params import ArchParams
from repro.reliability import DefectMap

PARAMS = ArchParams(cols=5, rows=5, channel_width=6, io_capacity=4)


@pytest.fixture(scope="module")
def substrate():
    return flat_rrg_for(PARAMS)


class TestCandidates:
    def test_wire_candidates_are_exactly_the_channels(self, substrate):
        wires = substrate.wire_node_ids()
        kinds = [substrate.node_kind[n] for n in wires.tolist()]
        assert all(k in (KIND_CHANX, KIND_CHANY) for k in kinds)
        expected = sum(
            1 for k in substrate.node_kind if k in (KIND_CHANX, KIND_CHANY)
        )
        assert len(wires) == expected

    def test_switch_candidates_exclude_internal_edges(self, substrate):
        from repro.arch.compiled import EDGE_KIND_INDEX
        from repro.arch.rrg import EdgeKind

        internal = EDGE_KIND_INDEX[EdgeKind.INTERNAL]
        switches = substrate.switch_edge_ids()
        assert all(
            substrate.edge_kind[e] != internal for e in switches.tolist()
        )
        assert len(switches) > 0

    def test_edge_src_matches_csr(self, substrate):
        src = substrate.edge_src_ids()
        for nid in (0, substrate.n_nodes // 2, substrate.n_nodes - 1):
            lo, hi = substrate.edge_start[nid], substrate.edge_start[nid + 1]
            assert all(src[e] == nid for e in range(lo, hi))

    def test_logic_tiles_cover_the_grid(self, substrate):
        tiles = substrate.logic_tiles()
        assert len(tiles) == PARAMS.cols * PARAMS.rows

    def test_candidates_available_on_stripped_substrate(self):
        c = build_flat(PARAMS.with_(channel_width=4))
        assert c.source is None
        assert len(c.wire_node_ids()) > 0
        assert len(c.switch_edge_ids()) > 0
        assert len(c.logic_tiles()) == PARAMS.n_tiles


class TestUniformModel:
    def test_zero_rate_is_clean(self, substrate):
        dm = DefectMap.sample(substrate, 0.0, seed=1)
        assert dm.is_clean
        assert dm.n_defects == 0
        assert dm.node_ok.all()
        assert dm.live_edge_dst(substrate) is substrate.edge_dst

    def test_full_wire_rate_kills_every_wire(self, substrate):
        dm = DefectMap.sample(
            substrate, 1.0, seed=1, switch_rate=0.0, logic_rate=0.0
        )
        wires = substrate.wire_node_ids()
        assert len(dm.wire_defects) == len(wires)
        assert not dm.node_ok[wires].any()
        assert not dm.switch_defects and not dm.bad_tiles

    def test_seeded_determinism(self, substrate):
        a = DefectMap.sample(substrate, 0.05, seed=42)
        b = DefectMap.sample(substrate, 0.05, seed=42)
        assert a.wire_defects == b.wire_defects
        assert a.switch_defects == b.switch_defects
        assert a.bad_tiles == b.bad_tiles
        c = DefectMap.sample(substrate, 0.05, seed=43)
        assert (
            a.wire_defects != c.wire_defects
            or a.switch_defects != c.switch_defects
        )

    def test_masks_align_with_defect_lists(self, substrate):
        dm = DefectMap.sample(substrate, 0.03, seed=9)
        bad_nodes = np.flatnonzero(~dm.node_ok)
        for nid in dm.wire_defects:
            assert nid in bad_nodes
        assert dm.node_ok_bytes == dm.node_ok.tobytes()
        if dm.switch_defects:
            assert len(dm.bad_edge_pairs) == len(dm.switch_defects)

    def test_dead_switches_lower_to_self_loops(self, substrate):
        dm = DefectMap.sample(substrate, 0.05, seed=9)
        assert dm.switch_defects
        lowered = dm.live_edge_dst(substrate)
        assert lowered is not substrate.edge_dst
        assert dm.live_edge_dst(substrate) is lowered  # cached
        assert len(lowered) == substrate.n_edges
        dead = set(dm.switch_defects)
        src = substrate.edge_src_ids()
        for e, (got, dst) in enumerate(zip(lowered, substrate.edge_dst)):
            assert got == (int(src[e]) if e in dead else dst), e

    def test_logic_defect_masks_lb_endpoints(self, substrate):
        dm = DefectMap.sample(
            substrate, 0.0, seed=2, logic_rate=0.5
        )
        assert dm.bad_tiles
        tile = next(iter(dm.bad_tiles))
        sid = substrate.lb_source[(tile.x, tile.y, 0)]
        kid = substrate.lb_sink[(tile.x, tile.y, 0)]
        assert not dm.node_ok[sid] and not dm.node_ok[kid]

    def test_rejects_unknown_model(self, substrate):
        with pytest.raises(ValueError):
            DefectMap.sample(substrate, 0.1, model="poisson")


class TestClusteredModel:
    def test_seeded_determinism(self, substrate):
        a = DefectMap.sample(substrate, 0.05, seed=5, model="clustered")
        b = DefectMap.sample(substrate, 0.05, seed=5, model="clustered")
        assert a.wire_defects == b.wire_defects
        assert a.switch_defects == b.switch_defects
        assert a.bad_tiles == b.bad_tiles

    def test_nonempty_at_meaningful_rate(self, substrate):
        dm = DefectMap.sample(substrate, 0.05, seed=5, model="clustered")
        assert dm.n_defects > 0

    def test_wire_defects_cluster_spatially(self, substrate):
        """Same expected count, tighter footprint: clustered wire defects
        occupy fewer distinct tiles than an equally-sized uniform draw."""
        uni = DefectMap.sample(
            substrate, 0.2, seed=11, switch_rate=0.0, logic_rate=0.0
        )
        clu = DefectMap.sample(
            substrate, 0.2, seed=11, model="clustered",
            switch_rate=0.0, logic_rate=0.0,
        )

        def tiles_of(dm):
            return {
                (substrate.xlo[n], substrate.ylo[n]) for n in dm.wire_defects
            }

        assert len(clu.wire_defects) > 0
        spread_uni = len(tiles_of(uni)) / max(1, len(uni.wire_defects))
        spread_clu = len(tiles_of(clu)) / max(1, len(clu.wire_defects))
        assert spread_clu <= spread_uni


class TestExplicitMap:
    def test_from_defects_round_trip(self, substrate):
        wire = int(substrate.wire_node_ids()[0])
        edge = int(substrate.switch_edge_ids()[0])
        dm = DefectMap.from_defects(
            substrate, wire_nodes=[wire], switch_edges=[edge],
            logic_tiles=[(1, 1)],
        )
        assert not dm.is_clean
        assert dm.wire_defects == (wire,)
        assert dm.switch_defects == (edge,)
        assert not dm.node_ok[wire]
        d = dm.to_dict()
        assert d["wire_defects"] == 1
        assert d["switch_defects"] == 1
        assert d["logic_defects"] == 1
        assert d["total_defects"] == 3
