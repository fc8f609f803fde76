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
from rrg_oracle import build_rrg

PARAMS = ArchParams(cols=5, rows=5, channel_width=6, io_capacity=4)


@pytest.fixture(scope="module")
def substrate():
    return flat_rrg_for(PARAMS)


@pytest.fixture(scope="module")
def graph():
    """The object-graph oracle of the same device: its pin dicts are
    built independently of the substrate's ``(tile, pin)`` tables."""
    return build_rrg(PARAMS)


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
        from repro.arch.compiled import EDGE_KIND_INDEX, EdgeKind

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
        assert dm.switch_defects.size == 0 and not dm.bad_tiles

    def test_seeded_determinism(self, substrate):
        a = DefectMap.sample(substrate, 0.05, seed=42)
        b = DefectMap.sample(substrate, 0.05, seed=42)
        assert np.array_equal(a.wire_defects, b.wire_defects)
        assert np.array_equal(a.switch_defects, b.switch_defects)
        assert a.bad_tiles == b.bad_tiles
        c = DefectMap.sample(substrate, 0.05, seed=43)
        assert (
            not np.array_equal(a.wire_defects, c.wire_defects)
            or not np.array_equal(a.switch_defects, c.switch_defects)
        )

    def test_masks_align_with_defect_lists(self, substrate):
        dm = DefectMap.sample(substrate, 0.03, seed=9)
        bad_nodes = np.flatnonzero(~dm.node_ok)
        for nid in dm.wire_defects:
            assert nid in bad_nodes
        assert dm.node_ok_bytes == dm.node_ok.tobytes()
        assert dm.switch_defects.size
        assert dm.bad_edge_codes.size == dm.switch_defects.size

    def test_dead_switches_lower_to_self_loops(self, substrate):
        dm = DefectMap.sample(substrate, 0.05, seed=9)
        assert dm.switch_defects.size
        lowered = dm.live_edge_dst(substrate)
        assert lowered is not substrate.edge_dst
        assert dm.live_edge_dst(substrate) is lowered  # cached
        assert len(lowered) == substrate.n_edges
        dead = set(dm.switch_defects.tolist())
        src = substrate.edge_src_ids()
        for e, (got, dst) in enumerate(zip(lowered, substrate.edge_dst)):
            assert got == (int(src[e]) if e in dead else dst), e

    def test_logic_defect_masks_lb_endpoints(self, substrate):
        dm = DefectMap.sample(
            substrate, 0.0, seed=2, logic_rate=0.5
        )
        assert dm.bad_tiles
        tile = next(iter(dm.bad_tiles))
        at = tile.y * PARAMS.cols + tile.x
        sid = substrate.lb_source_ids[at, 0]
        kid = substrate.lb_sink_ids[at, 0]
        assert not dm.node_ok[sid] and not dm.node_ok[kid]

    def test_rejects_unknown_model(self, substrate):
        with pytest.raises(ValueError):
            DefectMap.sample(substrate, 0.1, model="poisson")


class TestClusteredModel:
    def test_seeded_determinism(self, substrate):
        a = DefectMap.sample(substrate, 0.05, seed=5, model="clustered")
        b = DefectMap.sample(substrate, 0.05, seed=5, model="clustered")
        assert np.array_equal(a.wire_defects, b.wire_defects)
        assert np.array_equal(a.switch_defects, b.switch_defects)
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
        assert dm.wire_defects.tolist() == [wire]
        assert dm.switch_defects.tolist() == [edge]
        assert not dm.node_ok[wire]
        d = dm.to_dict()
        assert d["wire_defects"] == 1
        assert d["switch_defects"] == 1
        assert d["logic_defects"] == 1
        assert d["total_defects"] == 3

    def test_repeated_ids_count_once(self, substrate):
        """A resource is dead or it is not: repeats in an explicit list
        are one defect each, like repeated tiles always were."""
        wire = int(substrate.wire_node_ids()[3])
        edge = int(substrate.switch_edge_ids()[9])
        dm = DefectMap.from_defects(
            substrate, wire_nodes=[wire, wire], switch_edges=[edge, edge],
            logic_tiles=[(1, 1), (1, 1)],
        )
        assert dm.n_defects == 3
        assert dm.to_dict() == {
            "model": "explicit", "rate": 0.0, "seed": 0,
            "wire_defects": 1, "switch_defects": 1, "logic_defects": 1,
            "total_defects": 3,
        }
        assert dm.describe() == (
            "DefectMap[explicit] rate=0.0: 1 wires, 1 switches, "
            "1 logic sites"
        )
        assert dm.bad_edge_codes.size == 1


class TestArrayFields:
    """The defect fields are sorted, unique, read-only int64 arrays."""

    MAPS = [("uniform", 0.05, 3), ("clustered", 0.05, 3),
            ("clustered", 0.10, 4), ("uniform", 0.0, 1)]

    @pytest.mark.parametrize("model,rate,seed", MAPS)
    def test_fields_are_sorted_unique_read_only(self, substrate, model,
                                                rate, seed):
        dm = DefectMap.sample(substrate, rate, seed=seed, model=model)
        for ids in (dm.wire_defects, dm.switch_defects, dm.bad_edge_codes):
            assert ids.dtype == np.int64
            assert not ids.flags.writeable
            assert np.array_equal(ids, np.unique(ids))
        with pytest.raises(ValueError):
            dm.wire_defects[:1] = 0

    @pytest.mark.parametrize("model,rate,seed", MAPS)
    def test_edge_codes_are_the_dead_switch_pairs(self, substrate, model,
                                                  rate, seed):
        dm = DefectMap.sample(substrate, rate, seed=seed, model=model)
        src = substrate.edge_src_ids()
        pairs = {(int(src[e]), int(substrate.edge_dst[e]))
                 for e in dm.switch_defects.tolist()}
        n = substrate.n_nodes
        assert dm.bad_edge_codes.tolist() == sorted(
            int(src[e]) * n + int(substrate.edge_dst[e])
            for e in dm.switch_defects.tolist()
        )
        every = src * n + substrate.edge_dst
        dead = dm.edges_dead(every)
        assert {(int(src[e]), int(substrate.edge_dst[e]))
                for e in np.flatnonzero(dead).tolist()} == pairs

    @pytest.mark.parametrize("model,rate,seed", MAPS)
    def test_tile_lowering_matches_pin_dict_walk(self, substrate, graph,
                                                 model, rate, seed):
        dm = DefectMap.sample(substrate, rate, seed=seed, model=model,
                              logic_rate=0.3)
        assert dm.bad_tiles or rate == 0.0
        want = np.ones(substrate.n_nodes, dtype=bool)
        want[dm.wire_defects] = False
        dead = {(t.x, t.y) for t in dm.bad_tiles}
        for index in (graph.lb_source, graph.lb_sink):
            for (x, y, _pin), nid in index.items():
                if (x, y) in dead:
                    want[nid] = False
        assert np.array_equal(dm.node_ok, want)

    def test_off_grid_tiles_mask_nothing(self, substrate):
        dm = DefectMap.from_defects(
            substrate, logic_tiles=[(PARAMS.cols, 0), (-1, 2)])
        assert dm.node_ok.all()
        assert len(dm.bad_tiles) == 2
