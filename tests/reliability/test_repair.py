"""Tests for the repair escalation ladder and defect-aware routing."""

import copy
import pickle

import numpy as np
import pytest

from repro.api import ExecutionConfig, Session, YieldRequest
from repro.arch.compiled import build_flat, flat_rrg_for
from repro.arch.geometry import Coord
from repro.arch.params import ArchParams
from repro.netlist.techmap import tech_map
from repro.place.placer import place
from repro.reliability import (
    DefectMap,
    RepairLevel,
    build_golden,
    dirty_net_names,
    placement_blocked,
    repair_mapping,
)
from repro.reliability import repair as repair_mod
from repro.reliability.repair import GoldenMapping, RepairOutcome
from repro.route import pathfinder
from repro.route.pathfinder import route_context_compiled, route_context_warm
from repro.utils.telemetry import Telemetry, collecting
from repro.workloads.generators import ripple_adder
from repair_oracle import repair_from_scratch

PARAMS = ArchParams(cols=6, rows=6, channel_width=8, io_capacity=4)
MAX_ITERS = 25


@pytest.fixture(scope="module")
def mapping():
    c = flat_rrg_for(PARAMS)
    netlist = tech_map(ripple_adder(4), k=4)
    placement = place(netlist, PARAMS, seed=0, effort=0.3)
    golden = build_golden(c, netlist, placement, MAX_ITERS)
    assert golden is not None
    return c, netlist, placement, golden


def wire_on_route(c, golden):
    """A wire node some golden route actually uses."""
    for net in golden.routes.nets.values():
        for nid in sorted(net.nodes):
            if c.is_wire(nid):
                return nid
    raise AssertionError("no wire in any golden route")


class TestDefectAwareRouting:
    def test_routes_avoid_dead_wires(self, mapping):
        c, netlist, placement, golden = mapping
        dm = DefectMap.from_defects(c, wire_nodes=[wire_on_route(c, golden)])
        rr = route_context_compiled(
            c, netlist, placement, max_iterations=MAX_ITERS, defects=dm
        )
        for net in rr.nets.values():
            assert all(dm.node_ok[n] for n in net.nodes)

    def test_routes_avoid_dead_switches(self, mapping):
        c, netlist, placement, golden = mapping
        # kill every switch edge some golden route traverses
        used = set()
        for net in golden.routes.nets.values():
            used |= net.edges
        src = c.edge_src_ids()
        bad = [
            int(e) for e in c.switch_edge_ids().tolist()
            if (int(src[e]), c.edge_dst[e]) in used
        ][:3]
        assert bad
        dm = DefectMap.from_defects(c, switch_edges=bad)
        rr = route_context_compiled(
            c, netlist, placement, max_iterations=MAX_ITERS, defects=dm
        )
        for net in rr.nets.values():
            codes = [a * c.n_nodes + b for a, b in net.edges]
            assert np.intersect1d(codes, dm.bad_edge_codes).size == 0

    def test_dirty_net_detection(self, mapping):
        c, netlist, placement, golden = mapping
        nid = wire_on_route(c, golden)
        dm = DefectMap.from_defects(c, wire_nodes=[nid])
        dirty = dirty_net_names(golden.routes, dm)
        assert dirty
        for name in dirty:
            assert nid in golden.routes.nets[name].nodes

    def test_placement_blocked_detection(self, mapping):
        c, netlist, placement, golden = mapping
        used_tile = next(iter(placement.cells.values()))
        dm = DefectMap.from_defects(c, logic_tiles=[(used_tile.x, used_tile.y)])
        assert placement_blocked(placement, dm)
        free = next(
            t for t in (Coord(x, y) for x in range(PARAMS.cols)
                        for y in range(PARAMS.rows))
            if t not in placement.cells.values()
        )
        dm2 = DefectMap.from_defects(c, logic_tiles=[(free.x, free.y)])
        assert not placement_blocked(placement, dm2)


class TestRepairLadder:
    def test_clean_die_needs_no_repair(self, mapping):
        c, netlist, placement, golden = mapping
        dm = DefectMap.from_defects(c)
        out = repair_mapping(c, netlist, golden, dm, max_iterations=MAX_ITERS)
        assert out.level is RepairLevel.NONE
        assert out.routed
        assert out.wirelength == golden.wirelength
        assert out.critical_path == golden.critical_path

    def test_defect_off_route_needs_no_repair(self, mapping):
        c, netlist, placement, golden = mapping
        used = set()
        for net in golden.routes.nets.values():
            used |= net.nodes
        spare = next(
            int(n) for n in c.wire_node_ids().tolist() if n not in used
        )
        dm = DefectMap.from_defects(c, wire_nodes=[spare])
        out = repair_mapping(c, netlist, golden, dm, max_iterations=MAX_ITERS)
        assert out.level is RepairLevel.NONE

    def test_wire_defect_routes_around(self, mapping):
        c, netlist, placement, golden = mapping
        dm = DefectMap.from_defects(c, wire_nodes=[wire_on_route(c, golden)])
        out = repair_mapping(c, netlist, golden, dm, max_iterations=MAX_ITERS)
        assert out.level is RepairLevel.ROUTE_AROUND
        assert out.routed
        assert out.dirty_nets >= 1

    def test_dead_logic_site_forces_replace(self, mapping):
        c, netlist, placement, golden = mapping
        tile = next(iter(placement.cells.values()))
        dm = DefectMap.from_defects(c, logic_tiles=[(tile.x, tile.y)])
        out = repair_mapping(c, netlist, golden, dm, max_iterations=MAX_ITERS)
        assert out.level is RepairLevel.REPLACE
        assert out.routed

    def test_replace_avoids_the_dead_tile(self, mapping):
        c, netlist, placement, golden = mapping
        tile = next(iter(placement.cells.values()))
        dm = DefectMap.from_defects(c, logic_tiles=[(tile.x, tile.y)])
        pl = place(
            netlist, PARAMS, seed=0, effort=0.3, forbidden=dm.bad_tiles
        )
        assert tile not in pl.cells.values()

    def test_hopeless_die_fails(self, mapping):
        c, netlist, placement, golden = mapping
        dm = DefectMap.from_defects(
            c, wire_nodes=c.wire_node_ids().tolist()
        )
        out = repair_mapping(c, netlist, golden, dm, max_iterations=MAX_ITERS)
        assert out.level is RepairLevel.FAIL
        assert not out.routed

    def test_outcome_overheads(self, mapping):
        c, netlist, placement, golden = mapping
        dm = DefectMap.from_defects(c, wire_nodes=[wire_on_route(c, golden)])
        out = repair_mapping(c, netlist, golden, dm, max_iterations=MAX_ITERS)
        wl, cp = out.overheads(golden)
        assert wl >= 0.9  # a detour can only cost wirelength (tiny slack
        assert cp > 0.0   # for equal-length alternates)
        d = out.to_dict()
        assert d["level"] == out.level.name.lower()
        assert d["routed"] is True

    def test_overheads_degenerate_golden(self, mapping):
        """A zero-wirelength / zero-delay golden reports the repaired
        absolute values, not a flat 1.0 (or a ZeroDivisionError)."""
        _, _, placement, golden = mapping
        degenerate = GoldenMapping(placement, golden.routes, 0, 0.0)
        out = RepairOutcome(
            RepairLevel.ROUTE_AROUND, routed=True,
            wirelength=17, critical_path=2.5,
        )
        assert out.overheads(degenerate) == (17.0, 2.5)
        unrouted = RepairOutcome(RepairLevel.FAIL, routed=False)
        assert unrouted.overheads(degenerate) == (0.0, 0.0)
        assert unrouted.overheads(golden) == (0.0, 0.0)


class TestIncrementalRepair:
    """The delta-reroute ladder vs the from-scratch reference."""

    RATES = (0.02, 0.06)

    def test_verdicts_agree_with_from_scratch(self, mapping):
        """Incremental repair may pick different (equally valid)
        routes, but the ladder's verdicts are the physics: both modes
        must reach the same level on every die."""
        c, netlist, placement, golden = mapping
        for rate in self.RATES:
            for seed in range(8):
                dm = DefectMap.sample(c, rate, seed=seed)
                inc = repair_mapping(
                    c, netlist, golden, dm, max_iterations=MAX_ITERS,
                )
                ref = repair_from_scratch(
                    c, netlist, golden, dm, max_iterations=MAX_ITERS,
                )
                assert inc.level is ref.level, (rate, seed)
                assert inc.routed == ref.routed, (rate, seed)
                assert inc.dirty_nets == ref.dirty_nets, (rate, seed)
                assert inc.n_defects == ref.n_defects, (rate, seed)

    def test_incremental_repair_deterministic(self, mapping):
        c, netlist, placement, golden = mapping
        dm = DefectMap.sample(c, 0.05, seed=11, switch_rate=0.0,
                              logic_rate=0.0)
        a = repair_mapping(c, netlist, golden, dm, max_iterations=MAX_ITERS)
        b = repair_mapping(c, netlist, golden, dm, max_iterations=MAX_ITERS)
        assert a.to_dict() == b.to_dict()


class TestGoldenEndpoints:
    """The incremental ladder reuses the golden's cached net endpoints
    instead of extracting them again on every warm reroute."""

    RATES = (0.02, 0.04, 0.06)

    def _dies(self, c):
        return [DefectMap.sample(c, rate, seed=seed, logic_rate=0.0)
                for rate in self.RATES for seed in range(6)]

    def test_route_around_trials_skip_endpoint_extraction(self, mapping,
                                                          monkeypatch):
        c, netlist, placement, _ = mapping
        dies = self._dies(c)
        fresh = build_golden(c, netlist, placement, MAX_ITERS)
        want = []
        for dm in dies:
            tel = Telemetry("uncached")
            with collecting(tel):
                out = repair_mapping(c, netlist, fresh, dm,
                                     max_iterations=MAX_ITERS)
            fresh._endpoints = None  # every trial extracts anew
            want.append((out.to_dict(), tel.counters))
        golden = build_golden(c, netlist, placement, MAX_ITERS)
        golden.endpoints(c, netlist)
        calls = []
        real = pathfinder._net_endpoints

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pathfinder, "_net_endpoints", counting)
        monkeypatch.setattr(repair_mod, "_net_endpoints", counting)
        got = []
        for dm in dies:
            tel = Telemetry("cached")
            with collecting(tel):
                out = repair_mapping(c, netlist, golden, dm,
                                     max_iterations=MAX_ITERS)
            got.append((out.to_dict(), tel.counters))
        levels = [out["level"] for out, _ in got]
        assert "route_around" in levels
        assert set(levels) <= {"none", "route_around"}
        assert calls == []
        assert got == want

    def test_warm_reroute_routes_unchanged(self, mapping):
        c, netlist, placement, golden = mapping
        dm = DefectMap.from_defects(c, wire_nodes=[wire_on_route(c, golden)])
        dirty = dirty_net_names(golden.routes, dm)
        runs = [
            route_context_warm(c, netlist, placement, golden.routes, dirty,
                               defects=dm, max_iterations=MAX_ITERS,
                               endpoints=endpoints)
            for endpoints in (None, golden.endpoints(c, netlist))
        ]
        a, b = runs
        assert a.iterations == b.iterations
        assert list(a.nets) == list(b.nets)
        for name, net in a.nets.items():
            other = b.nets[name]
            assert (net.source, net.sinks, net.reused) == \
                (other.source, other.sinks, other.reused), name
            assert list(net.sink_paths.items()) == \
                list(other.sink_paths.items()), name

    def test_cache_follows_the_substrate_and_netlist(self, mapping):
        c, netlist, placement, _ = mapping
        golden = build_golden(c, netlist, placement, MAX_ITERS)
        first = golden.endpoints(c, netlist)
        assert golden.endpoints(c, netlist) is first
        assert first == pathfinder._net_endpoints(netlist, placement, c)
        twin = copy.deepcopy(netlist)
        again = golden.endpoints(c, twin)
        assert again is not first and again == first
        assert golden.endpoints(c, twin) is again
        rebuilt = golden.endpoints(build_flat(PARAMS), twin)
        assert rebuilt is not again and rebuilt == first
        assert pickle.loads(pickle.dumps(golden))._endpoints is None


class TestRouteTrees:
    @pytest.mark.skipif(pathfinder.route_kernel() != "native",
                        reason="the Python loop searches over node sets")
    def test_yield_campaign_builds_no_route_sets(self, monkeypatch):
        """Trials read the route trees' arrays: no set or dict view of
        any route is built on the native path."""
        def refuse(self):
            raise AssertionError("a route view was built")

        for view in ("nodes", "edges", "sink_paths"):
            monkeypatch.setattr(pathfinder.RouteTree, view, property(refuse))
        request = YieldRequest(
            workload="random", grid=7, width=8, rates=(0.02, 0.05),
            trials=3, model="uniform", execution=ExecutionConfig(seed=3))
        rows = list(Session().stream(request))
        assert [row.trials for row in rows] == [3, 3]

    def test_golden_delay_memo_does_not_pickle(self, mapping):
        c, netlist, placement, _ = mapping
        golden = build_golden(c, netlist, placement, MAX_ITERS)
        assert all(net.tree.delay_memo is not None
                   for net in golden.routes.nets.values())
        back = pickle.loads(pickle.dumps(golden))
        assert all(net.tree.delay_memo is None
                   for net in back.routes.nets.values())
        assert back.routes == golden.routes


class TestVectorisedDetection:
    """Flat-array dirty/blocked detection == the brute-force walk."""

    def test_dirty_nets_match_brute_force(self, mapping):
        c, netlist, placement, golden = mapping
        for seed in range(12):
            dm = DefectMap.sample(c, 0.04, seed=seed)
            src = c.edge_src_ids()
            bad_pairs = {
                (int(src[e]), int(c.edge_dst[e]))
                for e in dm.switch_defects.tolist()
            }
            brute = set()
            for name, net in golden.routes.nets.items():
                bad_nodes = any(not dm.node_ok[n] for n in net.nodes)
                bad_edges = any(e in bad_pairs for e in net.edges)
                if bad_nodes or bad_edges:
                    brute.add(name)
            assert dirty_net_names(golden.routes, dm) == brute, seed
            assert dirty_net_names(
                golden.routes, dm, flat=golden.flat(c)
            ) == brute, seed

    def test_placement_blocked_matches_brute_force(self, mapping):
        c, netlist, placement, golden = mapping
        for seed in range(12):
            dm = DefectMap.sample(c, 0.04, seed=seed)
            brute = any(
                coord in dm.bad_tiles
                for coord in placement.cells.values()
            )
            assert placement_blocked(placement, dm) == brute, seed
