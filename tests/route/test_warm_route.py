"""Warm-started (delta-reroute) routing: adoption, salvage, identity."""

import pytest

from repro.arch.compiled import flat_rrg_for
from repro.arch.params import ArchParams
from repro.netlist.techmap import tech_map
from repro.place.placer import place
from repro.reliability import DefectMap, build_golden, dirty_net_names
from repro.route.pathfinder import (
    _healthy_sink_paths,
    net_from_paths,
    route_context_warm,
)
from repro.workloads.generators import random_dag

PARAMS = ArchParams(cols=6, rows=6, channel_width=8, io_capacity=4)
MAX_ITERS = 25


@pytest.fixture(scope="module")
def mapping():
    c = flat_rrg_for(PARAMS)
    netlist = tech_map(
        random_dag(n_inputs=6, n_gates=18, n_outputs=6, seed=3), k=4
    )
    placement = place(netlist, PARAMS, seed=0, effort=0.3)
    golden = build_golden(c, netlist, placement, MAX_ITERS)
    assert golden is not None
    return c, netlist, placement, golden


def _wire_on_multisink_route(c, golden):
    """A wire node used by a net with several sinks (so salvage has
    healthy branches to keep)."""
    for net in golden.routes.nets.values():
        if len(net.sinks) < 2:
            continue
        for nid in sorted(net.nodes):
            if c.is_wire(nid):
                return net.name, nid
    raise AssertionError("no multi-sink routed net uses a wire")


def _warm(c, netlist, placement, golden, dm):
    dirty = dirty_net_names(golden.routes, dm)
    assert dirty, "fixture defect must dirty at least one net"
    return dirty, route_context_warm(
        c, netlist, placement, golden.routes, dirty,
        max_iterations=MAX_ITERS, defects=dm,
    )


class TestWarmRoute:
    def test_valid_routing_with_clean_nets_adopted(self, mapping):
        c, netlist, placement, golden = mapping
        _, nid = _wire_on_multisink_route(c, golden)
        dm = DefectMap.from_defects(c, wire_nodes=[nid])
        dirty, rr = _warm(c, netlist, placement, golden, dm)
        assert set(rr.nets) == set(golden.routes.nets)
        for name, net in rr.nets.items():
            assert nid not in net.nodes, name  # defect avoided everywhere
            for sink in net.sinks:
                assert sink in net.nodes, name
        # every net the defect did not touch rides the golden route
        for name in set(rr.nets) - dirty:
            net = rr.nets[name]
            if net.reused:
                assert net.nodes is golden.routes.nets[name].nodes

    def test_no_overuse_after_warm_reroute(self, mapping):
        c, netlist, placement, golden = mapping
        _, nid = _wire_on_multisink_route(c, golden)
        dm = DefectMap.from_defects(c, wire_nodes=[nid])
        _, rr = _warm(c, netlist, placement, golden, dm)
        usage: dict[int, int] = {}
        for net in rr.nets.values():
            for node in net.nodes:
                usage[node] = usage.get(node, 0) + 1
        cap = c.node_capacity
        for node, used in usage.items():
            assert used <= int(cap[node]), node

    def test_salvage_keeps_healthy_branches(self, mapping):
        c, netlist, placement, golden = mapping
        name, nid = _wire_on_multisink_route(c, golden)
        dm = DefectMap.from_defects(c, wire_nodes=[nid])
        dirty, rr = _warm(c, netlist, placement, golden, dm)
        assert name in dirty
        prior = golden.routes.nets[name]
        kept = _healthy_sink_paths(prior, dm)
        # the defect severed some branch but not all of them
        assert set(kept) < set(prior.sink_paths)
        fresh = rr.nets[name]
        for sink, chain in kept.items():
            # a salvaged chain is adopted verbatim: full source->sink
            assert fresh.sink_paths[sink] == chain
            assert chain[0] == prior.source and chain[-1] == sink

    def test_healthy_chain_rejected_when_prefix_broken(self):
        """A branch hanging off a broken branch must not be salvaged:
        sink_paths store incremental branches, and health is a property
        of the full chain back to the source."""
        c = flat_rrg_for(PARAMS)
        prior = net_from_paths(c, "n", 0, [3, 5],
                               [(3, [0, 1, 2, 3]), (5, [2, 4, 5])])
        assert prior.nodes == {0, 1, 2, 3, 4, 5}
        assert prior.edges == {(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)}
        dm = DefectMap.from_defects(c, wire_nodes=[1])
        assert _healthy_sink_paths(prior, dm) == {}
        # breaking only the leaf branch keeps the trunk's sink
        dm2 = DefectMap.from_defects(c, wire_nodes=[4])
        assert _healthy_sink_paths(prior, dm2) == {3: [0, 1, 2, 3]}

    def test_warm_route_deterministic(self, mapping):
        c, netlist, placement, golden = mapping
        _, nid = _wire_on_multisink_route(c, golden)
        dm = DefectMap.from_defects(c, wire_nodes=[nid])
        _, first = _warm(c, netlist, placement, golden, dm)
        _, second = _warm(c, netlist, placement, golden, dm)
        for name, net in first.nets.items():
            other = second.nets[name]
            assert net.nodes == other.nodes, name
            assert net.edges == other.edges, name
            assert net.sink_paths == other.sink_paths, name
