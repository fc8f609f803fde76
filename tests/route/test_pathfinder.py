"""Tests for the PathFinder router."""

import ctypes
import pickle

import numpy as np
import pytest

from repro.arch.compiled import NodeKind, compiled_rrg_for
from repro.arch.params import ArchParams
from repro.errors import RoutingError
from repro.netlist.dfg import paper_example_program
from repro.netlist.synth import synthesize
from repro.netlist.techmap import tech_map
from repro.place.placer import place, place_program
from repro.route.pathfinder import (
    _net_endpoints,
    endpoint_signature,
    route_context_compiled,
    route_program_compiled,
)
from repro.route.timing import critical_path
from repro.workloads.generators import random_dag, ripple_adder
from repro.workloads.multicontext import mutated_program


@pytest.fixture(scope="module")
def setup():
    params = ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4)
    g = compiled_rrg_for(params)
    n = tech_map(ripple_adder(3), k=4)
    pl = place(n, params, seed=0, effort=0.3)
    return params, g, n, pl


class TestSingleContext:
    def test_routes_all_nets(self, setup):
        _, g, n, pl = setup
        rr = route_context_compiled(g, n, pl)
        routable = {
            net for net, drv in n.net_driver.items() if n.fanout(net)
        }
        assert set(rr.nets) == routable

    def test_no_overuse(self, setup):
        """Congestion-freedom: each wire node used by at most one net."""
        _, g, n, pl = setup
        rr = route_context_compiled(g, n, pl)
        usage: dict[int, int] = {}
        for net in rr.nets.values():
            for node in net.nodes:
                if g.kind_of(node) in (NodeKind.CHANX, NodeKind.CHANY,
                                       NodeKind.IPIN, NodeKind.OPIN):
                    usage[node] = usage.get(node, 0) + 1
        assert all(v <= 1 for v in usage.values())

    def test_every_sink_reached(self, setup):
        _, g, n, pl = setup
        rr = route_context_compiled(g, n, pl)
        for net in rr.nets.values():
            for sink in net.sinks:
                assert sink in net.nodes

    def test_edges_exist_in_rrg(self, setup):
        """Every routed edge is a switch of the object-graph oracle."""
        from rrg_oracle import build_rrg

        params, g, n, pl = setup
        rr = route_context_compiled(g, n, pl)
        oracle = build_rrg(params)
        for net in rr.nets.values():
            for a, b in net.edges:
                assert any(dst == b for dst, _ in oracle.out_edges[a])

    def test_wirelength_positive(self, setup):
        _, g, n, pl = setup
        rr = route_context_compiled(g, n, pl)
        assert rr.wirelength(g) > 0

    def test_unroutable_raises(self):
        """A width-1 channel cannot carry a dense design."""
        params = ArchParams(cols=3, rows=3, channel_width=1,
                            double_fraction=0.0, io_capacity=4)
        g = compiled_rrg_for(params)
        n = tech_map(random_dag(n_inputs=4, n_gates=8, n_outputs=3, seed=2), k=4)
        pl = place(n, params, seed=0, effort=0.2)
        with pytest.raises(RoutingError):
            route_context_compiled(g, n, pl, max_iterations=6)


class TestRouteTree:
    """Each net's route as arrays in tree order, and its views."""

    def test_tree_arrays_describe_the_route(self, setup):
        _, g, n, pl = setup
        rr = route_context_compiled(g, n, pl)
        for name, net in rr.nets.items():
            tree = net.tree
            assert tree.node[0] == net.source and tree.parent[0] == -1
            assert tree.edge[0] == -1
            pos = np.arange(1, tree.node.size)
            assert ((tree.parent[1:] >= 0) & (tree.parent[1:] < pos)).all()
            # edge i is the first node[parent[i]] -> node[i] CSR edge
            assert np.array_equal(
                tree.edge[1:],
                g.edge_index(tree.node[tree.parent[1:]], tree.node[1:]))
            assert len(set(tree.node.tolist())) == tree.node.size
            assert net.nodes == set(tree.node.tolist())
            assert len(net.edges) == tree.node.size - 1
            assert sorted(net.sink_paths) == sorted(net.sinks), name
            assert [int(tree.node[at]) for at, _ in tree.branch] == \
                list(net.sink_paths), name
            for sink, path in net.sink_paths.items():
                assert path[-1] == sink and path[0] in net.nodes

    def test_views_are_cached_and_shared_by_adopted_nets(self):
        params = ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4)
        g = compiled_rrg_for(params)
        base = tech_map(synthesize(["a", "b", "c"], {"o": "(a & b) ^ c"}), k=4)
        prog = mutated_program(base, n_contexts=2, fraction=0.0)
        pls = place_program(prog, params, seed=1, share_aware=True, effort=0.3)
        rrs = route_program_compiled(g, prog, pls, share_aware=True)
        adopted = [net for net in rrs[1].nets.values() if net.reused]
        assert adopted
        for net in adopted:
            prior = next(p for p in rrs[0].nets.values()
                         if endpoint_signature(p.source, p.sinks)
                         == endpoint_signature(net.source, net.sinks))
            assert net.tree is prior.tree
            assert net.nodes is prior.nodes is net.nodes

    def test_arrays_are_read_only_and_pickle_without_caches(self, setup):
        _, g, n, pl = setup
        rr = route_context_compiled(g, n, pl)
        critical_path(g, n, rr, pl)
        net = next(iter(rr.nets.values()))
        with pytest.raises(ValueError):
            net.tree.node[0] = 0
        net.nodes, net.sink_paths  # build the views
        assert net.tree.delay_memo is not None
        back = pickle.loads(pickle.dumps(rr))
        for name, twin in back.nets.items():
            tree = twin.tree
            assert tree == rr.nets[name].tree
            assert tree.delay_memo is None and tree._nodes is None
            assert not tree.node.flags.writeable
            assert list(twin.sink_paths.items()) == \
                list(rr.nets[name].sink_paths.items())
            assert list(twin.nodes) == list(rr.nets[name].nodes)


class TestIterationLimit:
    """The rip-up limit, on the native route and on the Python loop
    alike: overuse is tested before the limit, so a routing that clears
    on its last permitted pass is accepted and only a context still
    overused at the limit raises.  On 6x6 at width 4 the route clears
    in two iterations; at width 6 its first pass is clean."""

    @pytest.fixture(scope="class")
    def netlist(self):
        return tech_map(random_dag(6, 18, 6, seed=2), 4)

    def _case(self, netlist, width):
        params = ArchParams(6, 6, channel_width=width, io_capacity=4)
        return compiled_rrg_for(params), netlist, place(netlist, params,
                                                        seed=2)

    @pytest.fixture(params=["native", "python"])
    def loop(self, request, monkeypatch):
        from repro.route import pathfinder

        if request.param == "python":
            monkeypatch.setattr(pathfinder, "_route_function", lambda: None)
        elif pathfinder.route_kernel() != "native":
            pytest.skip("no C compiler: Python loop only")
        assert pathfinder.route_kernel() == request.param
        return request.param

    def test_clears_on_the_last_pass(self, netlist, loop):
        g, n, pl = self._case(netlist, 4)
        assert route_context_compiled(g, n, pl).iterations == 2
        rr = route_context_compiled(g, n, pl, max_iterations=2)
        assert rr.iterations == 2

    def test_clean_first_pass_at_one(self, netlist, loop):
        g, n, pl = self._case(netlist, 6)
        rr = route_context_compiled(g, n, pl, max_iterations=1)
        assert rr.iterations == 1

    def test_overused_at_the_limit_raises(self, netlist, loop):
        g, n, pl = self._case(netlist, 4)
        with pytest.raises(RoutingError) as info:
            route_context_compiled(g, n, pl, max_iterations=1)
        assert str(info.value) == ("context 0: congestion unresolved after 1 "
                                   "iterations (1 overused nodes)")


class TestMultiContext:
    def test_route_reuse_for_shared_nets(self):
        """Identical contexts, share-aware: every net in context 1 reuses
        context 0's route -> all switch patterns CONSTANT."""
        params = ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4)
        g = compiled_rrg_for(params)
        base = tech_map(synthesize(["a", "b", "c"], {"o": "(a & b) ^ c"}), k=4)
        prog = mutated_program(base, n_contexts=2, fraction=0.0)
        pls = place_program(prog, params, seed=1, share_aware=True, effort=0.3)
        rrs = route_program_compiled(g, prog, pls, share_aware=True)
        assert all(net.reused for net in rrs[1].nets.values())

    def test_naive_mode_no_reuse_flag(self):
        params = ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4)
        g = compiled_rrg_for(params)
        prog = paper_example_program()
        pls = place_program(prog, params, seed=1, share_aware=False, effort=0.3)
        rrs = route_program_compiled(g, prog, pls, share_aware=False)
        assert all(not net.reused for rr in rrs for net in rr.nets.values())

    def test_placement_count_checked(self):
        params = ArchParams(cols=4, rows=4, channel_width=8)
        g = compiled_rrg_for(params)
        prog = paper_example_program()
        with pytest.raises(RoutingError):
            route_program_compiled(g, prog, [], share_aware=True)


class TestSignature:
    def test_signature_canonical(self):
        assert endpoint_signature(5, [9, 3]) == endpoint_signature(5, [3, 9])
        assert endpoint_signature(5, [3]) != endpoint_signature(6, [3])


class TestNetEndpoints:
    def test_packed_at_construction(self, setup):
        """The int32 parts a native route reads at ``addresses`` hold
        the rows, built with the endpoints and never replaced (threads
        sharing the endpoints all read one buffer), and the cached
        signatures are :func:`endpoint_signature`'s."""
        _, g, n, pl = setup
        ep = _net_endpoints(n, pl, g)
        addresses = ep.addresses
        nets = len(ep)
        source, sink_start, sinks = (
            np.ctypeslib.as_array((ctypes.c_int32 * size).from_address(at))
            for at, size in zip(addresses, (nets, nets + 1, ep.n_sinks)))
        assert source.tolist() == [src for _n, src, _s in ep.rows]
        for k, (_name, _src, want) in enumerate(ep.rows):
            assert sinks[sink_start[k]:sink_start[k + 1]].tolist() == want
        assert sink_start[-1] == ep.n_sinks
        assert ep.signatures() == [endpoint_signature(src, s)
                                   for _n, src, s in ep.rows]
        assert ep.addresses == addresses
        assert ep == _net_endpoints(n, pl, g)
