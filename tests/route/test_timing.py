"""Tests for the SE-chain / double-length-line timing model (Fig. 10)."""

import pytest

from repro.arch.compiled import compiled_rrg_for
from repro.arch.params import ArchParams
from repro.netlist.techmap import tech_map
from repro.place.placer import place
from repro.route.pathfinder import route_context_compiled
from repro.route.timing import (
    DelayModel,
    chain_delay,
    critical_path,
    path_delay,
    route_tree_delays,
)
from repro.workloads.generators import ripple_adder


class TestChainDelay:
    def test_single_se_is_unit(self):
        assert chain_delay(1) == 1.0

    def test_quadratic_growth(self):
        """The Elmore ladder: n SEs cost n(n+1)/2 units — why long RCM
        paths are slow and double-length lines exist."""
        for n in range(1, 8):
            assert chain_delay(n) == pytest.approx(n * (n + 1) / 2)

    def test_zero_chain(self):
        assert chain_delay(0) == 0.0

    def test_buffered_double_beats_long_chain(self):
        """A buffered double-length hop must beat >= 2 series SEs."""
        m = DelayModel()
        assert m.t_buf < chain_delay(2, m)


class TestRoutedDelays:
    @pytest.fixture(scope="class")
    def routed(self):
        params = ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4)
        g = compiled_rrg_for(params)
        n = tech_map(ripple_adder(3), k=4)
        pl = place(n, params, seed=0, effort=0.3)
        rr = route_context_compiled(g, n, pl)
        return g, n, pl, rr

    def test_all_sinks_have_delays(self, routed):
        g, n, pl, rr = routed
        for net in rr.nets.values():
            delays = route_tree_delays(g, net)
            assert set(delays) == set(net.sinks)
            assert all(d >= 0 for d in delays.values())

    def test_critical_path_positive(self, routed):
        g, n, pl, rr = routed
        cp = critical_path(g, n, rr, pl)
        assert cp > 0
        # at least depth x lut delay
        assert cp >= n.depth() * DelayModel().t_lut

    def test_double_lines_reduce_delay(self):
        """The Fig. 10 claim: a fabric with double-length lines routes
        faster than one with RCM single tracks only."""
        n = tech_map(ripple_adder(3), k=4)
        results = {}
        for frac in (0.0, 0.5):
            params = ArchParams(cols=6, rows=6, channel_width=10,
                                double_fraction=frac, io_capacity=4)
            g = compiled_rrg_for(params)
            pl = place(n, params, seed=0, effort=0.3)
            rr = route_context_compiled(g, n, pl)
            results[frac] = critical_path(g, n, rr, pl)
        assert results[0.5] <= results[0.0]


class TestPathDelay:
    def test_path_delay_matches_tree(self):
        params = ArchParams(cols=4, rows=4, channel_width=8, io_capacity=4)
        g = compiled_rrg_for(params)
        n = tech_map(ripple_adder(2), k=4)
        pl = place(n, params, seed=0, effort=0.3)
        rr = route_context_compiled(g, n, pl)
        net = next(iter(rr.nets.values()))
        delays = route_tree_delays(g, net)
        # reconstruct a root->sink path and compare
        sink = net.sinks[0]
        parent = {}
        for a, b in net.edges:
            parent.setdefault(b, a)
        path = [sink]
        while path[-1] != net.source:
            path.append(parent[path[-1]])
        path.reverse()
        assert path_delay(g, path) == pytest.approx(delays[sink])
