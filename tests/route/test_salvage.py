"""The batched warm-reroute salvage against the pair-by-pair oracle.

:class:`~repro.route.pathfinder._Salvage` tests the chains of all of
one context's salvaged nets together, with one node-mask gather and
one binary search over the consecutive pairs, masking out the pairs
that straddle two chains; :func:`~repro.route.pathfinder._healthy_sink_paths`
is the batch of one net.  These tests compare both with
``salvage_oracle.healthy_sink_paths`` net by net, in ``sink_paths``
order, on every net of two golden routings under a seeded 0-10% wire
and switch defect suite, and the single-net form on hand-built trees:
chains sharing a trunk, one-edge chains, a dead edge exactly at a
chain boundary and malformed records.  (The native route finds the
same chains in C; ``test_native_context.py`` holds its warm reroutes
equal to the Python loop's, salvage counters included.)
"""

import pytest

from repro.api import Session
from repro.api.session import POINT_EFFORT
from repro.arch.compiled import flat_rrg_for
from repro.arch.params import ArchParams
from repro.netlist.techmap import tech_map
from repro.place.placer import place
from repro.reliability import DefectMap, build_golden
from repro.route.pathfinder import _healthy_sink_paths, _Salvage, net_from_paths
from repro.workloads.generators import random_dag
from salvage_oracle import dead_edge_pairs, healthy_sink_paths

RATES = (0.0, 0.01, 0.03, 0.05, 0.10)
SEEDS = (1, 2, 3, 4)
SMALL = ArchParams(cols=6, rows=6, channel_width=8, io_capacity=4)
YIELD = ArchParams(cols=7, rows=7, channel_width=8, io_capacity=4)


def _golden_small():
    c = flat_rrg_for(SMALL)
    netlist = tech_map(random_dag(6, 18, 6, seed=3), k=4)
    placement = place(netlist, SMALL, seed=0, effort=0.3)
    return c, build_golden(c, netlist, placement, 25)


def _golden_yield():
    session = Session()
    golden = session.yield_runner().golden_for(
        session.circuit("random"), YIELD, 0, POINT_EFFORT)
    return flat_rrg_for(YIELD), golden


def _same(c, prior, dm):
    got = _healthy_sink_paths(prior, dm)
    want = healthy_sink_paths(prior, dm, c)
    # same sinks, same chains, same (sink_paths) order
    assert list(got.items()) == list(want.items()), prior.name
    return got


@pytest.mark.parametrize("build", [_golden_small, _golden_yield],
                         ids=["6x6w8", "7x7w8"])
def test_matches_oracle_on_defect_suite(build):
    c, golden = build()
    assert golden is not None
    rejected = kept = 0
    for rate in RATES:
        for seed in SEEDS:
            dm = DefectMap.sample(c, rate, seed=seed, logic_rate=0.0)
            for prior in golden.routes.nets.values():
                got = _same(c, prior, dm)
                kept += len(got)
                rejected += len(prior.sink_paths) - len(got)
    # the suite exercises both verdicts
    assert kept and rejected


@pytest.mark.parametrize("build", [_golden_small, _golden_yield],
                         ids=["6x6w8", "7x7w8"])
def test_one_context_batch_matches_oracle(build):
    """Every net of a golden routing salvaged in one batch, as one
    warm reroute whose every net is dirty would: each net's chains
    equal the oracle's, in ``sink_paths`` order, and the counts are the
    sums over the nets."""
    c, golden = build()
    priors = list(golden.routes.nets.values())
    for rate in RATES:
        for seed in SEEDS:
            dm = DefectMap.sample(c, rate, seed=seed, logic_rate=0.0)
            batch = _Salvage(priors, dm)
            kept = 0
            for k, prior in enumerate(priors):
                want = healthy_sink_paths(prior, dm, c)
                assert list(batch.paths(k).items()) == list(want.items()), \
                    prior.name
                kept += len(want)
            assert batch.kept == kept
            assert batch.branches == sum(len(p.sink_paths) for p in priors)


def test_empty_batch(substrate):
    batch = _Salvage([], DefectMap.from_defects(substrate))
    assert (batch.kept, batch.branches) == (0, 0)


def _walk(c, start, steps, avoid=()):
    """``steps + 1`` distinct nodes joined by switch edges from
    ``start``, and those edges' CSR indexes."""
    switch = set(c.switch_edge_ids().tolist())
    nodes, edges = [start], []
    while len(edges) < steps:
        u = nodes[-1]
        for e in range(int(c.edge_start[u]), int(c.edge_start[u + 1])):
            v = int(c.edge_dst[e])
            if e in switch and v not in nodes and v not in avoid:
                nodes.append(v)
                edges.append(e)
                break
        else:
            raise AssertionError(f"no fresh switch out of node {u}")
    return nodes, edges


@pytest.fixture(scope="module")
def substrate():
    return flat_rrg_for(SMALL)


class TestHandBuiltTrees:
    def _tree(self, c):
        """A trunk ``n0..n4`` and a branch ``n2 -> m`` off its middle."""
        trunk, trunk_edges = _walk(c, int(c.wire_node_ids()[40]), 4)
        (_n2, m), (branch_edge,) = _walk(c, trunk[2], 1, avoid=trunk)
        prior = net_from_paths(c, "t", trunk[0], [trunk[4], m], [
            (trunk[4], list(trunk)), (m, [trunk[2], m])])
        return prior, trunk, m, trunk_edges, branch_edge

    def test_shared_trunk(self, substrate):
        c = substrate
        prior, trunk, m, trunk_edges, branch_edge = self._tree(c)
        full_m = trunk[:3] + [m]
        assert _same(c, prior, DefectMap.from_defects(c)) == {
            trunk[4]: trunk, m: full_m}
        # a dead trunk edge before the fork severs both sinks
        dm = DefectMap.from_defects(c, switch_edges=[trunk_edges[1]])
        assert _same(c, prior, dm) == {}
        # a dead edge after the fork severs one side only
        dm = DefectMap.from_defects(c, switch_edges=[trunk_edges[3]])
        assert _same(c, prior, dm) == {m: full_m}
        dm = DefectMap.from_defects(c, switch_edges=[branch_edge])
        assert _same(c, prior, dm) == {trunk[4]: trunk}
        # a dead node on the shared trunk severs both
        dm = DefectMap.from_defects(c, wire_nodes=[trunk[1]])
        assert _same(c, prior, dm) == {}

    def test_one_edge_chains(self, substrate):
        c = substrate
        (s, a), (ea,) = _walk(c, int(c.wire_node_ids()[7]), 1)
        (_s, b), (eb,) = _walk(c, s, 1, avoid=[a])
        prior = net_from_paths(c, "one", s, [a, b],
                               [(a, [s, a]), (b, [s, b])])
        dm = DefectMap.from_defects(c, switch_edges=[ea])
        assert _same(c, prior, dm) == {b: [s, b]}
        dm = DefectMap.from_defects(c, switch_edges=[ea, eb])
        assert _same(c, prior, dm) == {}

    def test_dead_edge_at_chain_boundary(self, substrate):
        """The flattened chains ``[b, a] [b, x]`` put the pair ``a -> b``
        across their boundary; killing that edge must not reject the
        first chain, whose own pair is ``b -> a``."""
        c = substrate
        (a, b), (e,) = _walk(c, int(c.wire_node_ids()[12]), 1)
        assert (a, b) in dead_edge_pairs(
            c, DefectMap.from_defects(c, switch_edges=[e]))
        x = int(c.wire_node_ids()[200])
        prior = net_from_paths(c, "edge", b, [a, x],
                               [(a, [b, a]), (x, [b, x])])
        dm = DefectMap.from_defects(c, switch_edges=[e])
        assert _same(c, prior, dm) == {a: [b, a], x: [b, x]}

    def test_malformed_records_are_skipped(self, substrate):
        c = substrate
        _, trunk, m, trunk_edges, _ = self._tree(c)
        orphan = int(c.wire_node_ids()[300])
        # a branch hanging off a node outside the tree
        prior = net_from_paths(c, "t", trunk[0], [trunk[4], m, orphan], [
            (trunk[4], list(trunk)), (m, [trunk[2], m]),
            (orphan, [orphan + 1, orphan])])
        dm = DefectMap.from_defects(c, switch_edges=[trunk_edges[3]])
        got = _same(c, prior, dm)
        assert orphan not in got and m in got
        # a parent cycle that never reaches the source
        cyc = net_from_paths(c, "cyc", trunk[0], [trunk[2]], [
            (trunk[2], [trunk[1], trunk[2], trunk[1]])])
        assert _same(c, cyc, DefectMap.from_defects(c)) == {}

    def test_source_as_its_own_sink(self, substrate):
        c = substrate
        s = int(c.wire_node_ids()[3])
        prior = net_from_paths(c, "self", s, [s], [(s, [s])])
        assert _same(c, prior, DefectMap.from_defects(c)) == {s: [s]}
        dm = DefectMap.from_defects(c, wire_nodes=[s])
        assert _same(c, prior, dm) == {}
