"""Pattern censuses over used masks equal the census over every mask.

``census()`` classifies only the used switches and LUT bits and books
every unused one as CONSTANT; here it is checked against classifying
the full ``all_masks`` list, and the switch count against a walk of a
freshly built object graph.  The per-switch patterns, which are read
off the CSR arrays, are checked against a walk of the object graph's
``out_edges``.
"""

from functools import lru_cache

import pytest

from repro.analysis.experiments import map_program
from repro.api.workloads import build_program
from repro.arch.rrg import EdgeKind, build_rrg
from repro.core.bitstream import extract_switch_patterns
from repro.core.patterns import classify_many
from repro.netlist.dfg import paper_example_program


@pytest.fixture(scope="module", params=["paper_example", "adder8"])
def mapped(request):
    if request.param == "paper_example":
        prog = paper_example_program()
    else:
        prog = build_program("adder", 8, 0.05, seed=1)
    return map_program(prog, share_aware=True, seed=1, effort=0.3)


@pytest.fixture(scope="module")
def stats(mapped):
    return mapped.stats()


def _walked_switches(g) -> int:
    pairs, pins = set(), 0
    for a, edges in enumerate(g.out_edges):
        for b, kind in edges:
            if kind in (EdgeKind.PASS, EdgeKind.BUF):
                pairs.add((min(a, b), max(a, b)))
            elif kind is EdgeKind.PIN:
                pins += 1
    return len(pairs) + pins


def _cyclic_change_fraction(switch) -> float:
    n = switch.n_contexts
    diffs = sum(
        ((mask >> c) & 1) != ((mask >> ((c - 1) % n)) & 1)
        for mask in switch.used.values() for c in range(n)
    )
    return diffs / (switch.n_total_switches * n)


@pytest.mark.parametrize("include_unused", [True, False])
def test_census_equals_classifying_all_masks(stats, include_unused):
    for patterns in (stats.switch, stats.luts):
        assert patterns.census(include_unused) == classify_many(
            patterns.all_masks(include_unused), patterns.n_contexts
        )


def test_switch_count_matches_object_graph(mapped, stats):
    walked = _walked_switches(build_rrg(mapped.params))
    assert stats.switch.n_total_switches == walked
    assert mapped.stats().switch.n_total_switches == walked


def test_fractions_unchanged(stats):
    census = classify_many(
        stats.switch.all_masks() + stats.luts.all_masks(), stats.switch.n_contexts
    )
    total = sum(census.values())
    assert stats.class_fractions() == {k: v / total for k, v in census.items()}
    assert stats.switch.change_fraction() == _cyclic_change_fraction(stats.switch)


@lru_cache(maxsize=None)
def _object_graph(params):
    return build_rrg(params)


def _walked_patterns(g, routes) -> dict:
    """Switch patterns by looking every routed edge up in ``out_edges``."""
    used: dict = {}
    for c, rr in enumerate(routes):
        for net in rr.nets.values():
            for a, b in net.edges:
                kind = next((k for nxt, k in g.out_edges[a] if nxt == b), None)
                if kind in (EdgeKind.PASS, EdgeKind.BUF):
                    key = (a, b) if a <= b else (b, a)
                elif kind is EdgeKind.PIN:
                    key = (a, b)
                else:
                    continue
                used[key] = used.get(key, 0) | (1 << c)
    return used


@pytest.mark.parametrize("share_aware", [True, False], ids=["share", "naive"])
@pytest.mark.parametrize("contexts", [2, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", ["adder", "cmp", "random", "crc"])
def test_csr_patterns_match_object_graph_walk(workload, seed, contexts,
                                              share_aware):
    prog = build_program(workload, contexts, 0.05, seed)
    mapped = map_program(prog, share_aware=share_aware, seed=seed,
                         effort=0.3)
    g = _object_graph(mapped.params)
    for patterns in (mapped.stats().switch,
                     extract_switch_patterns(g, mapped.routes, contexts)):
        assert list(patterns.used.items()) == list(
            _walked_patterns(g, mapped.routes).items()
        )
        assert patterns.n_total_switches == _walked_switches(g)
