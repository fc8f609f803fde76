"""Legacy-vs-compiled router equivalence.

The compiled engine must be a pure speedup: on every workload it has to
produce the *same routes* as the legacy object-graph PathFinder — same
wirelength, same node sets, same functional-verification outcome.  Both
engines share cost arithmetic and tie-breaking by construction; these
tests pin that property across 3 workloads x 2 grid sizes.
"""

import pytest

from repro.arch.compiled import compile_rrg
from repro.arch.params import ArchParams
from repro.arch.rrg import build_rrg
from repro.core.fpga import MultiContextFPGA
from repro.netlist.techmap import tech_map
from repro.place.placer import place_program
from repro.route.pathfinder import (
    route_program,
    route_program_compiled,
    route_program_legacy,
)
from repro.workloads.generators import crc_step, random_dag, ripple_adder
from repro.workloads.multicontext import mutated_program, temporal_partition

GRIDS = [
    ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4),
    ArchParams(cols=7, rows=7, channel_width=8, io_capacity=4),
]


def _workloads():
    return {
        "adder": mutated_program(tech_map(ripple_adder(3), k=4), 4, 0.05, seed=1),
        "random": mutated_program(
            tech_map(random_dag(5, 12, 3, seed=11), k=4), 4, 0.1, seed=2
        ),
        "crc": temporal_partition(tech_map(crc_step(6), k=4), 4),
    }


@pytest.fixture(scope="module")
def cases():
    """(name, params, program, placements, legacy routes, compiled routes)."""
    out = []
    for params in GRIDS:
        g = build_rrg(params)
        c = compile_rrg(g)
        for name, prog in _workloads().items():
            pls = place_program(prog, params, seed=3, share_aware=True, effort=0.3)
            legacy = route_program_legacy(g, prog, pls, share_aware=True)
            compiled = route_program_compiled(c, prog, pls, share_aware=True)
            out.append((f"{name}@{params.cols}x{params.rows}",
                        params, prog, pls, g, legacy, compiled))
    return out


class TestRoutedEquivalence:
    def test_covers_three_workloads_two_grids(self, cases):
        assert len(cases) == 6

    def test_identical_wirelength(self, cases):
        for name, _, _, _, g, legacy, compiled in cases:
            wl_legacy = [rr.wirelength(g) for rr in legacy]
            wl_compiled = [rr.wirelength(g) for rr in compiled]
            assert wl_legacy == wl_compiled, name

    def test_identical_route_trees(self, cases):
        """Stronger than wirelength: every net uses the same node set."""
        for name, _, _, _, _, legacy, compiled in cases:
            for a, b in zip(legacy, compiled):
                assert set(a.nets) == set(b.nets), name
                for net_name in a.nets:
                    assert a.nets[net_name].nodes == b.nets[net_name].nodes, (
                        f"{name}:{net_name}"
                    )
                    assert a.nets[net_name].edges == b.nets[net_name].edges, (
                        f"{name}:{net_name}"
                    )

    def test_identical_reuse_marks(self, cases):
        for name, _, _, _, _, legacy, compiled in cases:
            for a, b in zip(legacy, compiled):
                reused_a = {n for n, net in a.nets.items() if net.reused}
                reused_b = {n for n, net in b.nets.items() if net.reused}
                assert reused_a == reused_b, name

    def test_identical_iteration_counts(self, cases):
        for name, _, _, _, _, legacy, compiled in cases:
            assert [r.iterations for r in legacy] == [
                r.iterations for r in compiled
            ], name

    def test_identical_verification_outcome(self, cases):
        """Both routings configure a device that verifies functionally."""
        for name, params, prog, pls, _, legacy, compiled in cases:
            if prog.n_contexts > params.n_contexts:
                continue
            for routes in (legacy, compiled):
                device = MultiContextFPGA(params)
                device.configure_program(prog, pls, routes)
                for c in range(prog.n_contexts):
                    device.verify_against_source(c, n_vectors=8, seed=9)


class TestDefectMaskNeutrality:
    """The reliability gate: an all-healthy DefectMap must not perturb
    routing — bit-identical routes on the same pinned suite."""

    def test_empty_mask_routes_bit_identical(self, cases):
        from repro.arch.compiled import compile_rrg as _compile
        from repro.reliability import DefectMap

        for name, params, prog, pls, g, _legacy, compiled in cases:
            c = _compile(g)
            dm = DefectMap.sample(c, 0.0, seed=0)
            assert dm.is_clean
            with_mask = route_program_compiled(
                c, prog, pls, share_aware=True, defects=dm
            )
            for a, b in zip(compiled, with_mask):
                assert set(a.nets) == set(b.nets), name
                for net_name in a.nets:
                    assert a.nets[net_name].nodes == b.nets[net_name].nodes, (
                        f"{name}:{net_name}"
                    )
                    assert a.nets[net_name].edges == b.nets[net_name].edges, (
                        f"{name}:{net_name}"
                    )
                assert a.iterations == b.iterations, name

    def test_defective_resources_never_used(self, cases):
        from repro.arch.compiled import compile_rrg as _compile
        from repro.reliability import DefectMap

        name, params, prog, pls, g, _legacy, _compiled = cases[0]
        c = _compile(g)
        dm = DefectMap.sample(c, 0.02, seed=12, logic_rate=0.0)
        assert not dm.is_clean
        results = route_program_compiled(
            c, prog, pls, share_aware=True, defects=dm
        )
        for rr in results:
            for net in rr.nets.values():
                assert all(dm.node_ok[n] for n in net.nodes), name
                assert dm.bad_edge_pairs.isdisjoint(net.edges), name


class TestAdapters:
    def test_route_program_accepts_object_graph(self):
        """Public adapter lowers object graphs and matches the legacy path."""
        params = GRIDS[0]
        g = build_rrg(params)
        prog = _workloads()["adder"]
        pls = place_program(prog, params, seed=1, share_aware=True, effort=0.2)
        via_adapter = route_program(g, prog, pls, share_aware=True)
        legacy = route_program_legacy(g, prog, pls, share_aware=True)
        assert [r.wirelength(g) for r in via_adapter] == [
            r.wirelength(g) for r in legacy
        ]

    def test_parallel_independent_contexts_match_sequential(self):
        params = GRIDS[0]
        c = compile_rrg(build_rrg(params))
        prog = _workloads()["random"]
        pls = place_program(prog, params, seed=2, share_aware=False, effort=0.2)
        seq = route_program_compiled(c, prog, pls, share_aware=False)
        par = route_program_compiled(c, prog, pls, share_aware=False, workers=4)
        for a, b in zip(seq, par):
            assert a.context == b.context
            for net_name in a.nets:
                assert a.nets[net_name].nodes == b.nets[net_name].nodes
