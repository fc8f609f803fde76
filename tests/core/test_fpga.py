"""Tests for the full MC-FPGA device model."""

import pytest

from repro.arch.params import ArchParams
from repro.core.fpga import MultiContextFPGA
from repro.errors import ConfigurationError, SimulationError
from repro.netlist.dfg import MultiContextProgram, paper_example_program
from repro.netlist.synth import synthesize
from repro.netlist.techmap import tech_map
from repro.place.placer import place_program
from repro.workloads.multicontext import mutated_program


def small_params() -> ArchParams:
    return ArchParams(cols=4, rows=4, n_contexts=4, lut_inputs=4,
                      channel_width=8, io_capacity=4)


def make_program(n_contexts=2) -> MultiContextProgram:
    base = tech_map(
        synthesize(["a", "b", "c"], {"o1": "a & b | c", "o2": "a ^ b ^ c"}),
        k=4,
    )
    return mutated_program(base, n_contexts=n_contexts, fraction=0.3, seed=5)


class TestConfiguration:
    def test_configure_and_evaluate(self):
        params = small_params()
        prog = make_program()
        placements = place_program(prog, params, seed=1, effort=0.3)
        device = MultiContextFPGA(params)
        device.configure_program(prog, placements)
        for ctx in range(prog.n_contexts):
            device.verify_against_source(ctx, n_vectors=8)

    def test_too_many_contexts_rejected(self):
        params = small_params().with_(n_contexts=2)
        prog = make_program(n_contexts=4)
        device = MultiContextFPGA(params)
        with pytest.raises(ConfigurationError):
            device.configure_program(prog, [None] * 4)

    def test_placement_count_mismatch(self):
        device = MultiContextFPGA(small_params())
        prog = make_program()
        with pytest.raises(ConfigurationError):
            device.configure_program(prog, [])

    def test_unconfigured_evaluate_rejected(self):
        device = MultiContextFPGA(small_params())
        with pytest.raises(SimulationError):
            device.evaluate(0, {})


class TestContextSwitching:
    def test_switch_reports_flips(self):
        params = small_params()
        prog = make_program()
        placements = place_program(prog, params, seed=1, effort=0.3)
        device = MultiContextFPGA(params)
        device.configure_program(prog, placements)
        device.switch_context(0)
        flips = device.switch_context(1)
        assert flips >= 0
        assert device.active_context == 1

    def test_same_context_zero_flips(self):
        params = small_params()
        prog = make_program()
        placements = place_program(prog, params, seed=1, effort=0.3)
        device = MultiContextFPGA(params)
        device.configure_program(prog, placements)
        device.switch_context(2)
        assert device.switch_context(2) == 0

    def test_out_of_range(self):
        device = MultiContextFPGA(small_params())
        with pytest.raises(ConfigurationError):
            device.switch_context(7)


class TestAnalysisHooks:
    def test_utilization(self):
        params = small_params()
        prog = make_program()
        placements = place_program(prog, params, seed=1, effort=0.3)
        device = MultiContextFPGA(params)
        device.configure_program(prog, placements)
        u = device.utilization()
        assert 0 < u["utilization"] <= 1.0
        assert u["contexts_configured"] == 2

    def test_distinct_planes_histogram(self):
        params = small_params()
        prog = paper_example_program()
        placements = place_program(prog, params, seed=1, effort=0.3)
        device = MultiContextFPGA(params)
        device.configure_program(prog, placements)
        hist = device.distinct_planes_histogram()
        assert sum(hist.values()) == params.n_tiles

    def test_shared_cells_single_plane(self):
        """Share-aware placement pins Fig. 13's O2/O3 to one tile each;
        the planes written in both contexts are identical."""
        params = small_params()
        prog = paper_example_program()
        placements = place_program(prog, params, seed=1, share_aware=True,
                                   effort=0.3)
        device = MultiContextFPGA(params)
        device.configure_program(prog, placements)
        # locate O2 in context 0 and 1: same tile
        o2_0 = placements[0].cells["O2"]
        o2_1 = placements[1].cells["O2"]
        assert o2_0 == o2_1
        lb = device.logic_blocks[o2_0]
        t0 = lb.lut.truth_table(0)
        t1 = lb.lut.truth_table(1)
        assert (t0 == t1).all()

    def test_stats_requires_routes(self):
        device = MultiContextFPGA(small_params())
        with pytest.raises(SimulationError):
            device.bitstream_stats()
