"""Extended device tests: 8 contexts, granularity, utilization edges."""

import pytest

from repro.analysis.experiments import map_program
from repro.core.fpga import MultiContextFPGA
from repro.netlist.synth import synthesize
from repro.netlist.techmap import tech_map
from repro.sim.context_switch import ContextSchedule, MultiContextExecutor
from repro.workloads.multicontext import mutated_program


@pytest.fixture(scope="module")
def eight_ctx():
    base = tech_map(synthesize(["a", "b", "c"], {"o": "(a ^ b) & c"}), k=4)
    prog = mutated_program(base, n_contexts=8, fraction=0.4, seed=9)
    mapped = map_program(prog, seed=2, effort=0.3)
    device = MultiContextFPGA(mapped.params)
    device.configure_program(prog, mapped.placements, mapped.routes)
    return prog, mapped, device


class TestEightContexts:
    def test_all_contexts_verify(self, eight_ctx):
        prog, _, device = eight_ctx
        for ctx in range(8):
            device.verify_against_source(ctx, n_vectors=8)

    def test_full_rotation(self, eight_ctx):
        prog, _, device = eight_ctx
        ex = MultiContextExecutor(prog, device=device)
        trace = ex.run(ContextSchedule.round_robin(8),
                       external_inputs={"a": 1, "b": 0, "c": 1})
        assert len(trace.outputs_per_step) == 8

    def test_pattern_masks_use_8_bits(self, eight_ctx):
        _, mapped, _ = eight_ctx
        masks = mapped.stats().switch.used.values()
        assert any(m > 0xF for m in masks)  # activity beyond context 3

    def test_plane_histogram_bounded(self, eight_ctx):
        _, _, device = eight_ctx
        hist = device.distinct_planes_histogram()
        assert max(hist) <= 8


class TestGranularityOnDevice:
    def test_lb_reprogramming(self):
        from repro.arch.params import ArchParams

        params = ArchParams(cols=2, rows=2, n_contexts=4, lut_inputs=4)
        device = MultiContextFPGA(params)
        from repro.arch.geometry import Coord

        lb = device.logic_blocks[Coord(0, 0)]
        lb.set_granularity(1)
        assert lb.lut.n_inputs == 5
        assert lb.lut.n_planes == 2
        lb.set_granularity(0)
        assert lb.lut.n_planes == 4

    def test_device_wide_histogram_counts_all_tiles(self):
        from repro.arch.params import ArchParams

        params = ArchParams(cols=3, rows=2, n_contexts=4)
        device = MultiContextFPGA(params)
        hist = device.distinct_planes_histogram()
        assert sum(hist.values()) == 6
        assert hist.get(1) == 6  # untouched tiles hold one (zero) plane
