"""Tests for the equivalence-checking utilities."""

import numpy as np
import pytest

from repro.analysis.verification import (
    EXHAUSTIVE_LIMIT,
    Miter,
    assert_equivalent,
    equivalent,
    verify_device,
)
from repro.errors import SimulationError
from repro.netlist.logic import TruthTable, random_lanes
from repro.netlist.netlist import Netlist
from repro.netlist.synth import synthesize
from repro.netlist.techmap import tech_map
from repro.workloads.generators import ripple_adder


class TestEquivalent:
    def test_identical_netlists(self):
        a = ripple_adder(2)
        r = equivalent(a, a.copy("b"))
        assert r.equivalent
        assert r.exhaustive

    def test_synth_vs_mapped(self):
        a = ripple_adder(3)
        b = tech_map(a, k=4)
        assert equivalent(a, b).equivalent

    def test_detects_difference_with_counterexample(self):
        a = synthesize(["x", "y"], {"o": "x & y"})
        b = synthesize(["x", "y"], {"o": "x | y"})
        r = equivalent(a, b)
        assert not r.equivalent
        assert r.mismatched_output == "o"
        cex = r.counterexample
        assert a.evaluate_outputs(cex) != b.evaluate_outputs(cex)

    def test_io_mismatch_rejected(self):
        a = synthesize(["x"], {"o": "~x"})
        b = synthesize(["y"], {"o": "~y"})
        with pytest.raises(SimulationError):
            equivalent(a, b)

    def test_assert_raises_on_mismatch(self):
        a = synthesize(["x"], {"o": "x"})
        b = synthesize(["x"], {"o": "~x"})
        with pytest.raises(SimulationError, match="differ"):
            assert_equivalent(a, b)

    def test_subtle_single_minterm_difference(self):
        a = synthesize(["x", "y", "z"], {"o": "(x & y) | z"})
        b = synthesize(["x", "y", "z"], {"o": "((x & y) | z) & ~(x & y & z)"})
        r = equivalent(a, b)
        assert not r.equivalent
        assert r.counterexample == {"x": 1, "y": 1, "z": 1}


def wide_pair(table_b: int) -> tuple[Netlist, Netlist]:
    """Buffer of ``x0`` vs another one-input function of ``x0``, over
    one input more than exhaustive checking takes."""
    pair = []
    for bits in (0b10, table_b):
        n = Netlist(f"t{bits}")
        for i in range(EXHAUSTIVE_LIMIT + 1):
            n.add_input(f"x{i}")
        n.add_lut("f", ["x0"], "y", TruthTable(1, bits))
        n.add_output("o", "y")
        pair.append(n)
    return pair[0], pair[1]


class TestRandomMode:
    @pytest.mark.parametrize("n_random", [1, 63, 64, 100])
    def test_vectors_checked_are_the_vectors_drawn(self, n_random):
        a, b = wide_pair(0b10)
        r = equivalent(a, b, n_random=n_random)
        assert r.equivalent and not r.exhaustive
        assert r.vectors_checked == n_random

    def test_every_lane_is_drawn(self):
        """Each vector differs, so the counterexample is the vector on
        the first lane: a drawn one, not always all zeros."""
        a, b = wide_pair(0b01)
        seen = set()
        for seed in range(8):
            r = equivalent(a, b, n_random=64, seed=seed)
            assert not r.equivalent and r.mismatched_output == "o"
            assert a.evaluate_outputs(r.counterexample) != b.evaluate_outputs(
                r.counterexample)
            seen.add(tuple(sorted(r.counterexample.items())))
        assert len(seen) > 1

    def test_random_lanes_set_every_bit(self):
        rng = np.random.default_rng(0)
        words = [random_lanes(rng, 128) for _ in range(200)]
        for lane in (0, 62, 63, 64, 127):
            ones = sum((w >> lane) & 1 for w in words)
            assert 60 < ones < 140
        assert all(w >> 128 == 0 for w in words)


class TestMiter:
    def test_equivalent_never_differs(self):
        a = ripple_adder(2)
        b = tech_map(a, k=4)
        m = Miter(a, b)
        import itertools

        names = [c.name for c in a.inputs()]
        for vals in itertools.product([0, 1], repeat=len(names)):
            assert not m.differs_on(dict(zip(names, vals)))

    def test_different_netlists_differ_somewhere(self):
        a = synthesize(["x", "y"], {"o": "x ^ y"})
        b = synthesize(["x", "y"], {"o": "x & y"})
        m = Miter(a, b)
        assert any(
            m.differs_on({"x": x, "y": y})
            for x in (0, 1) for y in (0, 1)
        )


class TestVerifyDevice:
    def test_configured_device_passes(self):
        from repro.analysis.experiments import map_program
        from repro.core.fpga import MultiContextFPGA
        from repro.workloads.multicontext import mutated_program

        base = tech_map(synthesize(["a", "b"], {"o": "a ^ b"}), k=4)
        prog = mutated_program(base, n_contexts=2, fraction=0.5, seed=2)
        mapped = map_program(prog, seed=1, effort=0.3)
        device = MultiContextFPGA(mapped.params)
        device.configure_program(prog, mapped.placements, mapped.routes)
        assert verify_device(device, prog, n_vectors=16) == 32
        # a flipped plane bit fails with verify_against_source's message
        placement = device._placements[0]
        lut = device.logic_blocks[placement.cells[prog.contexts[0].luts()[0].name]].lut
        lut.memory[0, lut.plane_for_context(0) * lut.plane_bits:][:4] ^= 1
        with pytest.raises(SimulationError, match="context 0 fabric mismatch"):
            verify_device(device, prog, n_vectors=16)
        with pytest.raises(SimulationError, match="not configured with this program"):
            verify_device(device, mutated_program(base, 2, 0.5, seed=2))
