"""Tests for the equivalence-checking utilities."""

import pytest

from repro.analysis.verification import (
    Miter,
    assert_equivalent,
    equivalent,
    verify_device,
)
from repro.errors import SimulationError
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
