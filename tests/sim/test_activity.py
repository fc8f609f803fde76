"""Tests for switching-activity estimation."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.netlist.synth import synthesize
from repro.sim.activity import dynamic_logic_energy, estimate_activity
from repro.workloads.generators import parity_tree, ripple_adder


class TestRates:
    def test_constant_net_never_toggles(self):
        n = synthesize(["a"], {"o": "a & 0"})
        rep = estimate_activity(n, n_vectors=256, seed=1)
        # find the constant cell's output net
        const_nets = [
            c.output for c in n.luts() if c.table.is_constant()
        ]
        for net in const_nets:
            assert rep.rate(net) == 0.0

    def test_buffer_tracks_input(self):
        n = synthesize(["a"], {"o": "a & 1"})
        rep = estimate_activity(n, n_vectors=512, seed=2)
        # the AND-with-1 output toggles exactly when `a` does
        out_net = n.cells[n.outputs()[0].inputs[0] + ""] if False else n.outputs()[0].inputs[0]
        assert rep.rate(out_net) == pytest.approx(rep.rate("a"))

    def test_random_input_rate_near_half(self):
        n = parity_tree(4)
        rep = estimate_activity(n, n_vectors=4096, seed=3)
        assert rep.rate("x0") == pytest.approx(0.5, abs=0.05)

    def test_xor_output_toggles_more_than_and(self):
        n = synthesize(["a", "b"], {"x": "a ^ b", "y": "a & b"})
        rep = estimate_activity(n, n_vectors=4096, seed=4)
        xnet = n.outputs()[0].inputs[0] if n.outputs()[0].name == "x" else None
        x_net = next(c for c in n.outputs() if c.name == "x").inputs[0]
        y_net = next(c for c in n.outputs() if c.name == "y").inputs[0]
        assert rep.rate(x_net) > rep.rate(y_net)

    def test_deterministic(self):
        n = ripple_adder(2)
        a = estimate_activity(n, n_vectors=256, seed=7)
        b = estimate_activity(n, n_vectors=256, seed=7)
        assert a.rates == b.rates

    @pytest.mark.parametrize("n_vectors", [2, 64, 100])
    def test_counts_the_vectors_drawn(self, n_vectors):
        n = synthesize(["a"], {"o": "~a"})
        rep = estimate_activity(n, n_vectors=n_vectors, seed=9)
        assert rep.vectors == n_vectors
        # ~a toggles exactly when a does, over n_vectors - 1 pairs
        assert rep.rate("a") * (n_vectors - 1) == pytest.approx(
            round(rep.rate("a") * (n_vectors - 1)))
        out = n.outputs()[0].inputs[0]
        assert rep.rate(out) == rep.rate("a")

    def test_needs_two_vectors(self):
        with pytest.raises(SimulationError):
            estimate_activity(ripple_adder(1), n_vectors=1)

    def test_unknown_net(self):
        rep = estimate_activity(ripple_adder(1), n_vectors=64)
        with pytest.raises(SimulationError):
            rep.rate("ghost")


class TestAggregates:
    def test_hottest_sorted(self):
        rep = estimate_activity(ripple_adder(3), n_vectors=512, seed=5)
        hot = rep.hottest(3)
        assert len(hot) == 3
        assert hot[0][1] >= hot[1][1] >= hot[2][1]

    def test_energy_positive_for_active_circuit(self):
        n = ripple_adder(3)
        rep = estimate_activity(n, n_vectors=512, seed=6)
        assert dynamic_logic_energy(rep, n) > 0

    def test_mean_rate_bounded(self):
        rep = estimate_activity(parity_tree(6), n_vectors=512, seed=8)
        assert 0 <= rep.mean_rate() <= 1
