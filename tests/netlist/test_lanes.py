"""The lane walk (``Netlist.evaluate_lanes``) against scalar evaluation.

A lane word holds one net's value in every vector: bit ``i`` is vector
``i``.  Every lane of every net must equal what the scalar
``Netlist.evaluate`` computes for that vector alone, at lane counts on
both sides of a 64-bit word, over exhaustive stimulus, and on netlists
without inputs or with DFFs (held at 0).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SynthesisError
from repro.netlist.logic import TruthTable, projections, random_lanes
from repro.netlist.netlist import Netlist
from repro.netlist.synth import synthesize
from repro.workloads.generators import random_dag, ripple_adder

WIDTHS = (1, 5, 63, 64, 65, 128)


def assert_lanes_match_scalar(netlist: Netlist, stimulus: dict, lanes: int):
    got = netlist.evaluate_lanes(stimulus, lanes)
    for lane in range(lanes):
        vec = {c.output: (stimulus[c.output] >> lane) & 1
               for c in netlist.inputs()}
        want = netlist.evaluate(vec)
        assert {net: (word >> lane) & 1 for net, word in got.items()} == want


class TestCorrectness:
    @pytest.mark.parametrize("lanes", WIDTHS)
    def test_matches_scalar_evaluation(self, lanes):
        n = ripple_adder(2)
        rng = np.random.default_rng(lanes)
        stim = {c.output: random_lanes(rng, lanes) for c in n.inputs()}
        assert_lanes_match_scalar(n, stim, lanes)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(WIDTHS))
    def test_random_dags(self, seed, lanes):
        n = random_dag(n_inputs=4, n_gates=8, n_outputs=2, seed=seed)
        rng = np.random.default_rng(seed)
        stim = {c.output: random_lanes(rng, lanes) for c in n.inputs()}
        assert_lanes_match_scalar(n, stim, lanes)

    @pytest.mark.parametrize("k", [1, 3, 6, 10])
    def test_exhaustive_lanes(self, k):
        """Over the projection masks, lane ``w`` is input word ``w``."""
        n = random_dag(n_inputs=k, n_gates=12, n_outputs=2, seed=k)
        names = [c.output for c in n.inputs()]
        stim = dict(zip(names, projections(k)[1]))
        assert_lanes_match_scalar(n, stim, 1 << k)

    def test_constant_cells(self):
        n = synthesize(["a"], {"o": "a & 1"})
        out = n.evaluate_lanes({"a": 0xF0}, 8)
        assert out[n.cells["o"].inputs[0]] == 0xF0

    @pytest.mark.parametrize("lanes", WIDTHS)
    def test_input_less_netlist(self, lanes):
        n = synthesize([], {"o": "1", "p": "0"})
        assert_lanes_match_scalar(n, {}, lanes)
        out = n.evaluate_lanes({}, lanes)
        assert out[n.cells["o"].inputs[0]] == (1 << lanes) - 1

    @pytest.mark.parametrize("lanes", WIDTHS)
    def test_dffs_held_at_zero(self, lanes):
        n = synthesize(["a"], {"o": "a ^ r0", "q": "~r1"},
                       registers={"r0": "~r0", "r1": "a & r0"})
        assert n.dffs()
        rng = np.random.default_rng(lanes)
        assert_lanes_match_scalar(n, {"a": random_lanes(rng, lanes)}, lanes)


class TestProjections:
    @pytest.mark.parametrize("k", range(11))
    def test_projection_is_var_table(self, k):
        full, masks = projections(k)
        assert full == (1 << (1 << k)) - 1
        assert masks == tuple(TruthTable.var(j, k).bits for j in range(k))

    @pytest.mark.parametrize("k", [16, 18])
    def test_wide_projections(self, k):
        full, masks = projections(k)
        rng = np.random.default_rng(k)
        for w in [0, 1, (1 << k) - 1, *rng.integers(1 << k, size=64).tolist()]:
            assert [(m >> w) & 1 for m in masks] == [
                (w >> j) & 1 for j in range(k)]
        assert all(m.bit_length() == 1 << k for m in masks)


class TestErrors:
    def test_missing_stimulus(self):
        n = ripple_adder(1)
        with pytest.raises(SynthesisError, match="missing stimulus"):
            n.evaluate_lanes({})

    def test_word_wider_than_lanes(self):
        n = synthesize(["a", "b"], {"o": "a ^ b"})
        with pytest.raises(SynthesisError, match="exceeds 1 lanes"):
            n.evaluate_lanes({"a": 0, "b": 2}, 1)
        with pytest.raises(SynthesisError, match="exceeds 4 lanes"):
            n.evaluate_lanes({"a": -1, "b": 0}, 4)
