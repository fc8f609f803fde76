"""Tests for the MCMG-LUT (paper Fig. 12)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mcmg_lut import MCMGGeometry, MCMGLut, equivalent_settings
from repro.errors import ConfigurationError


def fig12_geometry() -> MCMGGeometry:
    """Fig. 12: 4-input base, 4 contexts (64 memory bits)."""
    return MCMGGeometry(base_inputs=4, n_contexts=4)


class TestGeometry:
    def test_fig12_settings(self):
        """4-in x 4 planes <-> 5-in x 2 planes <-> 6-in x 1 plane."""
        assert equivalent_settings(fig12_geometry()) == [
            (0, 4, 4), (1, 5, 2), (2, 6, 1),
        ]

    def test_memory_bits_invariant(self):
        """The defining property: granularity never changes memory size."""
        g = fig12_geometry()
        lut = MCMGLut(g)
        for e, n_in, n_planes in equivalent_settings(g):
            lut.set_granularity(e)
            assert lut.plane_bits * lut.n_planes == g.memory_bits_per_output
            assert lut.n_inputs == n_in
            assert lut.n_planes == n_planes

    def test_paper_evaluation_geometry(self):
        """Section 5: 6-input 2-output MCMG-LUTs."""
        g = MCMGGeometry(base_inputs=6, n_contexts=4, n_outputs=2)
        assert g.memory_bits == 2 * 4 * 64

    def test_invalid_geometry(self):
        with pytest.raises(ConfigurationError):
            MCMGGeometry(base_inputs=0, n_contexts=4)
        with pytest.raises(ConfigurationError):
            MCMGGeometry(base_inputs=4, n_contexts=3)


class TestPlaneSelection:
    def test_four_planes_use_full_context(self):
        lut = MCMGLut(fig12_geometry(), granularity=0)
        assert [lut.plane_for_context(c) for c in range(4)] == [0, 1, 2, 3]

    def test_two_planes_use_s0_only(self):
        """Fig. 12(b): the 5-input setting selects planes by S0 alone."""
        lut = MCMGLut(fig12_geometry(), granularity=1)
        assert [lut.plane_for_context(c) for c in range(4)] == [0, 1, 0, 1]

    def test_single_plane_ignores_context(self):
        lut = MCMGLut(fig12_geometry(), granularity=2)
        assert [lut.plane_for_context(c) for c in range(4)] == [0, 0, 0, 0]


class TestEvaluation:
    def test_four_input_mode_distinct_planes(self):
        lut = MCMGLut(fig12_geometry(), granularity=0)
        lut.load_function(0, lambda a, b, c, d: a & b)
        lut.load_function(1, lambda a, b, c, d: a | b)
        assert lut.evaluate(0, 0b0011) == 1  # AND in ctx0
        assert lut.evaluate(1, 0b0001) == 1  # OR in ctx1

    def test_five_input_mode(self):
        lut = MCMGLut(fig12_geometry(), granularity=1)
        lut.load_function(0, lambda a, b, c, d, e: a ^ b ^ c ^ d ^ e)
        assert lut.evaluate(0, 0b10101) == 1
        assert lut.evaluate(2, 0b10101) == 1  # ctx2 selects plane 0 too

    def test_evaluate_vector_matches_scalar(self):
        lut = MCMGLut(fig12_geometry(), granularity=0)
        lut.load_function(0, lambda a, b, c, d: (a & b) | (c & d))
        words = np.arange(16)
        vec = lut.evaluate_vector(0, words)
        for w in words:
            assert vec[w] == lut.evaluate(0, int(w))

    def test_input_out_of_range(self):
        lut = MCMGLut(fig12_geometry())
        with pytest.raises(ConfigurationError):
            lut.evaluate(0, 16)

    def test_plane_out_of_range(self):
        lut = MCMGLut(fig12_geometry(), granularity=1)
        with pytest.raises(ConfigurationError):
            lut.load_plane(2, np.zeros(32, dtype=np.uint8))

    def test_wrong_plane_size(self):
        lut = MCMGLut(fig12_geometry(), granularity=0)
        with pytest.raises(ConfigurationError):
            lut.load_plane(0, np.zeros(32, dtype=np.uint8))


class TestGranularityTrade:
    """The Fig. 12 equivalence: one 5-input LUT == two 4-input planes."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_five_input_emulates_two_four_input_planes(self, bits_a, bits_b):
        """A 5-input single... two-plane LUT whose extra input selects
        between two 4-input tables equals a 4-input LUT swapping planes
        on S0."""
        g = fig12_geometry()
        # 4-input mode, planes 0/1 hold tables A/B
        lut4 = MCMGLut(g, granularity=0)
        lut4.load_plane(0, np.array([(bits_a >> i) & 1 for i in range(16)], dtype=np.uint8))
        lut4.load_plane(1, np.array([(bits_b >> i) & 1 for i in range(16)], dtype=np.uint8))
        # 5-input mode, plane 0 = concat(A, B): input 4 acts as selector
        lut5 = MCMGLut(g, granularity=1)
        concat = np.array(
            [(bits_a >> i) & 1 for i in range(16)]
            + [(bits_b >> i) & 1 for i in range(16)],
            dtype=np.uint8,
        )
        lut5.load_plane(0, concat)
        for word in range(16):
            assert lut4.evaluate(0, word) == lut5.evaluate(0, word)          # sel=0 -> A
            assert lut4.evaluate(1, word) == lut5.evaluate(0, word | 0b10000)  # sel=1 -> B

    def test_distinct_planes_counts_content(self):
        lut = MCMGLut(fig12_geometry(), granularity=0)
        lut.load_function(0, lambda a, b, c, d: a)
        lut.load_function(1, lambda a, b, c, d: a)
        lut.load_function(2, lambda a, b, c, d: b)
        # planes: {a, a, b, zeros} -> 3 distinct contents
        assert lut.distinct_planes() == 3

    def test_distinct_planes_single_function(self):
        lut = MCMGLut(fig12_geometry(), granularity=0)
        for p in range(4):
            lut.load_function(p, lambda a, b, c, d: a ^ b)
        assert lut.distinct_planes() == 1


class TestGranularityChecks:
    def test_checked_once_per_setting(self, monkeypatch):
        calls = []
        check = MCMGGeometry._check_gran
        monkeypatch.setattr(MCMGGeometry, "_check_gran",
                            lambda self, g: calls.append(g) or check(self, g))
        lut = MCMGLut(fig12_geometry())
        assert calls == [0]
        for _ in range(10):
            assert (lut.n_inputs, lut.n_planes, lut.plane_bits) == (4, 4, 16)
            lut.plane_for_context(3)
            lut.evaluate(3, 5)
        assert calls == [0]
        lut.set_granularity(2)
        assert calls == [0, 2]
        assert (lut.n_inputs, lut.n_planes, lut.plane_bits) == (6, 1, 64)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_bad_granularity_still_raises(self, bad):
        with pytest.raises(ConfigurationError, match="out of range"):
            MCMGLut(fig12_geometry(), granularity=bad)
        lut = MCMGLut(fig12_geometry(), granularity=1)
        with pytest.raises(ConfigurationError, match="out of range"):
            lut.set_granularity(bad)
        # a rejected setting leaves the LUT as it was
        assert (lut.granularity, lut.n_inputs, lut.n_planes) == (1, 5, 2)
