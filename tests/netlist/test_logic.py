"""Tests for truth tables."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SynthesisError
from repro.netlist.logic import TruthTable, mux_table

tables3 = st.integers(0, 255).map(lambda b: TruthTable(3, b))


class TestConstruction:
    def test_from_function(self):
        t = TruthTable.from_function(2, lambda a, b: a & b)
        assert t.bits == 0b1000

    def test_constant(self):
        assert TruthTable.constant(1, 2).bits == 0b1111
        assert TruthTable.constant(0, 2).bits == 0

    def test_identity_inverter(self):
        assert TruthTable.identity()(0) == 0
        assert TruthTable.identity()(1) == 1
        assert TruthTable.inverter()(0) == 1

    def test_var(self):
        t = TruthTable.var(1, 3)
        for w in range(8):
            assert t.evaluate(w) == (w >> 1) & 1

    def test_from_array_roundtrip(self):
        t = TruthTable.from_function(2, lambda a, b: a ^ b)
        assert TruthTable.from_array(t.to_array()) == t

    def test_too_many_inputs(self):
        with pytest.raises(SynthesisError):
            TruthTable(17, 0)

    def test_bits_out_of_range(self):
        with pytest.raises(SynthesisError):
            TruthTable(1, 5)


class TestEvaluation:
    @given(st.integers(0, 255), st.integers(0, 7))
    def test_evaluate_is_bit_lookup(self, bits, word):
        assert TruthTable(3, bits).evaluate(word) == (bits >> word) & 1

    def test_call_checks_arity(self):
        with pytest.raises(SynthesisError):
            TruthTable.identity()(0, 1)

    def test_call_checks_binary(self):
        with pytest.raises(SynthesisError):
            TruthTable.identity()(2)


class TestStructure:
    def test_support(self):
        t = TruthTable.from_function(3, lambda a, b, c: a ^ c)
        assert t.support() == (0, 2)

    def test_is_constant(self):
        assert TruthTable.constant(0, 3).is_constant()
        assert not TruthTable.var(0, 3).is_constant()

    @given(tables3, st.integers(0, 2), st.integers(0, 1))
    def test_cofactor_agrees(self, t, idx, val):
        cof = t.cofactor(idx, val)
        assert cof.n_inputs == 2
        pos = 0
        for w in range(8):
            if (w >> idx) & 1 == val:
                assert cof.evaluate(pos) == t.evaluate(w)
                pos += 1

    @given(tables3)
    def test_shrink_to_support_preserves_function(self, t):
        small, kept = t.shrink_to_support()
        assert small.n_inputs == len(kept)
        for w in range(8):
            word = 0
            for j, orig in enumerate(kept):
                word |= ((w >> orig) & 1) << j
            assert small.evaluate(word) == t.evaluate(
                sum(((w >> o) & 1) << o for o in kept)
            )


class TestCompose:
    def test_mux_compose(self):
        """mux(s, a0, a1) with s=x0, a0=x1, a1=x2."""
        m = mux_table()
        composed = m.compose(
            [TruthTable.var(1, 3), TruthTable.var(2, 3), TruthTable.var(0, 3)]
        )
        for w in range(8):
            x0, x1, x2 = w & 1, (w >> 1) & 1, (w >> 2) & 1
            expected = x2 if x0 else x1
            assert composed.evaluate(w) == expected

    def test_arity_mismatch(self):
        with pytest.raises(SynthesisError):
            mux_table().compose([TruthTable.identity()])


class TestOperators:
    @given(tables3, tables3)
    def test_de_morgan(self, a, b):
        assert ~(a & b) == (~a | ~b)

    @given(tables3)
    def test_xor_self_is_zero(self, a):
        assert (a ^ a).is_constant()
        assert (a ^ a).bits == 0

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(SynthesisError):
            TruthTable.identity() & TruthTable.constant(0, 2)


def _to_array_by_bit(t: TruthTable) -> np.ndarray:
    """``to_array`` as one list item per bit (the original form)."""
    return np.array([(t.bits >> i) & 1 for i in range(1 << t.n_inputs)],
                    dtype=np.uint8)


class TestToArray:
    def test_every_table_up_to_four_inputs(self):
        for n in range(5):
            for bits in range(1 << (1 << n)):
                t = TruthTable(n, bits)
                got = t.to_array()
                assert got.dtype == np.uint8 and got.flags.writeable
                assert got.tobytes() == _to_array_by_bit(t).tobytes()

    def test_random_tables_up_to_sixteen_inputs(self):
        rng = np.random.default_rng(7)
        for n in range(5, 17):
            for _ in range(3):
                bits = int.from_bytes(rng.bytes(1 << max(0, n - 3)), "little")
                t = TruthTable(n, bits & ((1 << (1 << n)) - 1))
                assert t.to_array().tobytes() == _to_array_by_bit(t).tobytes()
