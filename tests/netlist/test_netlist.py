"""Tests for the netlist container."""

import pytest

from repro.errors import SynthesisError
from repro.netlist.logic import TruthTable
from repro.netlist.netlist import Cell, CellKind, Netlist

AND = TruthTable.from_function(2, lambda a, b: a & b)
XOR = TruthTable.from_function(2, lambda a, b: a ^ b)


def small() -> Netlist:
    n = Netlist("t")
    n.add_input("a")
    n.add_input("b")
    n.add_lut("g1", ["a", "b"], "w1", AND)
    n.add_lut("g2", ["a", "w1"], "w2", XOR)
    n.add_output("o", "w2")
    return n


class TestConstruction:
    def test_duplicate_cell_rejected(self):
        n = small()
        with pytest.raises(SynthesisError):
            n.add_input("a")

    def test_multiple_drivers_rejected(self):
        n = small()
        with pytest.raises(SynthesisError):
            n.add_lut("g3", ["a"], "w1", TruthTable.identity())

    def test_lut_arity_checked(self):
        n = Netlist()
        n.add_input("a")
        with pytest.raises(SynthesisError):
            n.add_lut("g", ["a"], "w", AND)

    def test_validate_catches_undriven(self):
        n = Netlist()
        n.add_input("a")
        n.add_lut("g", ["a", "phantom"], "w", AND)
        with pytest.raises(SynthesisError):
            n.validate()

    def test_cycle_detected(self):
        n = Netlist()
        n.add_lut("g1", ["w2"], "w1", TruthTable.identity())
        n.add_lut("g2", ["w1"], "w2", TruthTable.identity())
        with pytest.raises(SynthesisError):
            n.topo_order()


class TestEvaluation:
    def test_evaluate_outputs(self):
        n = small()
        assert n.evaluate_outputs({"a": 1, "b": 1}) == {"o": 0}  # 1 ^ (1&1)
        assert n.evaluate_outputs({"a": 1, "b": 0}) == {"o": 1}

    def test_missing_input_rejected(self):
        with pytest.raises(SynthesisError):
            small().evaluate_outputs({"a": 1})

    def test_sequential_step(self):
        n = Netlist("ff")
        n.add_input("d")
        n.add_dff("r", "d", "q")
        n.add_output("o", "q")
        outs, state = n.step({"d": 1})
        assert outs == {"o": 0}  # reads pre-clock state
        outs, state = n.step({"d": 0}, state)
        assert outs == {"o": 1}

    def test_evaluate_batch_matches_scalar(self):
        n = small()
        stim = {"a": 0b1100, "b": 0b1010}
        batch = n.evaluate_lanes(stim, 4)
        for i in range(4):
            scalar = n.evaluate({k: (v >> i) & 1 for k, v in stim.items()})
            assert {k: (v >> i) & 1 for k, v in batch.items()} == scalar


class TestQueries:
    def test_stats(self):
        s = small().stats()
        assert s["luts"] == 2
        assert s["depth"] == 2
        assert s["inputs"] == 2

    def test_fanout(self):
        n = small()
        assert {c.name for c in n.fanout("a")} == {"g1", "g2"}

    def test_driver_cell(self):
        n = small()
        assert n.driver_cell("w1").name == "g1"
        with pytest.raises(SynthesisError):
            n.driver_cell("nope")

    def test_copy_independent(self):
        n = small()
        m = n.copy("copy")
        m.cells["g1"].table = XOR
        assert n.cells["g1"].table == AND

    def test_depth_empty(self):
        n = Netlist()
        n.add_input("a")
        n.add_output("o", "a")
        assert n.depth() == 0


class TestCellValidation:
    def test_output_cell_needs_one_input(self):
        with pytest.raises(SynthesisError):
            Cell("o", CellKind.OUTPUT, [], "")

    def test_input_cell_no_inputs(self):
        with pytest.raises(SynthesisError):
            Cell("i", CellKind.INPUT, ["x"], "y")

    def test_lut_needs_table(self):
        with pytest.raises(SynthesisError):
            Cell("g", CellKind.LUT, ["a"], "w", None)
