"""Tests for cross-context sharing analysis (Fig. 14)."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SynthesisError
from repro.netlist.dfg import paper_example_program
from repro.netlist.logic import TruthTable
from repro.netlist.netlist import CellKind, Netlist
from repro.netlist.sharing import (
    Signature,
    analyze_sharing,
    cell_signature,
    pack_global,
    pack_local,
)
from repro.netlist.synth import synthesize
from repro.netlist.techmap import tech_map
from repro.workloads.multicontext import mutated_program
from sharing_digest_cases import programs


def enumerated_signature(netlist, cell_name, max_support=12):
    """Oracle: the cell's cone evaluated once per input word, ``2**k``
    times over its sorted primary-input support."""
    support: list[str] = []

    def collect(net):
        driver = netlist.driver_cell(net)
        if driver.kind is CellKind.INPUT:
            if net not in support:
                support.append(net)
            return True
        if driver.kind is CellKind.DFF:
            return False
        return all(collect(in_net) for in_net in driver.inputs)

    cell = netlist.cells[cell_name]
    if not all(collect(net) for net in cell.inputs):
        return None
    support.sort()
    if len(support) > max_support:
        return None

    def evaluate(net, values):
        if net not in values:
            driver = netlist.driver_cell(net)
            word = 0
            for j, in_net in enumerate(driver.inputs):
                word |= evaluate(in_net, values) << j
            values[net] = driver.table.evaluate(word)
        return values[net]

    bits = 0
    for word in range(1 << len(support)):
        values = {name: (word >> j) & 1 for j, name in enumerate(support)}
        bits |= evaluate(cell.output, values) << word
    return Signature(tuple(support), bits)


def ladder(depth):
    """Reconvergent XOR ladder over inputs a, b: each LUT reads the
    previous two nets, the shape of an imported ripple-carry chain."""
    n = Netlist("ladder")
    n.add_input("a")
    n.add_input("b")
    nets = ["a", "b"]
    for i in range(depth):
        n.add_lut(f"x{i}", nets[-2:], f"n{i}", TruthTable(2, 0b0110))
        nets.append(f"n{i}")
    return n


@st.composite
def small_netlists(draw):
    """Random netlists with 0-input LUTs, nets read twice by one LUT
    and DFFs mid-cone."""
    n = Netlist("random")
    nets = []
    for i in range(draw(st.integers(0, 5))):
        nets.append(n.add_input(f"i{i}").output)
    for k in range(draw(st.integers(1, 10))):
        if nets and draw(st.integers(0, 4)) == 0:
            nets.append(n.add_dff(f"d{k}", draw(st.sampled_from(nets)), f"q{k}").output)
            continue
        arity = draw(st.integers(0, 4)) if nets else 0
        ins = [draw(st.sampled_from(nets)) for _ in range(arity)]
        bits = draw(st.integers(0, (1 << (1 << arity)) - 1))
        nets.append(n.add_lut(f"c{k}", ins, f"n{k}", TruthTable(arity, bits)).output)
    return n


class TestSignatures:
    def test_identical_functions_match(self):
        """Structurally different, semantically equal cones share."""
        a = synthesize(["x", "y"], {"o": "~(~x | ~y)"})  # = x & y
        b = synthesize(["x", "y"], {"o": "x & y"})
        sig_a = cell_signature(a, a.outputs()[0].inputs[0] + "_cell"
                               if False else a.driver_cell(a.outputs()[0].inputs[0]).name)
        sig_b = cell_signature(b, b.driver_cell(b.outputs()[0].inputs[0]).name)
        assert sig_a == sig_b

    def test_different_functions_differ(self):
        a = synthesize(["x", "y"], {"o": "x & y"})
        b = synthesize(["x", "y"], {"o": "x | y"})
        sig_a = cell_signature(a, a.driver_cell(a.outputs()[0].inputs[0]).name)
        sig_b = cell_signature(b, b.driver_cell(b.outputs()[0].inputs[0]).name)
        assert sig_a != sig_b

    def test_state_dependent_unsignable(self):
        n = synthesize(["x"], {"o": "x ^ r"}, registers={"r": "~r"})
        cell = n.driver_cell(n.outputs()[0].inputs[0])
        assert cell_signature(n, cell.name) is None


class TestEnumerationOracle:
    def test_digest_programs(self):
        checked = 0
        for _, prog in programs():
            for netlist in prog.contexts:
                for cell in netlist.luts():
                    assert cell_signature(netlist, cell.name) == \
                        enumerated_signature(netlist, cell.name), cell.name
                    checked += 1
        assert checked > 1000

    def test_paper_example(self):
        for netlist in paper_example_program().contexts:
            for cell in netlist.luts():
                assert cell_signature(netlist, cell.name) == \
                    enumerated_signature(netlist, cell.name)

    @settings(max_examples=150, deadline=None)
    @given(small_netlists(), st.integers(0, 5))
    def test_random_netlists(self, netlist, max_support):
        for cell in netlist.luts():
            assert cell_signature(netlist, cell.name, max_support) == \
                enumerated_signature(netlist, cell.name, max_support)

    @pytest.mark.parametrize("max_support", [3, 12])
    def test_support_bound_is_inclusive(self, max_support):
        """A chain whose k-th LUT has support k: signed up to exactly
        ``max_support``, unsignable from ``max_support + 1``."""
        n = Netlist("chain")
        prev = n.add_input("i1").output
        for k in range(2, max_support + 2):
            pi = n.add_input(f"i{k}").output
            prev = n.add_lut(f"c{k}", [prev, pi], f"n{k}",
                             TruthTable(2, 0b1001)).output
        at_bound = cell_signature(n, f"c{max_support}", max_support)
        assert len(at_bound.support) == max_support
        assert at_bound == enumerated_signature(n, f"c{max_support}", max_support)
        assert cell_signature(n, f"c{max_support + 1}", max_support) is None

    def test_constant_lut(self):
        n = Netlist("const")
        n.add_lut("one", [], "vdd", TruthTable(0, 1))
        n.add_lut("zero", [], "gnd", TruthTable(0, 0))
        assert cell_signature(n, "one") == Signature((), 1)
        assert cell_signature(n, "zero") == Signature((), 0)


class TestReconvergentCones:
    def test_deep_ladder_signs_in_bounded_time(self):
        """Memoised supports: a 200-deep ladder would take minutes if
        reconvergent fan-in were re-walked per path."""
        n = ladder(200)
        signatures = {}
        worker = threading.Thread(
            target=lambda: signatures.update(
                (c.name, cell_signature(n, c.name)) for c in n.luts()
            ),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "signing the ladder took over 10 s"
        # a ^ b, then a, then b, repeating
        for i in range(200):
            assert signatures[f"x{i}"] == Signature(("a", "b"), (0x6, 0xA, 0xC)[i % 3])

    def test_combinational_cycle_raises(self):
        n = Netlist("loop")
        n.add_input("a")
        n.add_lut("p", ["a", "q_out"], "p_out", TruthTable(2, 0b1000))
        n.add_lut("q", ["p_out"], "q_out", TruthTable(1, 0b10))
        with pytest.raises(SynthesisError, match="cycle"):
            cell_signature(n, "p")


class TestSharingAnalysis:
    def test_paper_example_groups(self):
        """O2 and O3 form the two cross-context groups (Fig. 14(a))."""
        rep = analyze_sharing(paper_example_program())
        assert len(rep.shared_groups) == 2
        shared_names = {
            tuple(sorted(g.members.values())) for g in rep.shared_groups
        }
        assert ("O2", "O2") in shared_names
        assert ("O3", "O3") in shared_names

    def test_sharing_fraction(self):
        rep = analyze_sharing(paper_example_program())
        assert rep.sharing_fraction() == pytest.approx(4 / 6)

    def test_identical_contexts_fully_shared(self):
        base = tech_map(synthesize(["a", "b"], {"o": "a ^ b"}), k=4)
        prog = mutated_program(base, n_contexts=4, fraction=0.0)
        rep = analyze_sharing(prog)
        assert rep.sharing_fraction() == 1.0


class TestPacking:
    def test_paper_result_3_vs_2_lbs(self):
        """The headline of Figs. 13-14: global needs 3 LBs, local 2."""
        prog = paper_example_program()
        assert pack_global(prog).n_lbs == 3
        assert pack_local(prog).n_lbs == 2

    def test_global_stores_redundant_planes(self):
        g = pack_global(paper_example_program())
        assert g.redundant_planes > 0

    def test_local_stores_no_redundant_planes(self):
        l = pack_local(paper_example_program())
        assert l.redundant_planes == 0

    def test_local_never_worse(self):
        base = tech_map(
            synthesize(["a", "b", "c"], {"o1": "a & b | c", "o2": "a ^ c"}),
            k=4,
        )
        for frac in (0.0, 0.3, 1.0):
            prog = mutated_program(base, n_contexts=4, fraction=frac, seed=9)
            assert pack_local(prog).n_lbs <= pack_global(prog).n_lbs
