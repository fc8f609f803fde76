"""Differential gate: ``analyze_sharing`` signs each distinct structural
cone once per program, and its report must equal the per-context
oracle's (``tests/oracles/sharing_oracle.py``) exactly: groups in order,
each group's members in order, ``per_context_cells`` and
``unsignable``."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.workloads import WORKLOADS, build_circuit, build_program
from repro.errors import SynthesisError
from repro.netlist.dfg import MultiContextProgram, paper_example_program
from repro.netlist.logic import TruthTable
from repro.netlist.netlist import Netlist
from repro.netlist.sharing import analyze_sharing
from repro.netlist.synth import synthesize
from repro.netlist.techmap import tech_map
from repro.utils.telemetry import Telemetry, collecting
from sharing_digest_cases import programs
from sharing_oracle import analyze_sharing_per_context


def full_record(report):
    """Everything a report holds, in order."""
    return (
        [(g.signature, list(g.members.items())) for g in report.groups],
        list(report.per_context_cells.items()),
        report.unsignable,
    )


def assert_matches_oracle(program):
    assert full_record(analyze_sharing(program)) == \
        full_record(analyze_sharing_per_context(program))


def sharing_counters(program) -> dict:
    tel = Telemetry("sharing")
    with collecting(tel):
        analyze_sharing(program)
    return tel.counters


def test_digest_programs():
    checked = 0
    for _, program in programs():
        assert_matches_oracle(program)
        checked += 1
    assert checked == len(WORKLOADS) * 12


@pytest.mark.parametrize("mutation", [0.0, 0.3, 1.0])
def test_mutation_extremes(mutation):
    for name in WORKLOADS:
        base = build_circuit(name)
        for seed in (0, 1):
            assert_matches_oracle(build_program(name, 8, mutation, seed,
                                                base=base))


def test_one_context_programs():
    for name in WORKLOADS:
        program = build_program(name, 1, 0.05, 0)
        assert program.n_contexts == 1
        assert_matches_oracle(program)


def test_paper_example():
    assert_matches_oracle(paper_example_program())


def test_state_dependent_contexts_are_unsignable():
    """DFF outputs share one structural key: every cone reading state
    is unsignable, in the first context that has it and in every later
    one."""
    seq = tech_map(synthesize(["x", "y"], {"o": "(x ^ r) & y"},
                              registers={"r": "~r ^ y"}), k=4)
    comb = tech_map(synthesize(["x", "y"], {"o": "x ^ y"}), k=4)
    program = MultiContextProgram([seq, comb, seq.copy("again")])
    report = analyze_sharing(program)
    assert report.unsignable >= 2
    assert_matches_oracle(program)


def test_input_listed_after_its_reader():
    """Primary inputs are keyed before any LUT, wherever the netlist
    lists them, so a LUT added before its inputs keys like one added
    after."""
    late = Netlist("late")
    late.add_lut("g", ["b", "a"], "g_out", TruthTable(2, 0b0110))
    late.add_lut("h", ["g_out", "a"], "h_out", TruthTable(2, 0b1000))
    late.add_input("a")
    late.add_input("b")
    early = Netlist("early")
    early.add_input("a")
    early.add_input("b")
    early.add_lut("g", ["b", "a"], "g_out", TruthTable(2, 0b0110))
    early.add_lut("h", ["g_out", "a"], "h_out", TruthTable(2, 0b1000))
    program = MultiContextProgram([late, early])
    report = analyze_sharing(program)
    assert [sorted(g.members.items()) for g in report.groups] == [
        [(0, "g"), (1, "g")], [(0, "h"), (1, "h")]]
    assert_matches_oracle(program)
    assert sharing_counters(program) == {"sharing.cells": 4,
                                         "sharing.signed": 2}


def test_combinational_cycle_raises():
    ok = tech_map(synthesize(["a"], {"o": "~a"}), k=4)
    loop = Netlist("loop")
    loop.add_input("a")
    loop.add_lut("p", ["a", "q_out"], "p_out", TruthTable(2, 0b1000))
    loop.add_lut("q", ["p_out"], "q_out", TruthTable(1, 0b10))
    program = MultiContextProgram([ok, loop])
    for analyze in (analyze_sharing, analyze_sharing_per_context):
        with pytest.raises(SynthesisError, match="combinational cycle"):
            analyze(program)


@st.composite
def shuffled_programs(draw):
    """1-4 contexts over one random DAG (0-input LUTs, DFFs mid-cone,
    nets read twice by one LUT), each context with some tables changed
    and every cell added in a random order."""
    specs = []
    nets = [f"i{i}" for i in range(draw(st.integers(0, 4)))]
    specs.extend(("in", net) for net in nets)
    for k in range(draw(st.integers(1, 12))):
        if nets and draw(st.integers(0, 5)) == 0:
            d = draw(st.sampled_from(nets))
            specs.append(("dff", f"d{k}", d, f"q{k}"))
            nets.append(f"q{k}")
            continue
        arity = draw(st.integers(0, 3)) if nets else 0
        ins = [draw(st.sampled_from(nets)) for _ in range(arity)]
        bits = draw(st.integers(0, (1 << (1 << arity)) - 1))
        specs.append(("lut", f"c{k}", ins, f"n{k}", arity, bits))
        nets.append(f"n{k}")
    contexts = []
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    for c in range(draw(st.integers(1, 4))):
        netlist = Netlist(f"ctx{c}")
        for spec in rng.sample(specs, len(specs)):
            if spec[0] == "in":
                netlist.add_input(spec[1])
            elif spec[0] == "dff":
                netlist.add_dff(*spec[1:])
            else:
                _, name, ins, out, arity, bits = spec
                if rng.random() < 0.2:
                    bits = rng.randrange(1 << (1 << arity))
                netlist.add_lut(name, ins, out, TruthTable(arity, bits))
        contexts.append(netlist)
    return MultiContextProgram(contexts)


@settings(max_examples=120, deadline=None)
@given(shuffled_programs())
def test_random_shuffled_programs(program):
    assert_matches_oracle(program)

