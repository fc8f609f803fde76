"""Netlist frontend: BLIF/Verilog importers, decomposition, errors."""

import numpy as np
import pytest

from repro.errors import MappingError, RequestError, SynthesisError
from repro.netlist import Netlist
from repro.netlist.logic import random_lanes
from repro.netlist.frontend import (
    arch_for,
    decompose_wide,
    load_program,
    parse_blif,
    parse_source,
    parse_verilog,
    to_blif,
)

ADDER_BLIF = """\
# 2-bit adder with a carry latch
.model top
.inputs a0 a1 b0 b1
.outputs s0 s1 carry
.names a0 b0 s0
10 1
01 1
.names a0 b0 c0
11 1
.subckt fa x=a1 y=b1 ci=c0 s=s1 co=carry_next
.latch carry_next carry re clk 0
.end

.model fa
.inputs x y ci
.outputs s co
.names x y t
10 1
01 1
.names t ci s
10 1
01 1
.names x y ci co
11- 1
1-1 1
-11 1
.end
"""

ADDER_VERILOG = """\
module fulladd (x, y, cin, s, cout);
  input x, y, cin;
  output s, cout;
  wire t1, t2, t3;
  xor (t1, x, y);
  xor (s, t1, cin);
  and (t2, x, y);
  and (t3, t1, cin);
  or  (cout, t2, t3);
endmodule

module top (a0, a1, b0, b1, s0, s1, carry);
  input a0, a1, b0, b1;
  output s0, s1, carry;
  wire c0, c1, zero;
  assign zero = 1'b0;
  fulladd u0 (.x(a0), .y(b0), .cin(zero), .s(s0), .cout(c0));
  fulladd u1 (a1, b1, c0, s1, c1);
  dff q0 (carry, c1);
endmodule
"""


def _same_function(a: Netlist, b: Netlist, seed=0, n=64) -> bool:
    """Both netlists compute the same primary outputs (DFFs held at 0).

    Output cells are matched by driven-net name (the importers name
    POs ``po_<net>``).
    """
    rng = np.random.default_rng(seed)
    stim = {c.output: random_lanes(rng, n) for c in a.inputs()}
    va = a.evaluate_lanes(stim, n)
    vb = b.evaluate_lanes(stim, n)
    nets_a = sorted(c.inputs[0] for c in a.outputs())
    nets_b = sorted(c.inputs[0] for c in b.outputs())
    assert nets_a == nets_b
    return all(va[net] == vb[net] for net in nets_a)


class TestBlifImport:
    def test_flat_and_hierarchy(self):
        nl = parse_blif(ADDER_BLIF, "adder.blif")
        s = nl.stats()
        assert s["inputs"] == 4 and s["outputs"] == 3 and s["dffs"] == 1
        # the fa subckt flattened in: its internal nets carry the
        # instance prefix
        assert any("fa$" in name for name in nl.cells)

    def test_adder_function(self):
        nl = parse_blif(ADDER_BLIF, "adder.blif")
        # s = a + b (combinationally; carry-in latch held at 0)
        for a in range(4):
            for b in range(4):
                vals = nl.evaluate({
                    "a0": a & 1, "a1": a >> 1,
                    "b0": b & 1, "b1": b >> 1,
                })
                got = vals["s0"] | (vals["s1"] << 1)
                assert got == (a + b) & 3, (a, b)

    def test_export_reimport_round_trip(self):
        nl = parse_blif(ADDER_BLIF, "adder.blif")
        text = to_blif(nl)
        again = parse_blif(text, "rt.blif")
        # frontend-shaped netlists round-trip to a fixed point
        assert to_blif(again) == text
        assert _same_function(nl, again)

    def test_latch_policy_rejects_init_one(self):
        bad = (".model m\n.inputs d\n.outputs q\n"
               ".latch d q re clk 1\n.end\n")
        with pytest.raises(SynthesisError, match="powers on"):
            parse_blif(bad, "m.blif")

    def test_constant_covers(self):
        text = (".model m\n.inputs a\n.outputs one zero buf\n"
                ".names one\n1\n.names zero\n"
                ".names a buf\n1 1\n.end\n")
        nl = parse_blif(text, "m.blif")
        vals = nl.evaluate({"a": 1})
        assert (vals["one"], vals["zero"], vals["buf"]) == (1, 0, 1)

    def test_off_set_cover(self):
        # off-set rows: y=0 exactly on the listed cubes
        text = (".model m\n.inputs a b\n.outputs y\n"
                ".names a b y\n11 0\n.end\n")
        nl = parse_blif(text, "m.blif")
        assert nl.evaluate({"a": 1, "b": 1})["y"] == 0
        assert nl.evaluate({"a": 0, "b": 1})["y"] == 1


class TestBlifErrors:
    """Satellite: every importer failure is typed with file/line."""

    def test_unknown_directive(self):
        text = ".model m\n.inputs a\n.outputs y\n.bogus x\n.end\n"
        with pytest.raises(SynthesisError,
                           match=r"m\.blif:4: unknown BLIF directive"):
            parse_blif(text, "m.blif")

    def test_undriven_net(self):
        text = (".model m\n.inputs a\n.outputs y\n"
                ".names a ghost y\n11 1\n.end\n")
        with pytest.raises(SynthesisError,
                           match=r"m\.blif:4: .*undriven net 'ghost'"):
            parse_blif(text, "m.blif")

    def test_cover_arity_mismatch(self):
        text = (".model m\n.inputs a b\n.outputs y\n"
                ".names a b y\n111 1\n.end\n")
        with pytest.raises(SynthesisError,
                           match=r"m\.blif:\d+: cover row arity"):
            parse_blif(text, "m.blif")

    def test_combinational_cycle(self):
        text = (".model m\n.inputs a\n.outputs y\n"
                ".names a y x\n11 1\n.names x y\n1 1\n.end\n")
        with pytest.raises(SynthesisError,
                           match=r"m\.blif: .*combinational cycle"):
            parse_blif(text, "m.blif")

    def test_recursive_subckt(self):
        text = (".model a\n.inputs i\n.outputs o\n"
                ".subckt a i=i o=o\n.end\n")
        with pytest.raises(SynthesisError, match="recursive"):
            parse_blif(text, "a.blif")

    def test_mixed_cover_polarity(self):
        text = (".model m\n.inputs a b\n.outputs y\n"
                ".names a b y\n11 1\n00 0\n.end\n")
        with pytest.raises(SynthesisError, match="mix"):
            parse_blif(text, "m.blif")

    def test_no_model(self):
        with pytest.raises(SynthesisError, match="no .model"):
            parse_blif("# nothing here\n", "e.blif")


class TestVerilogImport:
    def test_hierarchy_and_function(self):
        nl = parse_verilog(ADDER_VERILOG, "adder.v")
        s = nl.stats()
        assert s["inputs"] == 4 and s["outputs"] == 3 and s["dffs"] == 1
        for a in range(4):
            for b in range(4):
                vals = nl.evaluate({
                    "a0": a & 1, "a1": a >> 1,
                    "b0": b & 1, "b1": b >> 1,
                })
                got = vals["s0"] | (vals["s1"] << 1)
                assert got == (a + b) & 3, (a, b)

    def test_export_to_blif_round_trip(self):
        nl = parse_verilog(ADDER_VERILOG, "adder.v")
        again = parse_blif(to_blif(nl), "rt.blif")
        assert _same_function(nl, again)

    def test_top_selection(self):
        # default top is the last module; explicit name overrides
        nl = parse_verilog(ADDER_VERILOG, "adder.v", top="fulladd")
        assert nl.name == "fulladd"
        assert len(nl.inputs()) == 3

    def test_gate_library_semantics(self):
        text = ("module m (a, b, y0, y1, y2, y3);\n"
                "  input a, b;\n"
                "  output y0, y1, y2, y3;\n"
                "  nand (y0, a, b);\n"
                "  nor  (y1, a, b);\n"
                "  xnor (y2, a, b);\n"
                "  buf  (y3, a);\n"
                "endmodule\n")
        nl = parse_verilog(text, "m.v")
        vals = nl.evaluate({"a": 1, "b": 0})
        assert (vals["y0"], vals["y1"], vals["y2"], vals["y3"]) \
            == (1, 0, 0, 1)

    def test_undeclared_net(self):
        text = ("module m (a, y);\n  input a;\n  output y;\n"
                "  and (y, a, ghost);\nendmodule\n")
        with pytest.raises(SynthesisError,
                           match=r"m\.v:4: undeclared net 'ghost'"):
            parse_verilog(text, "m.v")

    def test_unknown_primitive(self):
        text = ("module m (a, y);\n  input a;\n  output y;\n"
                "  frob (y, a);\nendmodule\n")
        with pytest.raises(SynthesisError,
                           match=r"m\.v:4: unknown gate or module"):
            parse_verilog(text, "m.v")

    def test_port_count_mismatch(self):
        text = ("module sub (a, y);\n  input a;\n  output y;\n"
                "  buf (y, a);\nendmodule\n"
                "module top (x, z);\n  input x;\n  output z;\n"
                "  sub u0 (x, z, x);\nendmodule\n")
        with pytest.raises(SynthesisError, match=r"2 port\(s\), got 3"):
            parse_verilog(text, "top.v")

    def test_recursive_module(self):
        text = ("module a (i, o);\n  input i;\n  output o;\n"
                "  a u0 (i, o);\nendmodule\n")
        with pytest.raises(SynthesisError, match="recursive"):
            parse_verilog(text, "a.v")


class TestDecompose:
    def test_narrow_passthrough_is_same_object(self):
        nl = parse_blif(ADDER_BLIF, "adder.blif")
        assert decompose_wide(nl, k=4) is nl

    def test_wide_cover_function_preserved(self):
        text = (".model w\n.inputs a b c d e f\n.outputs y\n"
                ".names a b c d e f y\n11---- 1\n--11-- 1\n----11 1\n"
                ".end\n")
        nl = parse_blif(text, "w.blif")
        out = decompose_wide(nl, k=4)
        assert max(c.table.n_inputs for c in out.luts()) <= 4
        assert _same_function(nl, out)

    def test_wide_needs_k3(self):
        text = (".model w\n.inputs a b c d e\n.outputs y\n"
                ".names a b c d e y\n11111 1\n.end\n")
        nl = parse_blif(text, "w.blif")
        with pytest.raises(MappingError, match="k >= 3"):
            decompose_wide(nl, k=2)


class TestLoadProgram:
    def test_multi_context(self):
        program, metas = load_program(
            [{"text": ADDER_BLIF, "format": "blif"},
             {"text": ADDER_VERILOG, "format": "verilog"}],
            k=4, name="demo")
        assert program.n_contexts == 2
        assert [m["format"] for m in metas] == ["blif", "verilog"]
        params = arch_for(program, grid=6, width=8, k=4)
        assert params.cols == params.rows == 6
        assert params.n_contexts == 2

    def test_unknown_format(self):
        with pytest.raises(SynthesisError, match="unknown netlist format"):
            parse_source("x", "vhdl")


class TestNetlistJson:
    def test_round_trip_exact(self):
        nl = parse_blif(ADDER_BLIF, "adder.blif")
        doc = nl.to_dict()
        again = Netlist.from_dict(doc)
        assert again.to_dict() == doc
        assert list(again.cells) == list(nl.cells)
        assert _same_function(nl, again)

    def test_bad_envelope(self):
        with pytest.raises(RequestError):
            Netlist.from_dict({"name": "x", "cells": []})

    def test_malformed_cell(self):
        doc = {"schema_version": 1, "type": "netlist", "name": "m",
               "cells": [{"kind": "lut"}]}
        with pytest.raises(SynthesisError, match="cell entry 0"):
            Netlist.from_dict(doc)
