"""``NetlistIndex`` against a name-keyed oracle, and who builds it.

The oracle below derives every index field straight from the cell
dicts, the slow way (a scan of every cell per net), so a wrong id, row
or order in the index shows up as a difference.  Random netlists carry
DFFs (some in feedback loops), a net read twice by one cell, nets no
cell reads, outputs fed straight by an input, 0-input LUTs and a cell
order that is not topological.  The counting tests show that endpoint
extraction and placement set-up read each input pin once.
"""

import ast
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.compiled import flat_rrg_for
from repro.arch.params import ArchParams
from repro.netlist.index import NetlistIndex
from repro.netlist.logic import TruthTable
from repro.netlist.netlist import Cell, CellKind, Netlist
from repro.netlist.synth import synthesize
from repro.place.placer import place
from repro.route.pathfinder import _net_endpoints
from repro.workloads.generators import random_dag
from repro.workloads.multicontext import mutate_netlist

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


# -- random netlists -------------------------------------------------------- #
@st.composite
def netlists(draw) -> Netlist:
    """A valid netlist with the features listed in the module docstring,
    its cells added in a drawn order."""
    n_in = draw(st.integers(1, 4))
    n_dff = draw(st.integers(0, 2))
    n_lut = draw(st.integers(0, 7))
    cells = [Cell(f"i{k}", CellKind.INPUT, [], f"pi{k}") for k in range(n_in)]
    nets = [f"pi{k}" for k in range(n_in)] + [f"q{k}" for k in range(n_dff)]
    for k in range(n_lut):
        n = draw(st.integers(0, 3))
        # drawn with replacement: a LUT may read one net twice
        ins = draw(st.lists(st.sampled_from(nets), min_size=n, max_size=n))
        bits = draw(st.integers(0, (1 << (1 << n)) - 1))
        cells.append(Cell(f"l{k}", CellKind.LUT, ins, f"n{k}",
                          TruthTable(n, bits)))
        nets.append(f"n{k}")
    # D inputs read any net, so a DFF may close a loop through LUTs
    for k in range(n_dff):
        cells.append(Cell(f"d{k}", CellKind.DFF,
                          [draw(st.sampled_from(nets))], f"q{k}"))
    for k in range(draw(st.integers(1, 3))):
        cells.append(Cell(f"o{k}", CellKind.OUTPUT,
                          [draw(st.sampled_from(nets))], ""))
    # an output straight off a primary input
    cells.append(Cell("o_pi", CellKind.OUTPUT, ["pi0"], ""))
    nl = Netlist("random")
    for cell in draw(st.permutations(cells)):
        nl.add_cell(cell)
    nl.validate()
    return nl


# -- the oracle ------------------------------------------------------------- #
def _oracle(nl: Netlist) -> dict:
    """Every field of the index, derived from the cells by name."""
    cells = list(nl.cells.values())
    cid = {c.name: i for i, c in enumerate(cells)}
    nets = list(nl.net_driver)
    for c in cells:
        for net in c.inputs:
            if net not in nets:
                nets.append(net)
    kinds = [CellKind.INPUT, CellKind.OUTPUT, CellKind.LUT, CellKind.DFF]
    pins = [[(i, s) for i, c in enumerate(cells)
             for s, n in enumerate(c.inputs) if n == net] for net in nets]
    luts = [c for c in cells if c.kind is CellKind.LUT]
    width = max((1 << c.table.n_inputs for c in luts), default=1)
    tables = [np.tile(c.table.to_array(), width >> c.table.n_inputs)
              for c in luts]
    # placement terminals: cells touching each net, nets in first-touch
    # order, each cell once, single-terminal nets left out
    touch: dict[str, list[str]] = {}
    for c in cells:
        if c.kind in (CellKind.LUT, CellKind.INPUT):
            touch.setdefault(c.output, []).append(c.name)
        for net in c.inputs:
            touch.setdefault(net, []).append(c.name)
        if c.kind is CellKind.DFF:
            touch.setdefault(c.output, []).append(c.name)
    live = [[cid[n] for n in dict.fromkeys(names)] for names in touch.values()]
    # I/O pads go near an input's readers, an output's driver
    io_near = []
    for c in nl.inputs() + nl.outputs():
        if c.kind is CellKind.INPUT:
            io_near.append([cid[r.name] for r in cells if c.output in r.inputs])
        else:
            io_near.append([cid[nl.net_driver[c.inputs[0]]]])
    return {
        "cell_names": [c.name for c in cells],
        "kind": [kinds.index(c.kind) for c in cells],
        "net_names": nets,
        "n_driven": len(nl.net_driver),
        "driver": [cid[nl.net_driver[n]] if n in nl.net_driver else -1
                   for n in nets],
        "out_net": [nets.index(c.output) if c.kind is not CellKind.OUTPUT
                    else -1 for c in cells],
        "in_rows": [[nets.index(n) for n in c.inputs] for c in cells],
        "pin_rows": pins,
        "inputs": [cid[c.name] for c in nl.inputs()],
        "outputs": [cid[c.name] for c in nl.outputs()],
        "luts": [cid[c.name] for c in luts],
        "dffs": [cid[c.name] for c in nl.dffs()],
        "lut_n": [c.table.n_inputs for c in luts],
        "tables": [t.tolist() for t in tables],
        "topo": [cid[n] for n in nl.topo_order()],
        "terminals": [r for r in live if len(r) > 1],
        "n_multi": sum(len(names) > 1 for names in touch.values()),
        "io_near": io_near,
    }


def _rows(start, items) -> list:
    start, items = start.tolist(), items.tolist()
    return [items[a:b] for a, b in zip(start, start[1:])]


def _fields(ix: NetlistIndex) -> dict:
    """The index's fields in the oracle's shape."""
    io_ids, owner, near = ix.io_rows
    io_near = [[] for _ in io_ids]
    for o, c in zip(owner.tolist(), near.tolist()):
        io_near[o].append(c)
    t_start, t_cells, n_multi = ix.terminals
    return {
        "cell_names": ix.cell_names,
        "kind": ix.kind.tolist(),
        "net_names": ix.net_names,
        "n_driven": ix.n_driven,
        "driver": ix.driver.tolist(),
        "out_net": ix.out_net.tolist(),
        "in_rows": _rows(ix.in_start, ix.in_net),
        "pin_rows": [list(zip(c, s)) for c, s in zip(
            _rows(ix.pin_start, ix.pin_cell), _rows(ix.pin_start, ix.pin_slot))],
        "inputs": ix.inputs,
        "outputs": ix.outputs,
        "luts": ix.luts,
        "dffs": ix.dffs,
        "lut_n": ix.lut_n.tolist(),
        "tables": ix.tables.tolist(),
        "topo": ix.topo,
        "terminals": _rows(t_start, t_cells),
        "n_multi": n_multi,
        "io_near": io_near,
    }


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(netlists())
    def test_every_field(self, nl):
        ix = nl.index()
        want = _oracle(nl)
        got = _fields(ix)
        for key in want:
            assert got[key] == want[key], key
        assert ix.cell_id == {n: i for i, n in enumerate(ix.cell_names)}
        assert ix.net_id == {n: i for i, n in enumerate(ix.net_names)}

    @settings(max_examples=60, deadline=None)
    @given(netlists(), st.integers(0, 6))
    def test_padded_tables_and_views(self, nl, k):
        ix = nl.index()
        padded = ix.padded(k)
        assert padded.shape == (len(ix.luts), 1 << k)
        for pos, cell in enumerate(ix.luts):
            table = nl.cells[ix.cell_names[cell]].table
            np.testing.assert_array_equal(ix.table(pos), table.to_array())
            if table.n_inputs <= k:
                np.testing.assert_array_equal(
                    padded[pos],
                    np.tile(table.to_array(), (1 << k) >> table.n_inputs))
        assert ix.padded(k) is padded
        for arr in (ix.kind, ix.in_net, ix.pin_cell, ix.tables, padded):
            assert not arr.flags.writeable

    def test_feature_mix_is_reachable(self):
        """The strategy's corner cases, on one hand-built netlist."""
        nl = Netlist("corners")
        nl.add_input("a")
        nl.add_input("b")
        nl.add_lut("k0", [], "one", TruthTable.constant(1))
        nl.add_lut("twice", ["a", "a"], "x", TruthTable(2, 0b1001))
        nl.add_lut("unread", ["b"], "dead", TruthTable.identity())
        nl.add_dff("ff", "y", "q")
        nl.add_lut("loop", ["q", "x", "one"], "y", TruthTable(3, 0x96))
        nl.add_output("thru", "a")
        nl.add_output("o", "y")
        nl.validate()
        ix = nl.index()
        assert _fields(ix) == _oracle(nl)
        # "a" is read by "twice" in both slots and by the output
        a = ix.net_id["a"]
        assert _fields(ix)["pin_rows"][a] == [
            (ix.cell_id["twice"], 0), (ix.cell_id["twice"], 1),
            (ix.cell_id["thru"], 0)]
        assert ix.pin_start[ix.net_id["dead"] + 1] == ix.pin_start[ix.net_id["dead"]]


# -- one build, one visit per pin ------------------------------------------- #
class CountingInputs(list):
    """A cell's input list that counts the items iterated out of it."""

    visits = 0

    def __iter__(self):
        for item in super().__iter__():
            CountingInputs.visits += 1
            yield item


def _counted(nl: Netlist) -> int:
    """Swap every cell's inputs for a counting list; returns the pins."""
    for cell in nl.cells.values():
        cell.inputs = CountingInputs(cell.inputs)
    nl.invalidate()
    return sum(len(c.inputs) for c in nl.cells.values())


PARAMS = ArchParams(cols=6, rows=6, channel_width=8, io_capacity=4)


@pytest.mark.parametrize("circuit", [
    lambda: random_dag(6, 18, 6, seed=3),
    lambda: synthesize(["a", "b", "c"], {"o": "(a & b) | c", "p": "a ^ b ^ c"}),
])
def test_endpoints_and_place_setup_visit_each_pin_once(circuit):
    nl = circuit()
    nl.add_dff("ff", nl.outputs()[0].inputs[0], "state")
    nl.add_output("st", "state")
    pins = _counted(nl)
    nl.topo_order()  # not part of either stage
    CountingInputs.visits = 0
    placement = place(nl, PARAMS, seed=1, effort=0.05)
    assert CountingInputs.visits == pins
    nl.invalidate()
    nl.topo_order()
    CountingInputs.visits = 0
    endpoints = _net_endpoints(nl, placement, flat_rrg_for(PARAMS))
    assert CountingInputs.visits == pins
    # a second extraction reads the cached index only
    CountingInputs.visits = 0
    assert _net_endpoints(nl, placement, flat_rrg_for(PARAMS)) == endpoints
    assert CountingInputs.visits == 0


# -- one invalidation point -------------------------------------------------- #
def _same_index(nl: Netlist) -> None:
    """The cached index equals one built on a cache-free rebuild."""
    fresh = Netlist.from_dict(nl.to_dict())
    assert _fields(nl.index()) == _fields(NetlistIndex(fresh))


class TestInvalidation:
    def test_add_cell_drops_the_index(self):
        nl = synthesize(["a", "b"], {"o": "a & b"})
        before = nl.index()
        nl.add_input("c")
        assert nl.index() is not before
        _same_index(nl)

    def test_mutate_netlist(self):
        base = random_dag(6, 18, 6, seed=3)
        base.index()
        for seed in range(4):
            out = mutate_netlist(base, 0.5, seed=seed, rewire_prob=1.0)
            _same_index(out)
        _same_index(base)

    def test_only_netlist_assigns_the_caches(self):
        """No module but ``netlist.py`` writes a netlist's caches."""
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path == SRC / "netlist" / "netlist.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target]
                           if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                           else [])
                for target in chain.from_iterable(
                        ast.walk(t) for t in targets):
                    if (isinstance(target, ast.Attribute)
                            and target.attr in ("_topo_cache", "_index")):
                        offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert not offenders, offenders


def test_copy_keeps_the_topological_order():
    """A copy takes over the cached order, which is the order a
    recomputation gives."""
    nl = random_dag(6, 18, 6, seed=3)
    order = nl.topo_order()
    twin = nl.copy()
    assert twin._topo_cache == order and twin._topo_cache is not order
    assert Netlist.from_dict(nl.to_dict()).topo_order() == order
