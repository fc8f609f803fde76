"""Batched fabric verification against the one-vector-at-a-time loop.

``verify_against_source`` draws every vector in one call and runs the
device and the netlist over them at once, as lane words.  The scalar
loop it replaced is kept here as the oracle, on the scalar fabric walk
of ``tests/oracles/fabric_oracle.py`` (the device's own ``evaluate`` is
now a one-lane call of the walk under test): on clean mappings and on
mappings with a planted fault (a flipped stored plane bit, two placed
cells swapping tiles) both must give the same verdict and, when they
raise, the same message.
"""

import copy

import numpy as np
import pytest

from repro.analysis.experiments import map_program
from repro.api.workloads import build_program
from repro.arch.params import ArchParams
from repro.core.fpga import MultiContextFPGA
from repro.errors import SimulationError
from repro.netlist.dfg import MultiContextProgram
from repro.netlist.logic import TruthTable, pack_bits
from repro.netlist.netlist import CellKind, Netlist
from repro.place.placer import place_program
from fabric_oracle import scalar_evaluate

N_VECTORS = (5, 16)


def scalar_verify(device, ctx: int, n_vectors: int, seed: int) -> None:
    """The reference: one scalar draw per input, one vector at a time."""
    rng = np.random.default_rng(seed)
    netlist = device._program.contexts[ctx]
    in_names = [c.name for c in netlist.inputs()]
    for _ in range(n_vectors):
        vec = {n: int(rng.integers(2)) for n in in_names}
        want = netlist.evaluate_outputs(vec)
        got = scalar_evaluate(device, ctx, vec)
        if want != got:
            raise SimulationError(
                f"context {ctx} fabric mismatch on {vec}: "
                f"fabric={got} netlist={want}"
            )


def outcome(fn, *args):
    try:
        fn(*args)
    except SimulationError as exc:
        return str(exc)
    return None


def verdicts(device, seed: int) -> list:
    """Every context × vector count: (batched, scalar) outcomes."""
    out = []
    for ctx in range(device._program.n_contexts):
        for n in N_VECTORS:
            out.append((
                outcome(device.verify_against_source, ctx, n, seed),
                outcome(scalar_verify, device, ctx, n, seed),
            ))
    return out


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("shape", [(5, 3), (16, 7), (1, 1), (3, 0), (0, 4)])
def test_one_draw_equals_scalar_draws(seed, shape):
    scalar = np.random.default_rng(seed)
    values = [int(scalar.integers(2)) for _ in range(shape[0] * shape[1])]
    batched = np.random.default_rng(seed)
    draws = batched.integers(2, size=shape)
    assert draws.ravel().tolist() == values
    assert batched.bit_generator.state == scalar.bit_generator.state


@pytest.fixture(scope="module", params=[
    (workload, seed, contexts)
    for workload in ("adder", "cmp", "random")
    for seed in (0, 1, 2)
    for contexts in (2, 8)
], ids=lambda p: f"{p[0]}-s{p[1]}-c{p[2]}")
def mapped(request):
    workload, seed, contexts = request.param
    prog = build_program(workload, contexts, 0.05, seed)
    return map_program(prog, seed=seed, effort=0.3), seed


def configured(mapped):
    """A device configured from ``mapped`` with private placement copies,
    so a planted swap never leaks into the shared mapping."""
    device = MultiContextFPGA(mapped.params, rrg=mapped.rrg)
    device.configure_program(
        mapped.program, copy.deepcopy(mapped.placements), mapped.routes
    )
    return device


def test_clean_mapping_passes_both(mapped):
    m, seed = mapped
    device = configured(m)
    assert verdicts(device, seed) == [(None, None)] * (
        m.program.n_contexts * len(N_VECTORS)
    )


def test_planted_faults_same_verdict_and_message(mapped):
    m, seed = mapped
    device = configured(m)
    rng = np.random.default_rng(seed)
    raised = 0
    for ctx in range(m.program.n_contexts):
        netlist = m.program.contexts[ctx]
        placement = device._placements[ctx]
        luts = [c for c in netlist.cells.values() if c.kind is CellKind.LUT]
        if not luts:
            continue
        # flip one addressable bit of a used tile's stored plane
        cell = luts[int(rng.integers(len(luts)))]
        lut = device.logic_blocks[placement.cells[cell.name]].lut
        bit = lut.plane_for_context(ctx) * lut.plane_bits + int(
            rng.integers(1 << cell.table.n_inputs)
        )
        lut.memory[0, bit] ^= 1
        got = verdicts(device, seed)
        lut.memory[0, bit] ^= 1
        # two placed cells swap tiles after the planes were loaded
        if len(luts) >= 2:
            i, j = rng.choice(len(luts), size=2, replace=False)
            a, b = luts[int(i)].name, luts[int(j)].name
            cells = placement.cells
            cells[a], cells[b] = cells[b], cells[a]
            got += verdicts(device, seed)
            cells[a], cells[b] = cells[b], cells[a]
        for batched, scalar in got:
            assert batched == scalar
            raised += batched is not None
    assert raised > 0
    # every fault was undone: the device verifies clean again
    assert all(v == (None, None) for v in verdicts(device, seed))


def test_input_less_netlist_batch_evaluates_once():
    """One walk fills every lane of a constant."""
    nl = Netlist("const")
    nl.add_lut("k", [], "one", TruthTable(0, 1))
    nl.add_lut("z", [], "zero", TruthTable(0, 0))
    nl.add_output("o", "one")
    nl.add_output("p", "zero")
    assert nl.evaluate_outputs({}) == {"o": 1, "p": 0}
    for lanes in (0, 1, 5, 64, 65):
        batch = nl.evaluate_lanes({}, lanes)
        assert batch["one"] == (1 << lanes) - 1 and batch["zero"] == 0


def test_verify_on_constant_only_context():
    const = Netlist("const")
    const.add_lut("k", [], "one", TruthTable(0, 1))
    const.add_output("o", "one")
    ident = Netlist("ident")
    ident.add_input("a")
    ident.add_lut("l", ["a"], "y", TruthTable(1, 0b10))
    ident.add_output("o", "y")
    prog = MultiContextProgram([const, ident])
    params = ArchParams(cols=3, rows=3, n_contexts=2, lut_inputs=4,
                        channel_width=6, io_capacity=2)
    device = MultiContextFPGA(params)
    device.configure_program(prog, place_program(prog, params, seed=0,
                                                 effort=0.2))
    assert device.evaluate_lanes(0, {}, 3) == {"o": 0b111}
    assert device.evaluate(0, {}) == {"o": 1}
    for ctx in (0, 1):
        device.verify_against_source(ctx, n_vectors=8)
    # a flipped constant is caught, with the scalar loop's message
    lut = device.logic_blocks[device._placements[0].cells["k"]].lut
    lut.memory[0, lut.plane_for_context(0) * lut.plane_bits] ^= 1
    assert outcome(device.verify_against_source, 0, 8, 0) == outcome(
        scalar_verify, device, 0, 8, 0
    ) == "context 0 fabric mismatch on {}: fabric={'o': 0} netlist={'o': 1}"


def test_a_wrong_index_row_is_caught():
    """The fabric walks the netlist index; the source side reads the
    cells by name, so an index row that reads the wrong net fails
    verification instead of agreeing with itself."""
    nl = Netlist("andnot")
    nl.add_input("a")
    nl.add_input("b")
    nl.add_lut("y", ["a", "b"], "y", TruthTable(2, 0b0010))  # a & ~b
    nl.add_output("o", "y")
    prog = MultiContextProgram([nl, nl.copy("again")])
    params = ArchParams(cols=3, rows=3, n_contexts=2, lut_inputs=4,
                        channel_width=6, io_capacity=2)
    device = MultiContextFPGA(params)
    device.configure_program(prog, place_program(prog, params, seed=0,
                                                 effort=0.2))
    device.verify_against_source(0, n_vectors=32)
    ix = nl.index()
    y = ix.cell_id["y"]
    wrong = ix.in_net.copy()
    wrong[ix.in_start[y] + 1] = ix.net_id["a"]  # slot 1 reads "a", not "b"
    ix.in_net = wrong
    with pytest.raises(SimulationError, match="context 0 fabric mismatch"):
        device.verify_against_source(0, n_vectors=32)


def test_source_side_never_reads_the_index(monkeypatch):
    nl = build_program("adder", 2, 0.05, 0).contexts[0]
    stimulus = {c.name: 0b1011 for c in nl.inputs()}
    want = nl.evaluate_lanes(stimulus, 4)

    def refuse(self):
        raise AssertionError("Netlist.evaluate_lanes read the index")

    monkeypatch.setattr(Netlist, "index", refuse)
    assert nl.evaluate_lanes(stimulus, 4) == want


@pytest.mark.parametrize("lanes", [1, 5, 63, 64, 65, 128])
def test_device_lanes_match_the_scalar_walk(lanes):
    prog = build_program("adder", 2, 0.05, 0)
    device = configured(map_program(prog, seed=0, effort=0.3))
    rng = np.random.default_rng(lanes)
    for ctx, netlist in enumerate(prog.contexts):
        names = [c.name for c in netlist.inputs()]
        draws = rng.integers(2, size=(lanes, len(names)))
        got = device.evaluate_lanes(
            ctx, {n: pack_bits(draws[:, i]) for i, n in enumerate(names)},
            lanes)
        for lane, row in enumerate(draws.tolist()):
            want = scalar_evaluate(device, ctx, dict(zip(names, row)))
            assert {o: (w >> lane) & 1 for o, w in got.items()} == want
