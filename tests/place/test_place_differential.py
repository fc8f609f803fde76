"""Native ``place`` against the Python ``place``, on generated problems.

Each case places a small netlist (random logic, or a counter or an LFSR
for DFFs) on a 2x2 to 8x8 grid with a few pinned cells (LUTs, an I/O
cell, or a name the netlist lacks), forbidden tiles (some outside the
grid), an ``io_capacity`` of 1 to 4 and an effort of 0.05 to 1.0, on
each of numpy's four bit generators.  The same call runs once on the
native kernel and once with the Python kernel standing in for it.  Both
must return equal placements (cells, pads with their slots, cost),
count the same ``placer.*`` work, leave the generator in the same
state, or raise the same error with the same message.  Small grids and
capacities make both kernel-independent errors ("cells exceed usable
tiles", a pinned cell on a forbidden tile) and the kernels' own ("out
of I/O pads") occur; the explicit examples pin two of them.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import MT19937, PCG64, SFC64, Generator, Philox

from repro.arch.geometry import Coord
from repro.arch.params import ArchParams
from repro.errors import PlacementError
from repro.netlist.techmap import tech_map
from repro.place import placer
from repro.place._python_kernel import place_python
from repro.place.placer import anneal_kernel, place
from repro.utils.telemetry import Telemetry, collecting
from repro.workloads.generators import lfsr, random_dag, ripple_counter

BIT_GENERATORS = {g.__name__: g for g in (PCG64, MT19937, Philox, SFC64)}
#: Sequential circuits (DFFs, outputs only), by name.
SEQUENTIAL = {"cnt2": lambda: ripple_counter(2), "lfsr3": lambda: lfsr(3, (2, 1))}
GHOST = "no_such_cell"


class Case(NamedTuple):
    cols: int
    rows: int
    circuit: tuple  # ("dag", inputs, gates, outputs, seed) or ("cnt2",)
    pins: tuple  # ((cell name, tile), ...)
    forbidden: tuple  # tiles y * cols + x, some past the last row
    io_capacity: int
    effort: float
    bit_generator: str
    seed: int


@lru_cache(maxsize=None)
def _netlist(circuit: tuple):
    if circuit[0] == "dag":
        _, inputs, gates, outputs, seed = circuit
        return tech_map(random_dag(inputs, gates, outputs, seed=seed), k=4)
    return tech_map(SEQUENTIAL[circuit[0]](), k=4)


@st.composite
def cases(draw) -> Case:
    cols, rows = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    if draw(st.integers(0, 4)):
        outputs = draw(st.integers(1, 6))
        circuit = ("dag", draw(st.integers(1, 8)),
                   draw(st.integers(outputs, 30)), outputs,
                   draw(st.integers(0, 999)))
    else:
        circuit = (draw(st.sampled_from(sorted(SEQUENTIAL))),)
    netlist = _netlist(circuit)
    candidates = [c.name for c in netlist.luts()]
    candidates += [c.name for c in netlist.inputs()][:1] + [GHOST]
    names = draw(st.lists(st.sampled_from(candidates), unique=True,
                          max_size=4))
    tiles = draw(st.lists(st.integers(0, cols * rows - 1), unique=True,
                          min_size=len(names), max_size=len(names)))
    pins = tuple(zip(names, tiles))
    forbidden = tuple(sorted(draw(st.sets(
        st.integers(0, cols * (rows + 1) - 1), max_size=cols * rows // 2))))
    return Case(cols, rows, circuit, pins, forbidden,
                draw(st.integers(1, 4)), draw(st.floats(0.05, 1.0)),
                draw(st.sampled_from(sorted(BIT_GENERATORS))),
                draw(st.integers(0, 2**32 - 1)))


def _place(case: Case):
    """``place`` on ``case``: the placement or the error, the work
    counters and the generator state afterwards."""
    cols = case.cols
    params = ArchParams(cols=cols, rows=case.rows, channel_width=4,
                        io_capacity=case.io_capacity)
    rng = Generator(BIT_GENERATORS[case.bit_generator](case.seed))
    tel = Telemetry("differential")
    with collecting(tel):
        try:
            got = place(
                _netlist(case.circuit), params, seed=rng,
                pinned={n: Coord(t % cols, t // cols) for n, t in case.pins},
                effort=case.effort,
                forbidden={Coord(t % cols, t // cols) for t in case.forbidden},
            )
        except PlacementError as exc:
            got = (type(exc).__name__, str(exc))
    state = json.dumps(rng.bit_generator.state, sort_keys=True,
                       default=lambda value: value.tolist())
    return got, tel.counters, state


@pytest.mark.skipif(anneal_kernel() != "native",
                    reason="no C compiler: Python kernel only")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=cases())
# out of I/O pads: 9 I/Os, 4 perimeter tiles of one pad each
@example(Case(2, 2, ("dag", 5, 2, 4, 1), (), (), 1, 0.5, "PCG64", 1))
# more cells than usable tiles
@example(Case(2, 2, ("dag", 6, 18, 6, 3), (), (3,), 4, 0.5, "PCG64", 1))
# a full anneal with a pinned LUT, a pinned input, a ghost and defects
@example(Case(6, 5, ("dag", 6, 18, 6, 3),
              (("m_g17", 7), ("x0", 0), (GHOST, 20)), (8, 14, 33), 2, 1.0,
              "SFC64", 99))
def test_native_place_equals_python_place(case):
    want_native = _place(case)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(placer, "_place_native", place_python)
        want_python = _place(case)
    assert want_native == want_python
