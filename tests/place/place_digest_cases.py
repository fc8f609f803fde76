"""Pinned placement cases for the placement-digest gate.

Each case places one fixed problem and reduces the result to a sha256
over the placed cells, the I/O pads, the returned cost and the
generator's ``bit_generator.state`` after the call, so any change to
where cells land, to the pad assignment or to how many random numbers
the placer draws moves the digest.  The cases cover:

- three seeds on four grids (two of them non-square), each plain, with
  pinned cells, with forbidden tiles and with both;
- several ``effort`` values;
- designs with DFFs, which the placer moves like LUTs;
- a single movable cell, where the cell draw ``integers(1)`` consumes
  nothing from the generator;
- ``place_program`` with ``share_aware`` on and off, where one
  generator is shared across the contexts.

Regenerate deliberately with
``PYTHONPATH=src python tests/place/regen_place_digests.py``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.arch.geometry import Coord
from repro.arch.params import ArchParams
from repro.netlist.synth import synthesize
from repro.netlist.techmap import tech_map
from repro.place.placer import Placement, place, place_program
from repro.workloads.generators import lfsr, random_dag, ripple_adder, ripple_counter
from repro.workloads.multicontext import mutated_program

SEEDS = (1, 2, 3)
EFFORT = 0.2


def _params(cols: int, rows: int) -> ArchParams:
    return ArchParams(cols=cols, rows=rows, channel_width=8, io_capacity=4)


#: ``(label, params, circuit)``: two square and two non-square grids.
GRIDS = [
    ("5x5", _params(5, 5), lambda: ripple_adder(3)),
    ("7x7", _params(7, 7), lambda: random_dag(6, 18, 6, seed=3)),
    ("8x5", _params(8, 5), lambda: random_dag(6, 40, 6, seed=5)),
    ("4x9", _params(4, 9), lambda: random_dag(6, 18, 6, seed=3)),
]

EFFORTS = (0.05, 0.5, 1.0)


def _pins(netlist, params: ArchParams) -> dict[str, Coord]:
    """First two LUTs pinned near opposite corners."""
    luts = [c.name for c in netlist.luts()]
    return {
        luts[0]: Coord(1, 1),
        luts[1]: Coord(params.cols - 2, params.rows - 2),
    }


def _forbidden(params: ArchParams) -> frozenset[Coord]:
    """Two corners and the centre tile (clear of :func:`_pins`)."""
    return frozenset({
        Coord(0, params.rows - 1),
        Coord(params.cols // 2, params.rows // 2),
        Coord(params.cols - 1, 0),
    })


def placement_record(pl: Placement) -> list:
    """One placement as a canonical JSON-ready list."""
    return [
        [[name, c.x, c.y] for name, c in sorted(pl.cells.items())],
        [[name, c.x, c.y, pad] for name, (c, pad) in sorted(pl.ios.items())],
        pl.cost,
    ]


def digest(records, rng: np.random.Generator) -> str:
    # some bit generators hold numpy arrays in their state: hash as lists
    blob = json.dumps(
        [records, rng.bit_generator.state], separators=(",", ":"),
        sort_keys=True, default=lambda value: value.tolist(),
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def compute_digests(make_rng=np.random.default_rng) -> dict[str, str]:
    """Place every pinned case on the current placer.

    ``make_rng(seed)`` makes each case's generator; the pinned digests
    are those of the default, ``np.random.default_rng``.
    """

    def _place_digest(netlist, params, seed, **kw) -> str:
        rng = make_rng(seed)
        pl = place(netlist, params, seed=rng, **kw)
        return digest(placement_record(pl), rng)

    out: dict[str, str] = {}
    for label, params, circuit in GRIDS:
        netlist = tech_map(circuit(), k=4)
        variants = {
            "plain": {},
            "pinned": {"pinned": _pins(netlist, params)},
            "forbidden": {"forbidden": _forbidden(params)},
            "pinned+forbidden": {
                "pinned": _pins(netlist, params),
                "forbidden": _forbidden(params),
            },
        }
        for seed in SEEDS:
            for variant, kw in variants.items():
                out[f"grid/{label}/{variant}/seed={seed}"] = _place_digest(
                    netlist, params, seed, effort=EFFORT, **kw
                )

    label, params, circuit = GRIDS[1]
    netlist = tech_map(circuit(), k=4)
    for effort in EFFORTS:
        out[f"effort/{label}/effort={effort}"] = _place_digest(
            netlist, params, 1, effort=effort
        )

    for name, circuit, params in (
        ("cnt3", lambda: ripple_counter(3), _params(4, 4)),
        ("lfsr5", lambda: lfsr(5, (4, 2)), _params(5, 5)),
    ):
        netlist = tech_map(circuit(), k=4)
        assert netlist.dffs()
        for seed in SEEDS:
            out[f"dff/{name}/seed={seed}"] = _place_digest(
                netlist, params, seed, effort=EFFORT
            )

    one_lut = tech_map(synthesize(["a", "b"], {"o": "a & b"}), k=4)
    assert len(one_lut.luts()) == 1
    adder = tech_map(ripple_adder(3), k=4)
    params = _params(5, 5)
    pin_all_but_one = {
        c.name: Coord(i % params.cols, i // params.cols)
        for i, c in enumerate(adder.luts()[1:])
    }
    for seed in SEEDS:
        out[f"single/one-lut/seed={seed}"] = _place_digest(
            one_lut, params, seed, effort=EFFORT
        )
        out[f"single/pin-all-but-one/seed={seed}"] = _place_digest(
            adder, params, seed, effort=EFFORT, pinned=pin_all_but_one
        )

    programs = {
        "adder": lambda: mutated_program(
            tech_map(ripple_adder(3), k=4), 4, 0.1, seed=1
        ),
        "random": lambda: mutated_program(
            tech_map(random_dag(5, 12, 3, seed=11), k=4), 3, 0.2, seed=2
        ),
    }
    params = _params(6, 6)
    for name, build in programs.items():
        prog = build()
        for share_aware in (True, False):
            for seed in SEEDS[:2]:
                rng = make_rng(seed)
                pls = place_program(
                    prog, params, seed=rng, share_aware=share_aware,
                    effort=EFFORT,
                )
                key = f"program/{name}/share_aware={share_aware}/seed={seed}"
                out[key] = digest([placement_record(pl) for pl in pls], rng)
    return out
