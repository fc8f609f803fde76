"""Pinned cases for the defect-map digest gate.

Each case builds one :class:`~repro.reliability.DefectMap` and reduces
it to sha256 digests of values, not container types:

- ``wires``/``switches``: the wire node ids and switch edge ids, in
  stored order, as little-endian int64;
- ``tiles``: the sorted bad tiles as ``x,y`` text;
- ``node_ok``: the lowered node mask's bytes;
- ``live_edge_dst``: :meth:`DefectMap.live_edge_dst` as little-endian
  int32;
- ``dirty``: on the substrate's golden ``random`` mapping, the sorted
  dirty-net names and, per dirty net, its healthy-sink chains (the warm
  salvage) in sink order.

The cases are the ``yield`` benchmark substrate (7x7, width 8, io 4)
and one 5x5 substrate, each with ``uniform`` maps at rates 0.01-0.05
and ``clustered`` maps at 0.05 and 0.10, three seeds each, plus one
explicit ``from_defects`` map.  Regenerate deliberately with
``PYTHONPATH=src python tests/reliability/regen_defect_digests.py``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.api import Session
from repro.api.session import POINT_EFFORT
from repro.arch.compiled import CompiledRRG, flat_rrg_for
from repro.arch.params import ArchParams
from repro.reliability import DefectMap, dirty_net_names
from repro.route.pathfinder import _healthy_sink_paths

SUBSTRATES = (
    ("7x7w8", ArchParams(cols=7, rows=7, channel_width=8, io_capacity=4)),
    ("5x5w8", ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4)),
)
UNIFORM_RATES = (0.01, 0.02, 0.03, 0.04, 0.05)
CLUSTERED_RATES = (0.05, 0.10)
SEEDS = (1, 2, 3)
#: Placement seed of the golden ``random`` mapping.
GOLDEN_SEED = 0


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def explicit_map(c: CompiledRRG) -> DefectMap:
    """A hand-picked map: unsorted wire and switch ids and two tiles."""
    wires = c.wire_node_ids()
    switches = c.switch_edge_ids()
    tiles = c.logic_tiles()
    return DefectMap.from_defects(
        c,
        wire_nodes=[int(wires[-3]), int(wires[7]), int(wires[len(wires) // 2])],
        switch_edges=[int(switches[101]), int(switches[5]),
                      int(switches[-1])],
        logic_tiles=[tiles[-1], tiles[0]],
    )


def defect_cases():
    """Yield ``(key, substrate, map)`` for every pinned case."""
    for label, params in SUBSTRATES:
        c = flat_rrg_for(params)
        for model, rates in (("uniform", UNIFORM_RATES),
                             ("clustered", CLUSTERED_RATES)):
            for rate in rates:
                for seed in SEEDS:
                    dm = DefectMap.sample(c, rate, seed=seed, model=model)
                    yield f"{label}/{model}/rate={rate}/seed={seed}", c, dm
    c = flat_rrg_for(SUBSTRATES[0][1])
    yield f"{SUBSTRATES[0][0]}/explicit", c, explicit_map(c)


def goldens() -> dict:
    """The golden ``random`` mapping of each substrate, by params."""
    session = Session()
    runner = session.yield_runner()
    netlist = session.circuit("random")
    return {
        params: runner.golden_for(netlist, params, GOLDEN_SEED, POINT_EFFORT)
        for _label, params in SUBSTRATES
    }


def defect_record(c: CompiledRRG, dm: DefectMap, golden) -> dict:
    """One map as sha256 digests (see the module docstring)."""
    tiles = ";".join(f"{t.x},{t.y}" for t in sorted(dm.bad_tiles))
    dirty = sorted(dirty_net_names(golden.routes, dm))
    salvage = [
        [name, [[sink, chain] for sink, chain in _healthy_sink_paths(
            golden.routes.nets[name], dm).items()]]
        for name in dirty
    ]
    return {
        "wires": _sha(np.asarray(dm.wire_defects, dtype="<i8").tobytes()),
        "switches": _sha(
            np.asarray(dm.switch_defects, dtype="<i8").tobytes()),
        "tiles": _sha(tiles.encode()),
        "node_ok": _sha(np.asarray(dm.node_ok, dtype=bool).tobytes()),
        "live_edge_dst": _sha(
            np.asarray(dm.live_edge_dst(c), dtype="<i4").tobytes()),
        "dirty": _sha(json.dumps([dirty, salvage],
                                 separators=(",", ":")).encode()),
    }


def compute_digests() -> dict[str, dict]:
    golden = goldens()
    return {
        key: defect_record(c, dm, golden[c.params])
        for key, c, dm in defect_cases()
    }
