"""Pinned routing cases for the route-digest gate.

Each case routes one fixed problem on the compiled engine and reduces
the result to a sha256 over ``(net, iterations, sorted nodes, sorted
edges, sink_paths)`` per net, so any change to what the router
produces — a different node, edge, branch or iteration count — moves
the digest.  The cases cover:

- the legacy-equivalence workloads (3 programs x 2 grids, share-aware
  multi-context routing);
- a defect suite: uniform defect maps at 0/1/3/5/10% over two fabrics
  and four seeds, wire *and* switch defects;
- warm-started delta-reroutes (``route_context_warm``) of a golden
  routing under sampled defects.

Regenerate deliberately with
``PYTHONPATH=src python tests/route/regen_route_digests.py``.
"""

from __future__ import annotations

import hashlib
import json

from repro.arch.compiled import flat_rrg_for
from repro.arch.params import ArchParams
from repro.netlist.techmap import tech_map
from repro.place.placer import place, place_program
from repro.reliability import DefectMap, build_golden, dirty_net_names
from repro.route.pathfinder import (
    RouteResult,
    route_context_compiled,
    route_context_warm,
    route_program_compiled,
)
from repro.workloads.generators import crc_step, random_dag, ripple_adder
from repro.workloads.multicontext import mutated_program, temporal_partition

#: Grids of ``tests/route/test_compiled_equivalence.py``.
EQUIV_GRIDS = [
    ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4),
    ArchParams(cols=7, rows=7, channel_width=8, io_capacity=4),
]

#: Defect-suite fabrics and circuits (one tight, one roomier).
DEFECT_FABRICS = [
    ("6x6w8", ArchParams(cols=6, rows=6, channel_width=8, io_capacity=4),
     lambda: random_dag(5, 12, 4, seed=3)),
    ("7x7w8", ArchParams(cols=7, rows=7, channel_width=8, io_capacity=4),
     lambda: random_dag(6, 18, 6, seed=3)),
]
DEFECT_RATES = (0.0, 0.01, 0.03, 0.05, 0.10)
DEFECT_SEEDS = (1, 2, 3, 4)

#: Warm-reroute fabric (the ``test_warm_route`` fixture) and its maps.
WARM_PARAMS = ArchParams(cols=6, rows=6, channel_width=8, io_capacity=4)
WARM_MAPS = ((0.03, 5), (0.05, 6))
MAX_ITERS = 25


def _equiv_programs():
    return {
        "adder": mutated_program(
            tech_map(ripple_adder(3), k=4), 4, 0.05, seed=1
        ),
        "random": mutated_program(
            tech_map(random_dag(5, 12, 3, seed=11), k=4), 4, 0.1, seed=2
        ),
        "crc": temporal_partition(tech_map(crc_step(6), k=4), 4),
    }


def route_record(rr: RouteResult) -> list:
    """One context's routes as a canonical JSON-ready list."""
    return [
        [
            name,
            rr.iterations,
            sorted(net.nodes),
            sorted([a, b] for a, b in net.edges),
            [[sink, path] for sink, path in sorted(net.sink_paths.items())],
        ]
        for name, net in sorted(rr.nets.items())
    ]


def digest(records) -> str:
    blob = json.dumps(records, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def compute_digests() -> dict[str, str]:
    """Route every pinned case on the current engine."""
    out: dict[str, str] = {}
    for params in EQUIV_GRIDS:
        c = flat_rrg_for(params)
        for name, prog in _equiv_programs().items():
            pls = place_program(
                prog, params, seed=3, share_aware=True, effort=0.3
            )
            results = route_program_compiled(c, prog, pls, share_aware=True)
            out[f"equiv/{name}@{params.cols}x{params.rows}"] = digest(
                [route_record(rr) for rr in results]
            )

    for label, params, circuit in DEFECT_FABRICS:
        c = flat_rrg_for(params)
        netlist = tech_map(circuit(), k=4)
        pl = place(netlist, params, seed=2, effort=0.3)
        for rate in DEFECT_RATES:
            for seed in DEFECT_SEEDS:
                dm = DefectMap.sample(c, rate, seed=seed, logic_rate=0.0)
                key = f"defects/{label}/rate={rate}/seed={seed}"
                out[key] = digest(route_record(route_context_compiled(
                    c, netlist, pl, defects=dm, max_iterations=MAX_ITERS,
                )))

    c = flat_rrg_for(WARM_PARAMS)
    netlist = tech_map(
        random_dag(n_inputs=6, n_gates=18, n_outputs=6, seed=3), k=4
    )
    pl = place(netlist, WARM_PARAMS, seed=0, effort=0.3)
    golden = build_golden(c, netlist, pl, MAX_ITERS)
    assert golden is not None
    for rate, seed in WARM_MAPS:
        dm = DefectMap.sample(c, rate, seed=seed, logic_rate=0.0)
        dirty = dirty_net_names(golden.routes, dm)
        out[f"warm/rate={rate}/seed={seed}"] = digest(route_record(
            route_context_warm(
                c, netlist, pl, golden.routes, dirty,
                max_iterations=MAX_ITERS, defects=dm,
            )
        ))
    return out
