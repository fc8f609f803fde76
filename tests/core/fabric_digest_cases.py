"""Pinned cases for the fabric-configuration digest gate.

Each case maps one program, configures a :class:`MultiContextFPGA`
from the mapping and reduces the device to sha256 digests of:

- ``memory``: every logic block's ``lut.memory``, tile by tile in the
  device's tile order;
- ``dump``: the :func:`~repro.core.serialize.dump_configuration` text;
- ``connectivity``: each context's ``connectivity`` table, nets and
  sinks in stored order (one digest per context);
- ``lut_stats``: the :func:`~repro.core.bitstream.extract_lut_patterns`
  masks, tiles in stored order.

The cases are the six requests of the ``map8`` benchmark workload
(8 contexts, share-aware, the benchmark's pool seeds) and every case
of the ``regression_tests/`` corpus.  Regenerate deliberately with
``PYTHONPATH=src python tests/core/regen_fabric_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.analysis.experiments import map_program
from repro.api import ExecutionConfig, MapRequest, Session
from repro.api.session import MAP_EFFORT
from repro.core.bitstream import extract_lut_patterns
from repro.core.fpga import MultiContextFPGA
from repro.core.serialize import dump_configuration
from repro.netlist.frontend import arch_for, load_program
from repro.netlist.frontend.corpus import discover_cases, load_case

CORPUS = Path(__file__).resolve().parents[2] / "regression_tests"

#: The ``map8`` workload's request pool: its seed, size, mix and width.
POOL_SEED = 2005
MAP8_REQUESTS = 6
MAP8_MIX = ("adder", "cmp", "random")
MAP8_CONTEXTS = 8


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def map8_requests() -> list[MapRequest]:
    rng = random.Random(POOL_SEED)
    seeds = [rng.randrange(1 << 30) for _ in range(MAP8_REQUESTS)]
    return [
        MapRequest(workload=MAP8_MIX[i % len(MAP8_MIX)],
                   contexts=MAP8_CONTEXTS, share_aware=True, verify=True,
                   execution=ExecutionConfig(seed=s))
        for i, s in enumerate(seeds)
    ]


def mapped_cases():
    """Yield ``(key, mapped program)`` for every pinned case."""
    session = Session()
    for i, req in enumerate(map8_requests()):
        seed = req.execution.seed
        program = session.program(req.workload, req.contexts, req.mutation,
                                  seed)
        mapped = map_program(
            program, share_aware=req.share_aware, seed=seed,
            effort=req.execution.effort_or(MAP_EFFORT),
        )
        yield f"map8/{i}/{req.workload}/seed={seed}", mapped
    for case in discover_cases(CORPUS):
        req = load_case(case)
        program, _metas = load_program(req.sources, k=req.k, name=req.name)
        params = None
        if req.grid is not None:
            params = arch_for(program, req.grid, width=req.width, k=req.k)
        mapped = map_program(
            program, params, share_aware=req.share_aware,
            seed=req.execution.seed,
            effort=req.execution.effort_or(MAP_EFFORT),
        )
        yield f"corpus/{case.name}", mapped


def fabric_record(mapped) -> dict:
    """One mapped program's configured fabric as sha256 digests."""
    device = MultiContextFPGA(mapped.params, rrg=mapped.rrg)
    device.configure_program(mapped.program, mapped.placements,
                             mapped.routes)
    memory = hashlib.sha256()
    for coord, lb in device.logic_blocks.items():
        memory.update(f"{coord.x},{coord.y}:".encode())
        memory.update(lb.lut.memory.tobytes())
    luts = hashlib.sha256()
    patterns = extract_lut_patterns(mapped.program, mapped.placements,
                                    mapped.params)
    for coord, masks in patterns.tiles.items():
        luts.update(f"{coord.x},{coord.y}:".encode())
        luts.update(masks.astype("<i8").tobytes())
    return {
        "memory": memory.hexdigest(),
        "dump": _sha(dump_configuration(device).encode()),
        "connectivity": [
            _sha(json.dumps(ctx.connectivity,
                            separators=(",", ":")).encode())
            for _c, ctx in sorted(device.contexts.items())
        ],
        "lut_stats": luts.hexdigest(),
    }


def compute_digests() -> dict[str, dict]:
    return {key: fabric_record(mapped) for key, mapped in mapped_cases()}
