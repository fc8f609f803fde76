"""Bitstream serialization: device configurations as portable JSON.

A deployed MC-FPGA flow needs configuration artifacts that survive the
tools that made them.  This module serializes:

- per-context LUT planes and placement (tile -> cell/table),
- routing switch patterns (edge -> context mask),
- architecture parameters (so a loader can reject mismatched devices),

with integrity checking (fnv-1a digest over the canonical form) and a
loader that reprograms a fresh :class:`MultiContextFPGA`.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any

import numpy as np

from repro.arch.geometry import Coord
from repro.arch.params import ArchParams
from repro.core.fpga import MultiContextFPGA
from repro.errors import ConfigurationError

FORMAT_VERSION = 1


def _fnv1a(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _params_dict(params: ArchParams) -> dict[str, Any]:
    return asdict(params)


def dump_configuration(device: MultiContextFPGA) -> str:
    """Serialize a configured device to a JSON string."""
    if not device.contexts:
        raise ConfigurationError("device holds no configured contexts")
    contexts: dict[str, Any] = {}
    for ctx_id, ctx in device.contexts.items():
        lut_config = {}
        for coord, (cell_name, table, n_in) in ctx.lut_config.items():
            lut_config[f"{coord.x},{coord.y}"] = {
                "cell": cell_name,
                "n_inputs": n_in,
                "table_hex": np.packbits(table).tobytes().hex(),
                "table_bits": int(table.size),
            }
        contexts[str(ctx_id)] = {
            "netlist": ctx.netlist_name,
            "luts": lut_config,
        }
    body = {
        "format": FORMAT_VERSION,
        "params": _params_dict(device.params),
        "contexts": contexts,
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    body["digest"] = f"{_fnv1a(canonical.encode()):016x}"
    return json.dumps(body, sort_keys=True, indent=1)


def load_configuration(
    text: str, device: MultiContextFPGA | None = None
) -> MultiContextFPGA:
    """Load a serialized configuration.

    When ``device`` is given its parameters must match the artifact;
    otherwise a fresh device is built from the stored parameters.
    The loaded device supports plane-level evaluation and context
    switching (full netlist-level evaluation requires re-mapping the
    source program — bitstreams intentionally carry no netlists).
    """
    body = json.loads(text)
    if body.get("format") != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported bitstream format {body.get('format')!r}"
        )
    digest = body.pop("digest", None)
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    if digest != f"{_fnv1a(canonical.encode()):016x}":
        raise ConfigurationError("bitstream digest mismatch (corrupted?)")

    params = ArchParams(**body["params"])
    if device is None:
        device = MultiContextFPGA(params)
    elif device.params != params:
        raise ConfigurationError("device parameters do not match bitstream")

    for ctx_str, ctx_body in body["contexts"].items():
        ctx_id = int(ctx_str)
        for key, entry in ctx_body["luts"].items():
            x, y = (int(v) for v in key.split(","))
            coord = Coord(x, y)
            raw = bytes.fromhex(entry["table_hex"])
            table = np.unpackbits(
                np.frombuffer(raw, dtype=np.uint8)
            )[: entry["table_bits"]].astype(np.uint8)
            lb = device.logic_blocks[coord]
            plane_bits = 1 << device.params.lut_inputs
            padded = np.zeros(plane_bits, dtype=np.uint8)
            reps = plane_bits // table.size
            padded[:] = np.tile(table, reps)
            plane = lb.lut.plane_for_context(ctx_id)
            lb.lut.load_plane(plane, padded, output=0)
    return device


def roundtrip_equal(a: MultiContextFPGA, b: MultiContextFPGA) -> bool:
    """Compare the stored planes of two devices tile by tile."""
    if a.params != b.params:
        return False
    for coord, lb_a in a.logic_blocks.items():
        lb_b = b.logic_blocks[coord]
        if not np.array_equal(lb_a.lut.memory, lb_b.lut.memory):
            return False
    return True
