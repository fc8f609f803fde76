"""Island-style MC-FPGA fabric description: parameters, geometry, wiring,
and the flat-array routing substrate the placer and router operate on."""

from repro.arch.compiled import CompiledRRG, NodeKind, compiled_rrg_for
from repro.arch.geometry import Coord, Side
from repro.arch.params import ArchParams
from repro.arch.wires import SegmentKind, TrackSpec, make_track_specs

__all__ = [
    "ArchParams",
    "CompiledRRG",
    "Coord",
    "NodeKind",
    "SegmentKind",
    "Side",
    "TrackSpec",
    "compiled_rrg_for",
    "make_track_specs",
]
