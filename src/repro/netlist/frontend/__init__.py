"""Netlist frontend: bring-your-own-netlist importers.

Two source formats lower to :class:`repro.netlist.Netlist`:

- :func:`parse_blif` — Berkeley BLIF (``.model``/``.inputs``/
  ``.outputs``/``.names``/``.latch``/``.subckt``), with
  :func:`to_blif` for export→reimport round-trips.
- :func:`parse_verilog` — a structural-Verilog subset (modules,
  gate primitives, instances, wires, simple assigns).

:func:`load_program` is the one-stop entry the
:class:`~repro.api.ImportRequest` handler uses: parse each source,
Shannon-decompose wide cells (:func:`decompose_wide`), tech-map to
``k``-LUTs, and bundle the contexts into one
:class:`~repro.netlist.MultiContextProgram`.
"""

from __future__ import annotations

import math

from repro.arch.params import ArchParams
from repro.errors import SynthesisError
from repro.netlist.dfg import MultiContextProgram
from repro.netlist.frontend.blif import parse_blif, to_blif
from repro.netlist.frontend.decompose import decompose_wide
from repro.netlist.frontend.verilog import parse_verilog
from repro.netlist.netlist import Netlist
from repro.netlist.techmap import tech_map

#: Formats :func:`parse_source` understands.
FORMATS = ("blif", "verilog")

#: File-extension -> format, for CLI auto-detection.
EXTENSIONS = {".blif": "blif", ".v": "verilog", ".sv": "verilog"}


def parse_source(text: str, fmt: str, path: str = "<source>") -> Netlist:
    """Parse one source of format ``fmt`` (see :data:`FORMATS`)."""
    if fmt == "blif":
        return parse_blif(text, path)
    if fmt == "verilog":
        return parse_verilog(text, path)
    raise SynthesisError(
        f"unknown netlist format {fmt!r} (choose from "
        f"{', '.join(FORMATS)})"
    )


def load_program(sources, k: int = 4, name: str | None = None):
    """Parse, decompose and tech-map ``sources`` into one program.

    ``sources`` is a sequence of mappings with keys ``text`` (the
    source document), ``format`` (see :data:`FORMATS`) and optional
    ``name`` (used as the context/file label).  Returns
    ``(program, contexts_meta)`` where ``contexts_meta`` holds one
    stats dict per context (name, format, and the mapped netlist's
    :meth:`~repro.netlist.Netlist.stats`).
    """
    contexts = []
    metas = []
    for i, source in enumerate(sources):
        fmt = source["format"]
        label = source.get("name") or f"ctx{i}"
        raw = parse_source(source["text"], fmt, path=label)
        narrow = decompose_wide(raw, k=k)
        mapped = tech_map(narrow, k=k, name=raw.name)
        metas.append({"name": mapped.name, "format": fmt,
                      **mapped.stats()})
        contexts.append(mapped)
    if not contexts:
        raise SynthesisError("no sources to import")
    program_name = name or contexts[0].name
    return MultiContextProgram(contexts, name=program_name), metas


def arch_for(program: MultiContextProgram, grid: int,
             width: int | None = None, k: int = 4) -> ArchParams:
    """Pin an architecture for ``program`` on a ``grid`` x ``grid``
    array: the I/O capacity its pads need and a power-of-two context
    count (the auto-fit path in
    :func:`~repro.analysis.experiments.map_program` passes its fitted
    side; corpus cases pin one so goldens survive fit-heuristic
    changes).
    """
    io = max(
        len(nl.inputs()) + len(nl.outputs()) for nl in program.contexts
    )
    io_cap = max(2, math.ceil(io / max(1, 4 * (grid - 1))) + 1)
    n_ctx = 1
    while n_ctx < program.n_contexts:
        n_ctx *= 2
    return ArchParams(
        cols=grid, rows=grid, n_contexts=max(2, n_ctx),
        lut_inputs=max(4, k), channel_width=width or 10,
        io_capacity=io_cap,
    )


__all__ = [
    "FORMATS",
    "EXTENSIONS",
    "parse_blif",
    "to_blif",
    "parse_verilog",
    "parse_source",
    "decompose_wide",
    "load_program",
    "arch_for",
]
