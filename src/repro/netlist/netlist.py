"""LUT-level netlists.

A :class:`Netlist` is the unit the mapper/placer/router consume: a DAG
of LUT cells (plus primary inputs/outputs and optional DFFs) connected
by named nets.  The same class represents one *context* of a
multi-context program; :mod:`repro.netlist.sharing` relates cells across
contexts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SynthesisError
from repro.netlist.logic import TruthTable


class CellKind(enum.Enum):
    INPUT = "input"     # primary input (drives its output net)
    OUTPUT = "output"   # primary output (reads its single input net)
    LUT = "lut"         # combinational LUT with a TruthTable
    DFF = "dff"         # D flip-flop (input net -> output net at clock)


@dataclass
class Cell:
    """One netlist cell.

    ``inputs`` are net names in truth-table input order (input ``j`` of
    the table is ``inputs[j]``); ``output`` is the driven net.
    """

    name: str
    kind: CellKind
    inputs: list[str] = field(default_factory=list)
    output: str = ""
    table: TruthTable | None = None

    def __post_init__(self) -> None:
        if self.kind is CellKind.LUT:
            if self.table is None:
                raise SynthesisError(f"LUT cell {self.name!r} needs a truth table")
            if len(self.inputs) != self.table.n_inputs:
                raise SynthesisError(
                    f"LUT cell {self.name!r}: {len(self.inputs)} input nets but "
                    f"table has {self.table.n_inputs} inputs"
                )
        if self.kind is CellKind.INPUT and self.inputs:
            raise SynthesisError(f"INPUT cell {self.name!r} cannot have inputs")
        if self.kind is CellKind.OUTPUT and len(self.inputs) != 1:
            raise SynthesisError(f"OUTPUT cell {self.name!r} needs exactly one input")
        if self.kind is CellKind.DFF and len(self.inputs) != 1:
            raise SynthesisError(f"DFF cell {self.name!r} needs exactly one input")


class Netlist:
    """A named DAG of cells.

    Combinational evaluation is levelized; sequential designs advance
    one clock per :meth:`step`.
    """

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self.cells: dict[str, Cell] = {}
        self.net_driver: dict[str, str] = {}
        self._topo_cache: list[str] | None = None

    # -- construction ------------------------------------------------------ #
    def add_cell(self, cell: Cell) -> Cell:
        if cell.name in self.cells:
            raise SynthesisError(f"duplicate cell name {cell.name!r}")
        if cell.kind is not CellKind.OUTPUT:
            if not cell.output:
                raise SynthesisError(f"cell {cell.name!r} must drive a net")
            if cell.output in self.net_driver:
                raise SynthesisError(
                    f"net {cell.output!r} already driven by "
                    f"{self.net_driver[cell.output]!r}"
                )
            self.net_driver[cell.output] = cell.name
        self.cells[cell.name] = cell
        self._topo_cache = None
        return cell

    def add_input(self, name: str, net: str | None = None) -> Cell:
        return self.add_cell(Cell(name, CellKind.INPUT, [], net or name))

    def add_output(self, name: str, net: str) -> Cell:
        return self.add_cell(Cell(name, CellKind.OUTPUT, [net], ""))

    def add_lut(self, name: str, inputs: list[str], output: str, table: TruthTable) -> Cell:
        return self.add_cell(Cell(name, CellKind.LUT, list(inputs), output, table))

    def add_dff(self, name: str, d: str, q: str) -> Cell:
        return self.add_cell(Cell(name, CellKind.DFF, [d], q))

    # -- queries ------------------------------------------------------------ #
    def inputs(self) -> list[Cell]:
        return [c for c in self.cells.values() if c.kind is CellKind.INPUT]

    def outputs(self) -> list[Cell]:
        return [c for c in self.cells.values() if c.kind is CellKind.OUTPUT]

    def luts(self) -> list[Cell]:
        return [c for c in self.cells.values() if c.kind is CellKind.LUT]

    def dffs(self) -> list[Cell]:
        return [c for c in self.cells.values() if c.kind is CellKind.DFF]

    def nets(self) -> set[str]:
        nets = set(self.net_driver)
        for c in self.cells.values():
            nets.update(c.inputs)
        return nets

    def fanout(self, net: str) -> list[Cell]:
        return [c for c in self.cells.values() if net in c.inputs]

    def driver_cell(self, net: str) -> Cell:
        name = self.net_driver.get(net)
        if name is None:
            raise SynthesisError(f"net {net!r} has no driver")
        return self.cells[name]

    def validate(self) -> None:
        """Check every consumed net has a driver and the DAG is acyclic."""
        for c in self.cells.values():
            for net in c.inputs:
                if net not in self.net_driver:
                    raise SynthesisError(
                        f"cell {c.name!r} reads undriven net {net!r}"
                    )
        self.topo_order()  # raises on combinational cycles

    # -- topology ------------------------------------------------------------#
    def topo_order(self) -> list[str]:
        """Combinational topological order of cell names.

        DFF outputs act as sources (state breaks the cycle), DFF inputs
        as sinks.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        indeg: dict[str, int] = {}
        dependents: dict[str, list[str]] = {name: [] for name in self.cells}
        for c in self.cells.values():
            count = 0
            if c.kind in (CellKind.LUT, CellKind.OUTPUT, CellKind.DFF):
                for net in c.inputs:
                    drv = self.net_driver.get(net)
                    if drv is None:
                        raise SynthesisError(f"net {net!r} undriven")
                    driver = self.cells[drv]
                    # combinational dependence only on non-state drivers
                    if driver.kind in (CellKind.LUT, CellKind.INPUT):
                        if driver.kind is CellKind.LUT:
                            count += 1
                            dependents[drv].append(c.name)
                        # INPUT drivers impose no ordering constraint
                    elif driver.kind is CellKind.DFF:
                        pass  # state source
            indeg[c.name] = count
        ready = [n for n, d in indeg.items() if d == 0]
        order: list[str] = []
        while ready:
            n = ready.pop()
            order.append(n)
            for m in dependents[n]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    ready.append(m)
        if len(order) != len(self.cells):
            raise SynthesisError(
                f"netlist {self.name!r} has a combinational cycle"
            )
        self._topo_cache = order
        return order

    def depth(self) -> int:
        """LUT levels on the longest combinational path."""
        level: dict[str, int] = {}
        for name in self.topo_order():
            c = self.cells[name]
            if c.kind is not CellKind.LUT:
                continue
            lv = 1
            for net in c.inputs:
                drv = self.driver_cell(net)
                if drv.kind is CellKind.LUT:
                    lv = max(lv, level[drv.name] + 1)
            level[name] = lv
        return max(level.values(), default=0)

    # -- evaluation ------------------------------------------------------------#
    def evaluate(
        self,
        input_values: dict[str, int],
        state: dict[str, int] | None = None,
    ) -> dict[str, int]:
        """Evaluate combinationally; returns values of every net.

        ``state`` provides DFF output values (defaults to 0).
        """
        values: dict[str, int] = {}
        st = state or {}
        for c in self.inputs():
            if c.output not in input_values and c.name not in input_values:
                raise SynthesisError(f"missing value for input {c.name!r}")
            values[c.output] = input_values.get(c.output, input_values.get(c.name, 0))
        for c in self.dffs():
            values[c.output] = st.get(c.name, 0)
        for name in self.topo_order():
            c = self.cells[name]
            if c.kind is CellKind.LUT:
                word = 0
                for j, net in enumerate(c.inputs):
                    word |= values[net] << j
                values[c.output] = c.table.evaluate(word)
        return values

    def evaluate_outputs(
        self, input_values: dict[str, int], state: dict[str, int] | None = None
    ) -> dict[str, int]:
        values = self.evaluate(input_values, state)
        return {c.name: values[c.inputs[0]] for c in self.outputs()}

    def step(
        self, input_values: dict[str, int], state: dict[str, int] | None = None
    ) -> tuple[dict[str, int], dict[str, int]]:
        """One clock: returns (primary outputs, next state)."""
        values = self.evaluate(input_values, state)
        next_state = {c.name: values[c.inputs[0]] for c in self.dffs()}
        outs = {c.name: values[c.inputs[0]] for c in self.outputs()}
        return outs, next_state

    # -- bulk evaluation (vectorized over stimulus) -----------------------------#
    def evaluate_batch(self, stimulus: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Vectorized combinational evaluation over arrays of stimuli.

        Each input maps to a uint8 array; all arrays share a length.  DFFs
        are held at 0 (combinational analysis only).  A netlist with no
        primary inputs is evaluated once: its nets come back as length-1
        arrays, which broadcast against a batch of any length.
        """
        arrays: dict[str, np.ndarray] = {}
        length = None
        for c in self.inputs():
            arr = stimulus.get(c.output, stimulus.get(c.name))
            if arr is None:
                raise SynthesisError(f"missing stimulus for input {c.name!r}")
            arr = np.asarray(arr, dtype=np.uint8)
            if length is None:
                length = arr.size
            elif arr.size != length:
                raise SynthesisError("stimulus arrays must share a length")
            arrays[c.output] = arr
        if length is None:
            length = 1
        for c in self.dffs():
            arrays[c.output] = np.zeros(length, dtype=np.uint8)
        for name in self.topo_order():
            c = self.cells[name]
            if c.kind is CellKind.LUT:
                word = np.zeros(length, dtype=np.int64)
                for j, net in enumerate(c.inputs):
                    word |= arrays[net].astype(np.int64) << j
                arrays[c.output] = c.table.to_array()[word]
        return arrays

    # -- serialization --------------------------------------------------------- #
    def to_dict(self) -> dict:
        """Versioned JSON form (the :mod:`repro.api.serialize`
        contract): cell list in insertion order, truth tables as
        ``{n_inputs, bits}`` with the bits hex-encoded (they can exceed
        64 bits).  ``from_dict(to_dict(nl))`` reproduces the netlist
        exactly.
        """
        from repro.api.serialize import stamp

        cells = []
        for c in self.cells.values():
            entry = {
                "name": c.name,
                "kind": c.kind.value,
                "inputs": list(c.inputs),
                "output": c.output,
            }
            if c.table is not None:
                entry["table"] = {
                    "n_inputs": c.table.n_inputs,
                    "bits": format(c.table.bits, "x"),
                }
            cells.append(entry)
        return stamp("netlist", {"name": self.name, "cells": cells})

    @classmethod
    def from_dict(cls, d: dict) -> "Netlist":
        """Rebuild from :meth:`to_dict` output; validates the result.

        Raises :class:`~repro.errors.RequestError` on a bad envelope
        and :class:`SynthesisError` on an inconsistent cell list.
        """
        from repro.api.serialize import check

        check(d, "netlist")
        out = cls(d.get("name", "netlist"))
        for i, entry in enumerate(d.get("cells", ())):
            try:
                kind = CellKind(entry["kind"])
                table = None
                if entry.get("table") is not None:
                    table = TruthTable(entry["table"]["n_inputs"],
                                       int(entry["table"]["bits"], 16))
                out.add_cell(Cell(entry["name"], kind,
                                  list(entry.get("inputs", ())),
                                  entry.get("output", ""), table))
            except (KeyError, TypeError, ValueError) as exc:
                raise SynthesisError(
                    f"malformed netlist cell entry {i}: {exc}"
                ) from exc
        out.validate()
        return out

    # -- misc ------------------------------------------------------------------ #
    def stats(self) -> dict[str, int]:
        return {
            "inputs": len(self.inputs()),
            "outputs": len(self.outputs()),
            "luts": len(self.luts()),
            "dffs": len(self.dffs()),
            "depth": self.depth(),
            "nets": len(self.nets()),
        }

    def copy(self, name: str | None = None) -> "Netlist":
        out = Netlist(name or self.name)
        for c in self.cells.values():
            out.add_cell(Cell(c.name, c.kind, list(c.inputs), c.output, c.table))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"<Netlist {self.name!r} luts={s['luts']} depth={s['depth']} "
            f"io={s['inputs']}/{s['outputs']}>"
        )
