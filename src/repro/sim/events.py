"""Event-driven logic simulation with per-cell delays.

Complements zero-delay lane evaluation (:meth:`Netlist.evaluate_lanes
<repro.netlist.netlist.Netlist.evaluate_lanes>`): models time, so it
can count transitions (dynamic-power proxy), observe glitches through
unbalanced paths, and simulate the *moment* of a context switch — the
event where a multi-context fabric differs most from a static FPGA.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.netlist.netlist import CellKind, Netlist


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    net: str = field(compare=False)
    value: int = field(compare=False)


@dataclass
class Waveform:
    """Value changes of one net: list of (time, value)."""

    changes: list[tuple[float, int]] = field(default_factory=list)

    def value_at(self, time: float) -> int:
        v = 0
        for t, val in self.changes:
            if t > time:
                break
            v = val
        return v

    @property
    def n_transitions(self) -> int:
        n = 0
        last = None
        for _, v in self.changes:
            if last is not None and v != last:
                n += 1
            last = v
        return n


class EventSimulator:
    """Event-driven simulator over a LUT netlist.

    ``delays`` maps cell names to propagation delays (default 1.0 per
    LUT).  DFFs are edge-triggered by explicit :meth:`clock` calls.
    """

    def __init__(self, netlist: Netlist, delays: dict[str, float] | None = None) -> None:
        netlist.validate()
        self.netlist = netlist
        self.delays = delays or {}
        self.values: dict[str, int] = {}
        self.time = 0.0
        self._seq = 0
        self._queue: list[_Event] = []
        self.waveforms: dict[str, Waveform] = {}
        self._fanout: dict[str, list[str]] = {}
        for cell in netlist.cells.values():
            for net in cell.inputs:
                self._fanout.setdefault(net, []).append(cell.name)
        # initial values: settle the combinational logic at time 0 so the
        # simulator starts from a consistent state (all inputs 0)
        for net in netlist.nets():
            self.values[net] = 0
        self.state: dict[str, int] = {c.name: 0 for c in netlist.dffs()}
        for c in netlist.dffs():
            self.values[c.output] = 0
        for name in netlist.topo_order():
            cell = netlist.cells[name]
            if cell.kind is CellKind.LUT:
                word = 0
                for j, net in enumerate(cell.inputs):
                    word |= self.values[net] << j
                self.values[cell.output] = cell.table.evaluate(word)

    # -- stimulus ------------------------------------------------------- #
    def set_input(self, name: str, value: int, at: float | None = None) -> None:
        """Schedule a primary-input change."""
        cell = self.netlist.cells.get(name)
        if cell is None or cell.kind is not CellKind.INPUT:
            raise SimulationError(f"{name!r} is not a primary input")
        t = self.time if at is None else at
        self._schedule(t, cell.output, value)

    def _schedule(self, time: float, net: str, value: int) -> None:
        self._seq += 1
        heapq.heappush(self._queue, _Event(time, self._seq, net, value))

    # -- execution ------------------------------------------------------- #
    def run(self, until: float | None = None) -> int:
        """Process events; returns the number of value changes applied."""
        applied = 0
        while self._queue:
            if until is not None and self._queue[0].time > until:
                break
            ev = heapq.heappop(self._queue)
            self.time = max(self.time, ev.time)
            if self.values.get(ev.net) == ev.value:
                continue
            self.values[ev.net] = ev.value
            self.waveforms.setdefault(ev.net, Waveform()).changes.append(
                (ev.time, ev.value)
            )
            applied += 1
            for cell_name in self._fanout.get(ev.net, []):
                cell = self.netlist.cells[cell_name]
                if cell.kind is CellKind.LUT:
                    word = 0
                    for j, net in enumerate(cell.inputs):
                        word |= self.values[net] << j
                    new = cell.table.evaluate(word)
                    delay = self.delays.get(cell_name, 1.0)
                    self._schedule(ev.time + delay, cell.output, new)
        if until is not None:
            self.time = max(self.time, until)
        return applied

    def clock(self) -> None:
        """Edge-trigger every DFF with its current D value."""
        for c in self.netlist.dffs():
            d = self.values[c.inputs[0]]
            if self.state[c.name] != d:
                self.state[c.name] = d
                self._schedule(self.time, c.output, d)

    # -- observation ------------------------------------------------------ #
    def output_values(self) -> dict[str, int]:
        return {
            c.name: self.values[c.inputs[0]] for c in self.netlist.outputs()
        }

    def transition_count(self) -> int:
        """Total transitions observed — the dynamic-activity proxy."""
        return sum(w.n_transitions for w in self.waveforms.values())

    def settle(self, inputs: dict[str, int]) -> dict[str, int]:
        """Apply inputs, run to quiescence, return primary outputs."""
        for name, v in inputs.items():
            self.set_input(name, v)
        self.run()
        return self.output_values()
