"""Simulators: event-driven logic simulation, switching activity and
the DPGA-style multi-context execution model.  Batched combinational
evaluation is :meth:`Netlist.evaluate_lanes
<repro.netlist.netlist.Netlist.evaluate_lanes>`."""

from repro.sim.context_switch import ContextSchedule, MultiContextExecutor
from repro.sim.events import EventSimulator, Waveform

__all__ = [
    "ContextSchedule",
    "EventSimulator",
    "MultiContextExecutor",
    "Waveform",
]
