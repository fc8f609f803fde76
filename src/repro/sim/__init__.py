"""Simulation: the DPGA-style multi-context execution model
(:mod:`repro.sim.context_switch`).  Batched combinational evaluation is
:meth:`Netlist.evaluate_lanes
<repro.netlist.netlist.Netlist.evaluate_lanes>`."""
