"""Workload generation: benchmark circuits and multi-context programs
with controllable inter-context redundancy."""

from repro.workloads.generators import (
    alu_slice,
    comparator,
    crc_step,
    gray_encoder,
    lfsr,
    majority_tree,
    parity_tree,
    random_dag,
    ripple_adder,
    ripple_counter,
)
from repro.workloads.multicontext import (
    mutate_netlist,
    mutated_program,
    temporal_partition,
    workload_suite,
)

__all__ = [
    "alu_slice",
    "comparator",
    "crc_step",
    "gray_encoder",
    "lfsr",
    "majority_tree",
    "mutate_netlist",
    "mutated_program",
    "parity_tree",
    "random_dag",
    "ripple_adder",
    "ripple_counter",
    "temporal_partition",
    "workload_suite",
]
