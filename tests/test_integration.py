"""Cross-module integration and pipeline property tests.

These tests exercise the complete flow — synthesis, technology mapping,
placement, routing, device configuration, bitstream serialization,
execution — on generated circuits, asserting the invariants that hold
end to end.  The configuration dump (``serialize``) lives beside the
fabric digests in ``tests/core``.
"""

import os
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import map_program, verify_mapped
from repro.analysis.verification import verify_device
from repro.arch.compiled import NodeKind
from repro.core.fpga import MultiContextFPGA
from repro.netlist.netlist import Netlist
from repro.netlist.synth import synthesize
from repro.netlist.techmap import tech_map
from repro.sim.context_switch import ContextSchedule, MultiContextExecutor
from repro.workloads.generators import random_dag, ripple_adder
from repro.workloads.multicontext import mutated_program, temporal_partition

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "core"))
from serialize import dump_configuration, load_configuration, roundtrip_equal  # noqa: E402


def iscas_c17() -> Netlist:
    """The ISCAS-85 c17 benchmark: 6 NAND gates, 5 inputs, 2 outputs.

    Gate-for-gate transcription::

        n10 = NAND(n1,  n3)      n16 = NAND(n2,  n11)
        n11 = NAND(n3,  n6)      n19 = NAND(n11, n7)
        n22 = NAND(n10, n16)     n23 = NAND(n16, n19)
    """
    n10 = "~(n1 & n3)"
    n11 = "~(n3 & n6)"
    n16 = f"~(n2 & ({n11}))"
    n19 = f"~(({n11}) & n7)"
    return synthesize(
        ["n1", "n2", "n3", "n6", "n7"],
        {
            "n22": f"~(({n10}) & ({n16}))",
            "n23": f"~(({n16}) & ({n19}))",
        },
        name="c17",
    )


class TestMappingPipeline:
    """map -> configure -> device evaluation matches source."""

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 1000))
    def test_random_multicontext_flow(self, seed):
        base = tech_map(
            random_dag(n_inputs=4, n_gates=10, n_outputs=2, seed=seed), k=4
        )
        prog = mutated_program(base, n_contexts=2, fraction=0.3, seed=seed)
        mapped = map_program(prog, seed=seed % 7, effort=0.25)
        device = MultiContextFPGA(mapped.params)
        device.configure_program(prog, mapped.placements, mapped.routes)
        verify_device(device, prog, n_vectors=8, seed=seed)

    def test_route_trees_are_trees(self):
        """Every routed net's edge set forms a tree over its nodes."""
        base = tech_map(ripple_adder(3), k=4)
        prog = mutated_program(base, n_contexts=2, fraction=0.2, seed=1)
        mapped = map_program(prog, seed=1, effort=0.3)
        for rr in mapped.routes:
            for net in rr.nets.values():
                assert len(net.edges) == len(net.nodes) - 1, net.name

    def test_no_intra_context_wire_sharing(self):
        base = tech_map(ripple_adder(3), k=4)
        prog = mutated_program(base, n_contexts=2, fraction=0.2, seed=1)
        mapped = map_program(prog, seed=1, effort=0.3)
        for rr in mapped.routes:
            usage: dict[int, str] = {}
            for net in rr.nets.values():
                for node in net.nodes:
                    kind = mapped.rrg.kind_of(node)
                    if kind in (NodeKind.CHANX, NodeKind.CHANY):
                        assert node not in usage, (
                            f"wire shared by {usage[node]} and {net.name}"
                        )
                        usage[node] = net.name


class TestDeviceLifecycle:
    """configure -> serialize -> reload -> execute."""

    def test_full_lifecycle(self):
        flat = tech_map(iscas_c17(), k=4)
        prog = temporal_partition(flat, n_contexts=2)
        mapped = map_program(prog, seed=2, effort=0.3)
        device = MultiContextFPGA(mapped.params)
        device.configure_program(prog, mapped.placements, mapped.routes)

        # serialize + reload: plane contents identical
        text = dump_configuration(device)
        reloaded = load_configuration(text)
        assert roundtrip_equal(device, reloaded)

        # execute the DPGA schedule against the golden model
        ex = MultiContextExecutor(prog, device=device)
        stim = {f"in_n{i}": v for i, v in zip((1, 2, 3, 6, 7), (1, 0, 1, 1, 0))}
        stim |= {f"n{i}": v for i, v in zip((1, 2, 3, 6, 7), (1, 0, 1, 1, 0))}
        ex.compare_device_vs_golden(
            ContextSchedule.round_robin(prog.n_contexts), stim
        )

    def test_context_switch_flip_counts_sane(self):
        base = tech_map(ripple_adder(2), k=4)
        prog = mutated_program(base, n_contexts=4, fraction=0.3, seed=5)
        mapped = map_program(prog, seed=1, effort=0.3)
        device = MultiContextFPGA(mapped.params)
        device.configure_program(prog, mapped.placements, mapped.routes)
        total_bits = mapped.params.n_tiles * (1 << mapped.params.lut_inputs)
        for ctx in (1, 2, 3, 0):
            flips = device.switch_context(ctx)
            assert 0 <= flips <= total_bits


class TestStatisticsConsistency:
    """Measured statistics agree across independent extractors."""

    def test_change_fraction_vs_flip_count(self):
        base = tech_map(ripple_adder(2), k=4)
        prog = mutated_program(base, n_contexts=2, fraction=0.0, seed=1)
        mapped = map_program(prog, seed=1)
        assert verify_mapped(mapped, seed=1)
        stats = mapped.stats()
        # identical contexts: no switch changes, no LUT pattern diversity
        assert stats.switch.change_fraction() == 0.0
        hist = stats.luts.distinct_planes_per_tile()
        assert all(v == 1 for v in hist.values())

    def test_mutation_raises_measured_change(self):
        base = tech_map(random_dag(5, 16, 3, seed=2), k=4)

        def change_rate(fraction):
            mapped = map_program(mutated_program(base, 4, fraction, seed=3),
                                 seed=3)
            assert verify_mapped(mapped, seed=3)
            return mapped.stats().switch.change_fraction()

        assert change_rate(0.4) > change_rate(0.0)
