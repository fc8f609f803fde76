"""Cross-module integration and pipeline property tests.

These tests exercise the complete flow — synthesis, optimization,
technology mapping, placement, routing, device configuration, bitstream
serialization, execution — on generated circuits, asserting the
invariants that hold end to end.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import map_program, verify_mapped
from repro.analysis.verification import assert_equivalent, verify_device
from repro.arch.compiled import NodeKind
from repro.core.fpga import MultiContextFPGA
from repro.core.serialize import dump_configuration, load_configuration, roundtrip_equal
from repro.netlist.optimize import optimize
from repro.netlist.synth import synthesize
from repro.netlist.techmap import tech_map
from repro.sim.context_switch import ContextSchedule, MultiContextExecutor
from repro.workloads.datapaths import barrel_shifter, iscas_c17, priority_encoder
from repro.workloads.generators import random_dag, ripple_adder
from repro.workloads.multicontext import mutated_program, temporal_partition


class TestSynthesisPipeline:
    """synth -> optimize -> techmap preserves function."""

    @pytest.mark.parametrize("circuit_fn", [
        lambda: ripple_adder(3),
        lambda: barrel_shifter(4),
        lambda: priority_encoder(4),
        lambda: iscas_c17(),
    ])
    def test_optimize_then_map_equivalent(self, circuit_fn):
        original = circuit_fn()
        work = original.copy("work")
        optimize(work)
        mapped = tech_map(work, k=4)
        assert_equivalent(original, mapped)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_pipeline_property(self, seed):
        original = random_dag(n_inputs=5, n_gates=14, n_outputs=3, seed=seed)
        work = original.copy("work")
        optimize(work)
        mapped = tech_map(work, k=4)
        assert_equivalent(original, mapped)


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
