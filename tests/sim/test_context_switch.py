"""Tests for the DPGA-style multi-context executor."""

import pytest

from repro.analysis.experiments import map_program
from repro.core.fpga import MultiContextFPGA
from repro.errors import SimulationError
from repro.netlist.dfg import paper_example_program
from repro.netlist.synth import synthesize
from repro.netlist.techmap import tech_map
from repro.sim.context_switch import ContextSchedule, MultiContextExecutor
from repro.workloads.multicontext import temporal_partition


class TestSchedule:
    def test_round_robin(self):
        s = ContextSchedule.round_robin(3, rounds=2)
        assert s.steps() == [0, 1, 2, 0, 1, 2]


class TestGoldenExecution:
    def test_paper_example_runs(self):
        prog = paper_example_program()
        ex = MultiContextExecutor(prog)
        trace = ex.run(
            ContextSchedule.round_robin(2),
            external_inputs={"R": 1, "T": 1, "V": 0, "W": 1,
                             "X": 0, "Z": 0, "Y": 0},
        )
        assert len(trace.outputs_per_step) == 2
        assert trace.outputs_per_step[0]["P_O2"] == 1

    def test_temporal_pipeline_equals_flat_circuit(self):
        """Partitioned execution over one round-robin pass must equal the
        original combinational circuit."""
        flat = tech_map(
            synthesize(["a", "b", "c", "d"],
                       {"y": "((a & b) ^ (c | d)) | (a ^ d)"}),
            k=2,  # force depth > 1 so partitioning is non-trivial
        )
        prog = temporal_partition(flat, n_contexts=2)
        ext = {"a": 1, "b": 0, "c": 1, "d": 0}
        want = flat.evaluate_outputs(ext)["y"]
        stim = {f"in_{k}": v for k, v in ext.items()}
        stim.update(ext)
        trace = MultiContextExecutor(prog).run(
            ContextSchedule.round_robin(prog.n_contexts), stim
        )
        final = trace.outputs_per_step[-1]
        # the final band exports the primary output net
        found = [v for k, v in final.items() if k.startswith("P_")]
        assert want in found


class TestDeviceExecution:
    @pytest.fixture(scope="class")
    def configured(self):
        prog = paper_example_program()
        mapped = map_program(prog, share_aware=True, seed=2, effort=0.3)
        device = MultiContextFPGA(mapped.params)
        device.configure_program(prog, mapped.placements, mapped.routes)
        return prog, device

    def test_device_matches_golden(self, configured):
        prog, device = configured
        ex = MultiContextExecutor(prog, device=device)
        ex.compare_device_vs_golden(
            ContextSchedule.round_robin(2, rounds=2),
            external_inputs={"R": 1, "T": 0, "V": 1, "W": 1,
                             "X": 1, "Z": 0, "Y": 1},
        )

    def test_flip_accounting(self, configured):
        prog, device = configured
        ex = MultiContextExecutor(prog, device=device)
        trace = ex.run(ContextSchedule.round_robin(2, rounds=3))
        assert len(trace.config_flips_per_switch) == 6
        assert trace.total_flips >= 0

    def test_unconfigured_device_rejected(self):
        from repro.arch.params import ArchParams

        device = MultiContextFPGA(ArchParams(cols=3, rows=3))
        with pytest.raises(SimulationError):
            MultiContextExecutor(paper_example_program(), device=device)
