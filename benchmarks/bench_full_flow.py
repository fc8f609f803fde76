"""End-to-end flow — synth, map, place, route, verify, simulate.

Not a paper figure per se, but the substrate every figure rests on:
benchmarks the full mapping pipeline and asserts functional equivalence
between the configured device and the source program on every workload.
"""

import pytest

from repro.analysis.experiments import map_program, run_full_flow
from repro.core.fpga import MultiContextFPGA
from repro.sim.context_switch import ContextSchedule, MultiContextExecutor
from repro.utils.tables import TextTable, format_ratio
from repro.workloads.multicontext import workload_suite


class TestFullFlow:
    def test_pipeline_throughput(self, benchmark):
        """Time the complete flow on a small program."""
        prog = workload_suite(small=True, seed=7)["adder_mut"]
        result = benchmark.pedantic(
            lambda: run_full_flow(prog, seed=3), rounds=1, iterations=2
        )
        assert result.verified

    def test_suite_summary(self, benchmark, suite, mapped_suite):
        def summarize():
            rows = []
            for name, m in mapped_suite.items():
                stats = m.stats()
                rows.append((
                    name,
                    max(len(nl.luts()) for nl in m.program.contexts),
                    f"{m.params.cols}x{m.params.rows}",
                    sum(rr.wirelength(m.rrg) for rr in m.routes),
                    stats.switch.change_fraction(),
                ))
            return rows

        rows = benchmark.pedantic(summarize, rounds=1, iterations=1)
        t = TextTable(
            ["workload", "LUTs/ctx", "grid", "wirelength", "switch change rate"],
            title="Full-flow summary (share-aware mapping)",
        )
        for name, luts, grid, wl, cr in rows:
            t.add_row([name, luts, grid, wl, format_ratio(cr)])
        print("\n" + t.render())
        for _, _, _, wl, cr in rows:
            assert wl > 0
            assert cr < 0.10

    def test_device_execution_matches_golden(self, benchmark, suite):
        """Configure a device and run the DPGA schedule on it."""
        prog = suite["crc_tp"]
        mapped = map_program(prog, share_aware=True, seed=3)
        device = MultiContextFPGA(mapped.params)
        device.configure_program(prog, mapped.placements, mapped.routes)
        ex = MultiContextExecutor(prog, device=device)
        schedule = ContextSchedule.round_robin(prog.n_contexts, rounds=2)

        def run():
            ex.compare_device_vs_golden(schedule, external_inputs={"d": 1})
            return True

        assert benchmark.pedantic(run, rounds=1, iterations=1)

    def test_all_contexts_verify(self, suite):
        for name, prog in suite.items():
            res = run_full_flow(prog, seed=3, verify=True)
            assert res.verified, name
