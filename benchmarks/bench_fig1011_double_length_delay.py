"""Figs. 10-11 — double-length lines, diamond switches, routing delay.

Reproduces the structural argument: series SE chains cost quadratically
(Elmore ladder), buffered double-length lines bypass alternate diamond
switches, and fabrics with double lines close timing faster.  Prints the
delay-vs-distance series for RCM-only vs mixed fabrics.
"""

import pytest

from repro.arch.params import ArchParams
from repro.arch.compiled import compiled_rrg_for
from repro.core.diamond import DiamondSwitch, Direction
from repro.netlist.techmap import tech_map
from repro.place.placer import place
from repro.route.pathfinder import route_context_compiled
from repro.route.timing import DelayModel, chain_delay, critical_path
from repro.utils.tables import TextTable
from repro.workloads.generators import parity_tree, ripple_adder


class TestChainLadder:
    def test_quadratic_series(self, benchmark):
        def series():
            return [chain_delay(n) for n in range(1, 11)]

        delays = benchmark(series)
        t = TextTable(["series SEs", "delay (norm.)"],
                      title="Fig. 10 motivation: series-SE Elmore ladder")
        for n, d in enumerate(delays, start=1):
            t.add_row([n, d])
        print("\n" + t.render())
        # strictly super-linear
        assert delays[7] > 2 * delays[3]

    def test_double_line_crossover(self):
        """A buffered double-length hop beats two series SEs."""
        m = DelayModel()
        assert m.t_buf < chain_delay(2, m)
        assert m.t_buf > chain_delay(1, m) / 2  # not free either


class TestDiamondSwitch:
    def test_connection_kernel(self, benchmark):
        d = DiamondSwitch(4)
        d.connect(Direction.NORTH, Direction.SOUTH, 0)
        d.connect(Direction.NORTH, Direction.EAST, 1)
        benchmark(d.connections, 0)
        assert d.connected_group(Direction.NORTH, 0) == {
            Direction.NORTH, Direction.SOUTH,
        }


class TestFabricDelay:
    @pytest.mark.parametrize("workload", ["adder", "parity"])
    def test_double_lines_cut_critical_path(self, benchmark, workload):
        """Critical path with and without double-length lines."""
        n = tech_map(
            ripple_adder(4) if workload == "adder" else parity_tree(8), k=4
        )

        def measure():
            out = {}
            for frac in (0.0, 0.5):
                params = ArchParams(
                    cols=7, rows=7, channel_width=10,
                    double_fraction=frac, io_capacity=4,
                )
                g = compiled_rrg_for(params)
                pl = place(n, params, seed=0, effort=0.4)
                rr = route_context_compiled(g, n, pl)
                out[frac] = critical_path(g, n, rr, pl)
            return out

        results = benchmark.pedantic(measure, rounds=1, iterations=1)
        t = TextTable(
            ["double-line fraction", "critical path (norm.)"],
            title=f"Fig. 10: routing delay — {workload}",
        )
        for frac, cp in sorted(results.items()):
            t.add_row([frac, f"{cp:.2f}"])
        print("\n" + t.render())
        assert results[0.5] <= results[0.0] * 1.02
