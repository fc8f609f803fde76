"""Architecture design-space exploration on the RCM fabric.

Applies standard FPGA-architecture methodology to the proposed fabric:
minimum routable channel width, the single/double track split (Fig. 10's
knob), and connection-block flexibility — the sweeps an adopter would
run before committing to parameters.
"""

import pytest

from repro.analysis.sweep import (
    SweepRunner,
    double_fraction_jobs,
    fc_jobs,
    minimum_channel_width,
)
from repro.arch.params import ArchParams
from repro.netlist.techmap import tech_map
from repro.utils.tables import TextTable
from repro.workloads.generators import random_dag, ripple_adder


@pytest.fixture(scope="module")
def circuit():
    return tech_map(ripple_adder(4), k=4)


@pytest.fixture(scope="module")
def base():
    return ArchParams(cols=6, rows=6, channel_width=10, io_capacity=4)


class TestMinimumWidth:
    def test_w_min_per_circuit(self, benchmark, base):
        circuits = {
            "adder4": tech_map(ripple_adder(4), k=4),
            "rand20": tech_map(random_dag(5, 20, 4, seed=9), k=4),
        }

        def sweep():
            return {
                name: minimum_channel_width(c, base, lo=2, hi=14, effort=0.25)
                for name, c in circuits.items()
            }

        widths = benchmark.pedantic(sweep, rounds=1, iterations=1)
        t = TextTable(["circuit", "minimum channel width"],
                      title="Routability: W_min per workload")
        for name, w in widths.items():
            t.add_row([name, w])
        print("\n" + t.render())
        assert all(2 <= w <= 14 for w in widths.values())


def _sweep(jobs):
    """``(value, point)`` rows of one grid on a fresh runner."""
    return [(pt.value, pt) for pt in SweepRunner().iter_run(jobs)]


class TestDoubleFraction:
    def test_sweep(self, benchmark, circuit, base):
        rows = benchmark.pedantic(
            lambda: _sweep(double_fraction_jobs(
                circuit, base, [0.0, 0.25, 0.5, 0.75], effort=0.3
            )),
            rounds=1, iterations=1,
        )
        t = TextTable(
            ["double fraction", "routed", "wirelength", "critical path"],
            title="Fig. 10's knob: single/double track split",
        )
        for f, pt in rows:
            t.add_row([f, pt.routed, pt.wirelength, f"{pt.critical_path:.1f}"])
        print("\n" + t.render())
        routed = [pt for _, pt in rows if pt.routed]
        assert len(routed) >= 3
        # delay at 50% doubles beats the RCM-only fabric
        by_frac = dict(rows)
        if by_frac[0.0].routed and by_frac[0.5].routed:
            assert by_frac[0.5].critical_path <= by_frac[0.0].critical_path * 1.05


class TestFcFlexibility:
    def test_sweep(self, benchmark, circuit, base):
        rows = benchmark.pedantic(
            lambda: _sweep(fc_jobs(circuit, base, [1.0, 0.5, 0.3],
                                   effort=0.3)),
            rounds=1, iterations=1,
        )
        t = TextTable(
            ["Fc", "routed", "wirelength", "critical path"],
            title="Connection-block flexibility",
        )
        for fc, pt in rows:
            t.add_row([fc, pt.routed, pt.wirelength, f"{pt.critical_path:.1f}"])
        print("\n" + t.render())
        assert rows[0][1].routed  # full Fc always routes
