"""Tests for design-space exploration: the routing grids and the
minimum-channel-width bisection of :mod:`repro.analysis.sweep`."""

import pytest

from repro.analysis.sweep import (
    SweepRunner,
    channel_width_jobs,
    double_fraction_jobs,
    fc_jobs,
    minimum_channel_width,
)
from repro.arch.params import ArchParams
from repro.errors import RoutingError
from repro.netlist.techmap import tech_map
from repro.workloads.generators import ripple_adder


def _sweep(jobs):
    """``(value, point)`` rows of one grid on a fresh runner."""
    return [(pt.value, pt) for pt in SweepRunner().iter_run(jobs)]


@pytest.fixture(scope="module")
def setup():
    netlist = tech_map(ripple_adder(3), k=4)
    base = ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4)
    return netlist, base


class TestMinimumChannelWidth:
    def test_finds_feasible_width(self, setup):
        netlist, base = setup
        w = minimum_channel_width(netlist, base, lo=2, hi=12, effort=0.2)
        assert 2 <= w <= 12
        # one below must fail or w == lo
        widths = [w - 1, w] if w > 2 else [w]
        rows = dict(_sweep(channel_width_jobs(netlist, base, widths,
                                              effort=0.2)))
        assert rows[w].routed
        if w > 2:
            assert not rows[w - 1].routed

    def test_raises_when_impossible(self, setup):
        netlist, base = setup
        tiny = base.with_(cols=3, rows=3, io_capacity=2)
        with pytest.raises(RoutingError):
            minimum_channel_width(netlist, tiny, lo=1, hi=1, effort=0.1)


class TestDoubleFractionSweep:
    def test_all_points_covered(self, setup):
        netlist, base = setup
        rows = _sweep(double_fraction_jobs(netlist, base, [0.0, 0.5],
                                           effort=0.2))
        assert len(rows) == 2
        assert all(pt.routed for _, pt in rows)

    def test_doubles_dont_hurt_delay(self, setup):
        netlist, base = setup
        rows = dict(_sweep(double_fraction_jobs(netlist, base, [0.0, 0.5],
                                                effort=0.3)))
        assert rows[0.5].critical_path <= rows[0.0].critical_path * 1.05


class TestFcSweep:
    def test_lower_fc_still_routes(self, setup):
        netlist, base = setup
        rows = _sweep(fc_jobs(netlist, base, [1.0, 0.5], effort=0.2))
        assert all(pt.routed for _, pt in rows)

    def test_wirelength_reported(self, setup):
        netlist, base = setup
        rows = _sweep(fc_jobs(netlist, base, [1.0], effort=0.2))
        assert rows[0][1].wirelength > 0
