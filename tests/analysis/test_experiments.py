"""Tests for the experiment drivers."""

import pytest

from repro.analysis.experiments import (
    map_program,
    measured_mixes,
    run_area_experiment,
    verify_mapped,
)
from repro.analysis.sweep import sweep_change_rate_points, sweep_contexts_points
from repro.core.area_model import AreaModel
from repro.netlist.dfg import paper_example_program
from repro.netlist.synth import synthesize
from repro.netlist.techmap import tech_map
from repro.workloads.multicontext import mutated_program


@pytest.fixture(scope="module")
def small_prog():
    base = tech_map(
        synthesize(["a", "b", "c"], {"o1": "a & b | c", "o2": "a ^ c"}), k=4
    )
    return mutated_program(base, n_contexts=2, fraction=0.2, seed=4)


class TestMapping:
    def test_auto_params_fit(self, small_prog):
        mapped = map_program(small_prog, seed=1, effort=0.3)
        assert mapped.params.n_tiles >= len(small_prog.contexts[0].luts())

    def test_share_aware_reuses_routes(self, small_prog):
        mapped = map_program(small_prog, share_aware=True, seed=1, effort=0.3)
        assert mapped.reuse_fraction() > 0.0

    def test_naive_no_reuse(self, small_prog):
        mapped = map_program(small_prog, share_aware=False, seed=1, effort=0.3)
        assert mapped.reuse_fraction() == 0.0


class TestFullFlow:
    def test_verifies_functionally(self, small_prog):
        assert verify_mapped(map_program(small_prog, seed=1), seed=1)

    def test_stats_attached(self, small_prog):
        stats = map_program(small_prog, seed=1).stats()
        assert sum(stats.class_fractions().values()) == pytest.approx(1.0)


class TestAreaExperiment:
    def test_analytic_point_reproduces_paper(self):
        out = AreaModel().paper_operating_points()
        assert out["cmos"].ratio == pytest.approx(0.45, abs=0.02)
        assert out["fepg"].ratio == pytest.approx(0.37, abs=0.02)

    def test_measured_point_in_band(self):
        out = run_area_experiment(paper_example_program(), seed=2)
        assert 0.1 < out["cmos"].ratio < 0.9
        assert out["fepg"].ratio < out["cmos"].ratio

    def test_measured_mixes(self, small_prog):
        mapped = map_program(small_prog, seed=1, effort=0.3)
        mix, planes = measured_mixes(mapped.stats())
        assert mix.constant > 0.5
        assert planes >= 1.0


class TestSweeps:
    def test_change_rate_monotone(self):
        pts = sweep_change_rate_points([0.0, 0.05, 0.2, 0.5])
        ratios = [pt.cmos_ratio for pt in pts]
        assert ratios == sorted(ratios)

    def test_context_sweep_widening_advantage(self):
        """More contexts -> bigger conventional overhead -> better ratio."""
        pts = sweep_contexts_points([2, 4, 8])
        assert pts[-1].cmos_ratio < pts[0].cmos_ratio

    def test_fepg_below_cmos_everywhere(self):
        for pt in sweep_change_rate_points([0.0, 0.05, 0.2]):
            assert pt.fepg_ratio < pt.cmos_ratio
