"""Tests for the Monte Carlo yield campaigns."""

import pytest

from repro.arch.params import ArchParams
from repro.netlist.techmap import tech_map
from repro.reliability import (
    YieldPoint,
    YieldRunner,
    combined_reliability_report,
    trial_seed,
)
from repro.workloads.generators import ripple_adder

PARAMS = ArchParams(cols=5, rows=5, channel_width=7, io_capacity=4)
TRIALS = 5


@pytest.fixture(scope="module")
def netlist():
    return tech_map(ripple_adder(3), k=4)


class TestTrialSeeds:
    def test_deterministic(self):
        assert trial_seed(0, 1, 2) == trial_seed(0, 1, 2)

    def test_distinct_across_indices(self):
        seeds = {trial_seed(0, p, t) for p in range(4) for t in range(16)}
        assert len(seeds) == 64


class TestCampaign:
    def test_zero_rate_yields_everything(self, netlist):
        runner = YieldRunner()
        (pt,) = runner.iter_campaign(
            netlist, "adder", PARAMS, [0.0], TRIALS, seed=3
        )
        assert pt.yield_fraction == 1.0
        assert pt.repair_histogram["none"] == TRIALS
        assert pt.mean_wirelength_overhead == 1.0

    def test_histogram_sums_to_trials(self, netlist):
        runner = YieldRunner()
        points = list(runner.iter_campaign(
            netlist, "adder", PARAMS, [0.02, 0.1], TRIALS, seed=3
        ))
        for pt in points:
            assert sum(pt.repair_histogram.values()) == TRIALS
            assert 0.0 <= pt.yield_fraction <= 1.0

    def test_yield_monotone_in_defect_rate(self, netlist):
        """Smoke for the first-order physics: more defects, fewer good
        dies (deterministic for the pinned seed/rate grid)."""
        runner = YieldRunner()
        points = list(runner.iter_campaign(
            netlist, "adder", PARAMS, [0.0, 0.05, 0.4], TRIALS, seed=3
        ))
        fractions = [pt.yield_fraction for pt in points]
        assert fractions == sorted(fractions, reverse=True)
        assert fractions[0] == 1.0
        assert fractions[-1] < 1.0

    def test_mean_defects_grow_with_rate(self, netlist):
        runner = YieldRunner()
        points = list(runner.iter_campaign(
            netlist, "adder", PARAMS, [0.01, 0.2], TRIALS, seed=3
        ))
        assert points[0].mean_defects < points[1].mean_defects

    def test_backends_identical_rows(self, netlist):
        rows = {}
        for backend in ("sequential", "thread", "process"):
            runner = YieldRunner(backend=backend, workers=2)
            pts = runner.iter_campaign(
                netlist, "adder", PARAMS, [0.01, 0.08], 3, seed=5
            )
            rows[backend] = [pt.to_dict() for pt in pts]
        assert rows["sequential"] == rows["thread"]
        assert rows["sequential"] == rows["process"]

    def test_clustered_model_runs(self, netlist):
        runner = YieldRunner()
        (pt,) = runner.iter_campaign(
            netlist, "adder", PARAMS, [0.05], TRIALS, model="clustered",
            seed=3,
        )
        assert pt.model == "clustered"
        assert sum(pt.repair_histogram.values()) == TRIALS

    def test_unroutable_golden_reports_zero_yield(self, netlist):
        tight = PARAMS.with_(channel_width=1)
        runner = YieldRunner()
        (pt,) = runner.iter_campaign(
            netlist, "adder", tight, [0.01], TRIALS, seed=3
        )
        assert pt.yield_fraction == 0.0
        assert not pt.golden_routed
        assert pt.repair_histogram["fail"] == TRIALS

    def test_rejects_unknown_model(self, netlist):
        runner = YieldRunner()
        with pytest.raises(ValueError):
            runner.iter_campaign(netlist, "adder", PARAMS, [0.1], 2,
                                 model="bogus")


def _spare_curve(runner, netlist, spares, rate, trials, seed):
    """A yield-vs-spare-track curve the way the Session runs one: one
    single-rate campaign per widened channel width."""
    return [
        pt
        for spare in spares
        for pt in runner.iter_campaign(
            netlist, "adder",
            PARAMS.with_(channel_width=PARAMS.channel_width + spare),
            [rate], trials, seed=seed, spare_tracks=spare,
        )
    ]


class TestSpareWidthCurve:
    def test_spares_annotate_and_help(self, netlist):
        points = _spare_curve(YieldRunner(), netlist, [0, 3], rate=0.1,
                              trials=TRIALS, seed=3)
        assert [pt.spare_tracks for pt in points] == [0, 3]
        assert points[1].channel_width == PARAMS.channel_width + 3
        # spare routing can only help (deterministic for pinned seeds)
        assert points[1].yield_fraction >= points[0].yield_fraction

    def test_curve_identical_across_backends(self, netlist):
        curves = [
            [pt.to_dict() for pt in _spare_curve(
                YieldRunner(backend=backend, workers=2), netlist, [0, 2],
                rate=0.03, trials=3, seed=1)]
            for backend in ("sequential", "thread", "process")
        ]
        assert curves[0] == curves[1] == curves[2]

    def test_placements_shared_across_widths(self, netlist):
        runner = YieldRunner()
        _spare_curve(runner, netlist, [0, 1], rate=0.01, trials=2, seed=3)
        # channel width is invisible to the placer: one cached anneal
        assert len(runner._runner._placements) == 1

    def test_session_curve_shares_one_placement(self):
        """The Session's spare-width branch runs its campaigns on one
        runner, so every widened width reuses the first anneal."""
        from repro.api import ExecutionConfig, Session, YieldRequest

        session = Session()
        result = session.run(YieldRequest(
            workload="adder", grid=5, width=7, rates=(0.01,), trials=2,
            spares=(0, 1, 2), execution=ExecutionConfig(seed=3),
        ))
        assert [pt.channel_width for pt in result.points] == [7, 8, 9]
        runner = session.yield_runner(ExecutionConfig(seed=3))
        assert len(runner._runner._placements) == 1


class TestSerialization:
    def test_yield_point_round_trip(self, netlist):
        runner = YieldRunner()
        (pt,) = runner.iter_campaign(
            netlist, "adder", PARAMS, [0.05], 3, seed=3
        )
        again = YieldPoint.from_dict(pt.to_dict())
        assert again.to_dict() == pt.to_dict()

    def test_combined_report_composes_both_layers(self, netlist):
        import json

        from repro.core.defects import SoftErrorReport

        runner = YieldRunner()
        pts = list(runner.iter_campaign(netlist, "adder", PARAMS, [0.02], 2,
                                        seed=3))
        report = combined_reliability_report(
            yield_points=pts,
            soft_error=SoftErrorReport(8, 8, 5, 16),
        )
        assert len(report["physical_yield"]) == 1
        assert report["soft_errors"]["silent_corruption"] == 3
        json.dumps(report)  # fully JSON-serializable


class TestProfilePlumbing:
    """``profile=True`` on the request folds each row's telemetry spans
    into a phase table; off leaves rows byte-identical to the
    unprofiled contract."""

    @staticmethod
    def _points(rates=(0.08,), trials=TRIALS, profile=False, **execution):
        from repro.api import ExecutionConfig, Session, YieldRequest

        req = YieldRequest(
            workload="adder", grid=5, width=7, rates=rates, trials=trials,
            profile=profile, execution=ExecutionConfig(seed=3, **execution),
        )
        return Session().run(req).points

    def test_profiled_campaign_carries_phase_blocks(self):
        (pt,) = self._points(profile=True)
        assert pt.profile is not None
        assert pt.metrics is None  # telemetry stayed off
        d = pt.to_dict()
        assert "profile" in d
        # defect sampling happens on every trial; repair phases appear
        # whenever some die needed the ladder
        assert "trial.sample" in d["profile"]
        for entry in d["profile"].values():
            assert set(entry) == {"seconds", "calls"}
            assert entry["seconds"] >= 0.0
            assert entry["calls"] >= 0

    def test_unprofiled_rows_omit_the_block(self):
        (pt,) = self._points()
        assert pt.profile is None
        assert "profile" not in pt.to_dict()

    def test_profile_never_perturbs_the_row(self):
        (plain,) = self._points()
        (profiled,) = self._points(profile=True)
        d = profiled.to_dict()
        d.pop("profile")
        assert d == plain.to_dict()

    def test_profiled_rows_round_trip(self):
        (pt,) = self._points(rates=(0.05,), trials=3, profile=True)
        again = YieldPoint.from_dict(pt.to_dict())
        assert again.to_dict() == pt.to_dict()

    def test_process_backend_profiles_every_trial(self):
        points = self._points(rates=(0.0, 0.08), profile=True,
                              backend="process", workers=2)
        for pt in points:
            assert pt.metrics is None
            assert pt.profile["repair.detect"]["calls"] == TRIALS

    def test_process_rows_sample_inside_every_trial(self):
        """Each die is sampled inside the trial that repairs it, so
        every process-backend row carries its own ``trial.sample``
        calls, no row carries a campaign-level sampling span, and the
        rows are otherwise the unprofiled ones."""
        kw = dict(rates=(0.0, 0.08), trials=6, backend="process", workers=2)
        profiled = self._points(profile=True, **kw)
        assert len(profiled) == 2
        for pt in profiled:
            assert pt.profile["trial.sample"]["calls"] == 6
            assert "campaign.sample" not in pt.profile
        plain = self._points(**kw)
        rows = [pt.to_dict() for pt in profiled]
        for row in rows:
            row.pop("profile")
        assert rows == [pt.to_dict() for pt in plain]

    def test_run_id_ships_spans_back_in_the_row(self, netlist):
        from repro.utils.telemetry import phase_totals

        (pt,) = YieldRunner().iter_campaign(
            netlist, "adder", PARAMS, [0.08], TRIALS, seed=3,
            run_id="run-test",
        )
        assert pt.profile is None  # only the Session folds the spans
        totals = phase_totals(pt.metrics)
        assert totals["trial.sample"]["calls"] == TRIALS
        assert totals["repair.detect"]["calls"] == TRIALS
