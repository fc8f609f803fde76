"""Tests for the sweep/DSE subsystem.

The load-bearing property: compiled sweeps must reproduce the *legacy
per-point flow* — build an object RRG per point, place, route with the
dict/set PathFinder — verdict for verdict and wirelength for
wirelength.  The legacy flow is reconstructed here (the production code
no longer carries it), across two workloads.
"""

import json
import os

import pytest

from repro.analysis.sweep import (
    SweepJob,
    SweepPoint,
    SweepRunner,
    channel_width_jobs,
    double_fraction_jobs,
    fc_jobs,
    minimum_channel_width,
    sweep_change_rate_points,
    sweep_contexts_points,
)
from legacy_router import route_context_legacy, wirelength
from repro.arch.compiled import compiled_rrg_for
from repro.arch.params import ArchParams
from repro.errors import RoutingError
from repro.netlist.techmap import tech_map
from repro.place.placer import place
from repro.route.timing import critical_path
from rrg_oracle import build_rrg
from repro.workloads.generators import random_dag, ripple_adder

BASE = ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4)
EFFORT = 0.2


def _workloads():
    return {
        "adder": tech_map(ripple_adder(3), k=4),
        "random": tech_map(random_dag(5, 14, 4, seed=11), k=4),
    }


def _legacy_point(netlist, params, seed=0, effort=EFFORT):
    """The seed repo's per-point flow: the legacy router on the object
    graph, timed on the same device's substrate."""
    g = build_rrg(params)
    pl = place(netlist, params, seed=seed, effort=effort)
    try:
        rr = route_context_legacy(g, netlist, pl, max_iterations=25)
    except RoutingError:
        return (False, 0, 0.0)
    return (True, wirelength(g, rr),
            critical_path(compiled_rrg_for(params), netlist, rr, pl))


def _legacy_minimum_width(netlist, base, lo, hi, effort=EFFORT):
    if not _legacy_point(netlist, base.with_(channel_width=hi),
                         effort=effort)[0]:
        raise RoutingError("unroutable")
    while lo < hi:
        mid = (lo + hi) // 2
        if _legacy_point(netlist, base.with_(channel_width=mid),
                         effort=effort)[0]:
            hi = mid
        else:
            lo = mid + 1
    return hi


class TestLegacyEquivalence:
    """Compiled sweep results == legacy per-point flow, 2 workloads."""

    @pytest.mark.parametrize("name", ["adder", "random"])
    def test_minimum_channel_width_matches_legacy(self, name):
        netlist = _workloads()[name]
        compiled = minimum_channel_width(
            netlist, BASE, lo=2, hi=12, effort=EFFORT
        )
        legacy = _legacy_minimum_width(netlist, BASE, lo=2, hi=12)
        assert compiled == legacy, name

    @pytest.mark.parametrize("name", ["adder", "random"])
    def test_double_fraction_matches_legacy(self, name):
        netlist = _workloads()[name]
        fractions = [0.0, 0.5, 1.0]
        jobs = double_fraction_jobs(netlist, BASE, fractions, effort=EFFORT)
        for f, pt in zip(fractions, SweepRunner().iter_run(jobs)):
            routed, wl, cp = _legacy_point(
                netlist, BASE.with_(double_fraction=f)
            )
            assert pt.routed == routed, (name, f)
            assert pt.wirelength == wl, (name, f)
            assert pt.critical_path == pytest.approx(cp), (name, f)

    @pytest.mark.parametrize("name", ["adder", "random"])
    def test_fc_matches_legacy(self, name):
        netlist = _workloads()[name]
        fcs = [1.0, 0.5]
        jobs = fc_jobs(netlist, BASE, fcs, effort=EFFORT)
        for fc, pt in zip(fcs, SweepRunner().iter_run(jobs)):
            routed, wl, cp = _legacy_point(
                netlist, BASE.with_(fc_in=fc, fc_out=fc)
            )
            assert pt.routed == routed, (name, fc)
            assert pt.wirelength == wl, (name, fc)
            assert pt.critical_path == pytest.approx(cp), (name, fc)


class TestSweepRunner:
    def test_backend_validated(self):
        with pytest.raises(ValueError):
            SweepRunner(backend="fork-bomb")

    def test_empty_grid(self):
        rows = SweepRunner().iter_run([])
        assert list(rows) == []

    def test_result_order_matches_jobs(self):
        netlist = _workloads()["adder"]
        widths = [8, 4, 6]
        pts = list(SweepRunner().iter_run(
            channel_width_jobs(netlist, BASE, widths, effort=EFFORT)
        ))
        assert [pt.value for pt in pts] == widths

    def test_placement_cache_shared_across_runs(self):
        netlist = _workloads()["adder"]
        runner = SweepRunner()
        job = channel_width_jobs(netlist, BASE, [8], effort=EFFORT)[0]
        a = runner.placement_for(job)
        wider = channel_width_jobs(netlist, BASE, [12], effort=EFFORT)[0]
        assert runner.placement_for(wider) is a  # width is placement-invisible
        other_grid = SweepJob(
            "channel_width", 8, BASE.with_(cols=6, rows=6), netlist,
            effort=EFFORT,
        )
        assert runner.placement_for(other_grid) is not a

    def test_process_backend_matches_sequential(self):
        """Smoke: result order and values equal across backends."""
        netlist = _workloads()["adder"]
        jobs = channel_width_jobs(netlist, BASE, [4, 6, 8], effort=EFFORT)
        seq = list(SweepRunner().iter_run(jobs))
        proc = list(SweepRunner(backend="process", workers=2).iter_run(jobs))
        assert [pt.to_dict() for pt in proc] == [pt.to_dict() for pt in seq]

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity")
        or len(os.sched_getaffinity(0)) < 2,
        reason="needs CPU affinity and two CPUs")
    def test_process_workers_pinned_one_per_cpu(self):
        """Each process worker runs on one CPU of the parent's set while
        there is a CPU per worker, and on the whole set otherwise; the
        parent stays unpinned."""
        allowed = os.sched_getaffinity(0)
        rows = list(SweepRunner(backend="process", workers=2).iter_items(
            os.sched_getaffinity, [0] * 6))
        assert all(len(cpus) == 1 and cpus <= allowed and snap is None
                   for cpus, snap in rows)
        wide = len(allowed) + 1
        if wide <= 8:  # one worker more than CPUs, on a small host
            rows = list(SweepRunner(backend="process", workers=wide)
                        .iter_items(os.sched_getaffinity, [0] * wide))
            assert all(cpus == allowed for cpus, _snap in rows)
        assert os.sched_getaffinity(0) == allowed

    def test_thread_backend_matches_sequential(self):
        netlist = _workloads()["random"]
        jobs = fc_jobs(netlist, BASE, [1.0, 0.5], effort=EFFORT)
        seq = list(SweepRunner().iter_run(jobs))
        thr = list(SweepRunner(backend="thread", workers=2).iter_run(jobs))
        assert [pt.to_dict() for pt in thr] == [pt.to_dict() for pt in seq]

    @staticmethod
    def _rows_per_backend(jobs) -> list:
        return [
            [pt.to_dict() for pt in SweepRunner(backend=backend,
                                                workers=2).iter_run(jobs)]
            for backend in ("sequential", "thread", "process")
        ]

    def test_rows_identical_across_all_backends(self):
        """Several points on one ``ArchParams`` (seeds 0-3) plus one
        point on params unique in the grid."""
        netlist = tech_map(random_dag(5, 12, 4, seed=3), k=4)
        jobs = [
            SweepJob("seed", float(seed), BASE, netlist, seed=seed,
                     effort=EFFORT)
            for seed in range(4)
        ]
        jobs.append(SweepJob("seed", 99.0, BASE.with_(channel_width=9),
                             netlist, effort=EFFORT))
        seq, thread, proc = self._rows_per_backend(jobs)
        assert seq == thread == proc

    def test_channel_width_rows_identical(self):
        netlist = tech_map(random_dag(5, 12, 4, seed=3), k=4)
        jobs = channel_width_jobs(netlist, BASE, [6, 7, 8, 9],
                                  effort=EFFORT)
        seq, thread, proc = self._rows_per_backend(jobs)
        assert seq == thread == proc


class TestSweepPointSerialization:
    def test_round_trip(self):
        pt = SweepPoint("channel_width", 8, True, wirelength=61,
                        critical_path=7.8, iterations=2)
        again = SweepPoint.from_dict(json.loads(json.dumps(pt.to_dict())))
        assert again == pt

    def test_unrouted_point_defaults(self):
        pt = SweepPoint.from_dict({"axis": "fc", "value": 0.3,
                                   "routed": False})
        assert pt == SweepPoint("fc", 0.3, False)


class TestGridBuilders:
    def test_channel_width_params(self):
        netlist = _workloads()["adder"]
        jobs = channel_width_jobs(netlist, BASE, [4, 9])
        assert [j.params.channel_width for j in jobs] == [4, 9]
        assert all(j.axis == "channel_width" for j in jobs)

    def test_double_fraction_params(self):
        netlist = _workloads()["adder"]
        jobs = double_fraction_jobs(netlist, BASE, [0.25])
        assert jobs[0].params.double_fraction == 0.25

    def test_fc_sets_both_directions(self):
        netlist = _workloads()["adder"]
        (job,) = fc_jobs(netlist, BASE, [0.5])
        assert job.params.fc_in == job.params.fc_out == 0.5


class TestDsePort:
    def test_try_route_reports_metrics(self):
        """One point through the runner reports its route metrics."""
        netlist = _workloads()["adder"]
        job = SweepJob("point", 0.0, BASE, netlist, 0, EFFORT)
        (pt,) = SweepRunner().iter_run([job])
        assert pt.routed and pt.wirelength > 0 and pt.iterations >= 1

    def test_no_legacy_entry_points_imported(self):
        """The drivers ride the sweep subsystem, not the legacy
        per-point flow."""
        import repro.analysis.experiments as experiments
        import repro.analysis.sweep as sweep

        for module in (sweep, experiments):
            assert not hasattr(module, "build_rrg")
            assert not hasattr(module, "route_context")
            assert not hasattr(module, "route_context_legacy")


class TestAnalyticSweeps:
    def test_change_rate_points_monotone(self):
        pts = sweep_change_rate_points([0.0, 0.05, 0.2])
        assert [pt.value for pt in pts] == [0.0, 0.05, 0.2]
        # higher change rate -> more GENERAL decoders -> worse ratio
        assert pts[0].cmos_ratio < pts[-1].cmos_ratio

    def test_contexts_points_advantage_widens(self):
        pts = sweep_contexts_points([2, 8])
        assert pts[0].cmos_ratio > pts[-1].cmos_ratio

    def test_change_rate_honors_n_contexts(self):
        """Unlike the seed implementation (which accepted and ignored
        it), n_contexts now reaches the area model."""
        four = sweep_change_rate_points([0.05], n_contexts=4)[0]
        eight = sweep_change_rate_points([0.05], n_contexts=8)[0]
        assert four.cmos_ratio != eight.cmos_ratio


class TestProfilePlumbing:
    @staticmethod
    def _points(profile=False, **execution):
        from repro.api import ExecutionConfig, Session, SweepRequest

        req = SweepRequest(
            what="channel-width", workload="adder", grid=5, values=(8,),
            profile=profile,
            execution=ExecutionConfig(effort=EFFORT, **execution),
        )
        return Session().run(req).points

    def test_profiled_point_carries_phase_blocks(self):
        # through the runner the placement rides the cross-point cache,
        # so the profile covers the phases the point actually ran
        (pt,) = self._points(profile=True)
        d = pt.to_dict()
        assert "profile" in d
        assert "metrics" not in d  # telemetry stayed off
        assert "point.place" not in d["profile"]
        assert "point.route" in d["profile"]
        assert "point.timing" in d["profile"]
        for block in d["profile"].values():
            assert set(block) == {"seconds", "calls"}
            assert block["seconds"] >= 0.0
            assert block["calls"] >= 1

    def test_standalone_point_profiles_placement_too(self):
        from repro.analysis.sweep import evaluate_point
        from repro.utils.telemetry import Telemetry, collecting, phase_totals

        nl = tech_map(ripple_adder(3), k=4)
        (job,) = channel_width_jobs(nl, BASE, [8], seed=0, effort=EFFORT)
        with collecting(Telemetry("run-test")) as tel:
            pt = evaluate_point(job)
        assert pt.metrics is None  # only the pool loop attaches blocks
        profile = phase_totals(tel.snapshot())
        assert profile is not None
        assert "point.place" in profile
        assert "point.route" in profile

    def test_profile_never_perturbs_the_point(self):
        (plain,) = self._points()
        (profiled,) = self._points(profile=True)
        assert plain.profile is None
        assert "profile" not in plain.to_dict()
        d = profiled.to_dict()
        d.pop("profile")
        assert d == plain.to_dict()

    def test_profile_beside_telemetry_keeps_the_metrics(self):
        from repro.utils.telemetry import phase_totals

        (pt,) = self._points(profile=True, telemetry=True)
        assert pt.metrics is not None
        assert pt.profile == phase_totals(pt.metrics)
