"""Shared-memory yield campaigns: bit-identical rows, lean trial jobs.

Yield campaigns are the shared-memory backend's reason to exist: every
trial of a campaign needs the same golden mapping and the same
compiled substrate, so the pickled fan-out re-ships both per trial.
These tests pin that the shared fan-out (handles + pool-initializer
attach) reproduces the pickled rows bit-for-bit, that the lean trial
items really do drop the heavyweight payload, and that the runner
releases its publications on close.
"""

import pickle

import numpy as np
import pytest

from repro.analysis.sweep import SweepRunner
from repro.arch import shared
from repro.arch.compiled import flat_rrg_for
from repro.arch.params import ArchParams
from repro.netlist.techmap import tech_map
from repro.place.placer import place
from repro.reliability.defect_map import DefectMap
from repro.reliability.repair import build_golden
from repro.reliability.yield_runner import (
    YieldRunner,
    YieldTrialJob,
    _evaluate_trial_shared,
    evaluate_trial,
    trial_seed,
)
from repro.workloads.generators import random_dag

BASE = ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4)
RATES = [0.01, 0.03]
TRIALS = 3


@pytest.fixture(autouse=True)
def _clean_attach_cache():
    shared.detach_all()
    yield
    shared.detach_all()


def _netlist():
    return tech_map(random_dag(n_inputs=5, n_gates=10, n_outputs=4, seed=5),
                    k=4)


def _campaign_rows(runner, netlist):
    points = runner.run_campaign(netlist, "dag", BASE, RATES, TRIALS,
                                 seed=1, effort=0.2)
    return [pt.to_dict() for pt in points]


class TestCampaignRows:
    def test_rows_identical_across_backends(self):
        netlist = _netlist()
        seq = _campaign_rows(YieldRunner(backend="sequential"), netlist)
        thread = _campaign_rows(YieldRunner(backend="thread", workers=2),
                                netlist)
        with YieldRunner(backend="process", workers=2) as shm_runner:
            assert shm_runner._runner.shared_memory  # default on
            shm = _campaign_rows(shm_runner, netlist)
        pickled = _campaign_rows(
            YieldRunner(runner=SweepRunner(backend="process", workers=2,
                                           shared_memory=False)),
            netlist,
        )
        assert seq == thread == shm == pickled

    def test_shared_campaign_publishes_golden_substrate_and_defects(self):
        netlist = _netlist()
        runner = YieldRunner(backend="process", workers=2)
        try:
            _campaign_rows(runner, netlist)
            # one golden + one substrate + one defect-batch segment
            assert runner._runner.store().size() == 3
            assert shared.registry_size() == 3
        finally:
            runner.close()
        assert shared.registry_size() == 0


class TestLeanTrialItems:
    def _golden(self, netlist):
        c = flat_rrg_for(BASE)
        pl = place(netlist, BASE, seed=1, effort=0.2)
        golden = build_golden(c, netlist, pl, 25)
        assert golden is not None
        return c, golden

    def test_shared_item_evaluates_like_fat_job(self):
        netlist = _netlist()
        c, golden = self._golden(netlist)
        with shared.SharedStore() as store:
            gh = store.golden_for(("g", BASE), golden, netlist)
            sh = store.substrate_for(c)
            lean = YieldTrialJob(
                workload="dag", params=BASE, netlist=None,
                defect_rate=0.03, model="uniform", trial=0,
                defect_seed=trial_seed(1, 0, 0), seed=1, effort=0.2,
            )
            fat = YieldTrialJob(
                workload="dag", params=BASE, netlist=netlist,
                defect_rate=0.03, model="uniform", trial=0,
                defect_seed=trial_seed(1, 0, 0), seed=1, effort=0.2,
            )
            got = _evaluate_trial_shared((lean, gh, sh, None, 0))
            want = evaluate_trial(fat, golden)
            assert got.to_dict() == want.to_dict()

    def test_published_defect_batch_evaluates_like_local_sample(self):
        netlist = _netlist()
        c, golden = self._golden(netlist)
        dm = DefectMap.sample(c, 0.03, seed=trial_seed(1, 0, 0))
        with shared.SharedStore() as store:
            gh = store.golden_for(("g", BASE), golden, netlist)
            sh = store.substrate_for(c)
            dh = store.defects_for(("d", BASE), lambda: [dm])
            lean = YieldTrialJob(
                workload="dag", params=BASE, netlist=None,
                defect_rate=0.03, model="uniform", trial=0,
                defect_seed=trial_seed(1, 0, 0), seed=1, effort=0.2,
            )
            fat = YieldTrialJob(
                workload="dag", params=BASE, netlist=netlist,
                defect_rate=0.03, model="uniform", trial=0,
                defect_seed=trial_seed(1, 0, 0), seed=1, effort=0.2,
            )
            got = _evaluate_trial_shared((lean, gh, sh, dh, 0))
            want = evaluate_trial(fat, golden)
            assert got.to_dict() == want.to_dict()

    def test_defect_batch_round_trips_every_field(self):
        c = flat_rrg_for(BASE)
        maps = [
            DefectMap.sample(c, rate, seed=s, model=model)
            for rate, s, model in [
                (0.05, 3, "uniform"),
                (0.0, 4, "uniform"),       # clean die: empty id lists
                (0.08, 5, "uniform"),
            ]
        ]
        with shared.SharedStore() as store:
            dh = store.defects_for(("rt", BASE), lambda: maps)
            batch = dh.attach()
            assert batch.n_trials == len(maps)
            for i, want in enumerate(maps):
                got = batch.map_for(c, i, want.rate, want.seed)
                assert np.array_equal(got.wire_defects, want.wire_defects)
                assert np.array_equal(got.switch_defects,
                                      want.switch_defects)
                assert got.bad_tiles == want.bad_tiles
                assert np.array_equal(got.bad_edge_codes,
                                      want.bad_edge_codes)
                assert (got.node_ok == want.node_ok).all()
                assert got.node_ok_bytes == want.node_ok_bytes
                lowered, ref = got.live_edge_dst(c), want.live_edge_dst(c)
                assert lowered.dtype == ref.dtype == np.int32
                assert lowered.tobytes() == ref.tobytes()
                assert got.to_dict() == want.to_dict()

    def test_lean_item_payload_is_much_smaller(self):
        netlist = _netlist()
        c, golden = self._golden(netlist)
        with shared.SharedStore() as store:
            gh = store.golden_for(("g", BASE), golden, netlist)
            sh = store.substrate_for(c)
            lean = YieldTrialJob(
                workload="dag", params=BASE, netlist=None,
                defect_rate=0.03, model="uniform", trial=0,
                defect_seed=trial_seed(1, 0, 0), seed=1, effort=0.2,
            )
            fat = YieldTrialJob(
                workload="dag", params=BASE, netlist=netlist,
                defect_rate=0.03, model="uniform", trial=0,
                defect_seed=trial_seed(1, 0, 0), seed=1, effort=0.2,
            )
            dh = store.defects_for(
                ("d", BASE),
                lambda: [DefectMap.sample(c, 0.03, seed=trial_seed(1, 0, 0))],
            )
            lean_bytes = len(pickle.dumps((lean, gh, sh, dh, 0)))
            fat_bytes = len(pickle.dumps((fat, golden)))
            assert lean_bytes < fat_bytes / 2


class TestSpareWidthCurve:
    def test_curve_identical_shared_vs_sequential(self):
        netlist = _netlist()
        seq = YieldRunner(backend="sequential").spare_width_curve(
            netlist, "dag", BASE, [0, 2], rate=0.03, trials=TRIALS,
            seed=1, effort=0.2,
        )
        with YieldRunner(backend="process", workers=2) as runner:
            shm = runner.spare_width_curve(
                netlist, "dag", BASE, [0, 2], rate=0.03, trials=TRIALS,
                seed=1, effort=0.2,
            )
        assert [p.to_dict() for p in seq] == [p.to_dict() for p in shm]
