"""Yield campaigns share one golden mapping across every trial's job.

Each trial of a campaign evaluates against the same golden mapping and
the same compiled substrate; the process fan-out pickles both into each
trial job. These tests pin that every backend, and a process runner
passed in from outside, produces the same campaign rows bit-for-bit.
"""

import pickle
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.analysis.sweep import SweepRunner
from repro.arch.params import ArchParams
from repro.netlist.techmap import tech_map
from repro.reliability.repair import RepairLevel
from repro.reliability.yield_runner import (
    YieldRunner,
    YieldTrialJob,
    evaluate_trial,
    trial_seed,
)
from repro.workloads.generators import random_dag

BASE = ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4)
RATES = [0.01, 0.03]
TRIALS = 3


def _netlist():
    return tech_map(random_dag(n_inputs=5, n_gates=10, n_outputs=4, seed=5),
                    k=4)


def _campaign_rows(runner, netlist):
    points = runner.iter_campaign(netlist, "dag", BASE, RATES, TRIALS,
                                  seed=1, effort=0.2)
    return [pt.to_dict() for pt in points]


class TestCampaignRows:
    def test_rows_identical_across_backends(self):
        netlist = _netlist()
        seq = _campaign_rows(YieldRunner(backend="sequential"), netlist)
        thread = _campaign_rows(YieldRunner(backend="thread", workers=2),
                                netlist)
        process = _campaign_rows(YieldRunner(backend="process", workers=2),
                                 netlist)
        explicit = _campaign_rows(
            YieldRunner(runner=SweepRunner(backend="process", workers=2)),
            netlist,
        )
        assert seq == thread == process == explicit


class TestSharedGolden:
    WORKERS = 4

    def test_threads_share_one_golden(self):
        """Threads run trials against one golden whose caches are still
        empty, released together, so their first warm reroutes fetch the
        endpoints the golden caches at the same moment and hand them to
        concurrent native routes: every trial's outcome equals the one a
        single thread gets."""
        netlist = _netlist()
        golden = YieldRunner().golden_for(netlist, BASE, seed=1, effort=0.2)
        jobs = [YieldTrialJob("dag", BASE, netlist, 0.03, "uniform", t,
                              trial_seed(1, 0, t), seed=1, effort=0.2)
                for t in range(2 * self.WORKERS)]
        want = [evaluate_trial(job, pickle.loads(pickle.dumps(golden)))
                for job in jobs]
        assert any(r.outcome.level >= RepairLevel.ROUTE_AROUND for r in want)

        shared = pickle.loads(pickle.dumps(golden))  # empty caches
        start = threading.Barrier(self.WORKERS)

        def trial(job):
            start.wait()
            return evaluate_trial(job, shared)

        with ThreadPoolExecutor(self.WORKERS) as pool:
            got = list(pool.map(trial, jobs))
        assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
