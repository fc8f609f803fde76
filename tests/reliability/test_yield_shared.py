"""Yield campaigns share one golden mapping across every trial's job.

Each trial of a campaign evaluates against the same golden mapping and
the same compiled substrate; the process fan-out pickles both into each
trial job. These tests pin that every backend, and a process runner
passed in from outside, produces the same campaign rows bit-for-bit.
"""

from repro.analysis.sweep import SweepRunner
from repro.arch.params import ArchParams
from repro.netlist.techmap import tech_map
from repro.reliability.yield_runner import YieldRunner
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
