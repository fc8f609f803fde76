"""Shared-memory sweep backend: bit-identical rows, publish policy.

The zero-copy process backend must be invisible in the results: rows
bit-identical to the sequential, thread, and pickling-process
backends, substrates published only when a grid actually shares one
``ArchParams`` across points (unique-params points build worker-side
— publishing them would serialize work the pool could overlap), and
segments released on runner close.
"""

import pytest

from repro.analysis.sweep import (
    SweepJob,
    SweepRunner,
    channel_width_jobs,
)
from repro.arch import shared
from repro.arch.params import ArchParams
from repro.netlist.techmap import tech_map
from repro.workloads.generators import random_dag

BASE = ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4)


@pytest.fixture(autouse=True)
def _clean_attach_cache():
    shared.detach_all()
    yield
    shared.detach_all()


def _netlist():
    return tech_map(random_dag(n_inputs=5, n_gates=12, n_outputs=4, seed=3),
                    k=4)


def _shared_grid(netlist):
    """A grid where several points ride one substrate (same params,
    different seeds) plus one unique-params point."""
    jobs = [
        SweepJob("seed", float(seed), BASE, netlist, seed=seed, effort=0.2)
        for seed in range(4)
    ]
    jobs.append(SweepJob(
        "seed", 99.0, BASE.with_(channel_width=9), netlist, seed=0,
        effort=0.2,
    ))
    return jobs


def _rows(runner, jobs):
    return [pt.to_dict() for pt in runner.run(jobs)]


class TestSharedBackendRows:
    def test_rows_identical_across_all_backends(self):
        netlist = _netlist()
        jobs = _shared_grid(netlist)
        seq = _rows(SweepRunner(backend="sequential"), jobs)
        thread = _rows(SweepRunner(backend="thread", workers=2), jobs)
        with SweepRunner(backend="process", workers=2,
                         shared_memory=True) as shm_runner:
            shm = _rows(shm_runner, jobs)
        pickled = _rows(
            SweepRunner(backend="process", workers=2, shared_memory=False),
            jobs,
        )
        assert seq == thread == shm == pickled

    def test_channel_width_rows_identical(self):
        # every point has unique params here: the shared path must
        # publish nothing and still reproduce the rows
        netlist = _netlist()
        jobs = channel_width_jobs(netlist, BASE, [6, 7, 8, 9], seed=0,
                                  effort=0.2)
        seq = _rows(SweepRunner(backend="sequential"), jobs)
        with SweepRunner(backend="process", workers=2,
                         shared_memory=True) as runner:
            shm = _rows(runner, jobs)
            assert runner._store is None or runner._store.size() == 0
        assert seq == shm


class TestPublishPolicy:
    def test_only_multi_point_params_published(self):
        netlist = _netlist()
        jobs = _shared_grid(netlist)
        runner = SweepRunner(backend="process", workers=2,
                             shared_memory=True)
        try:
            _rows(runner, jobs)
            # 4 points share BASE -> one publication; the unique
            # 9-track point builds worker-side
            assert runner.store().size() == 1
            assert shared.registry_size() >= 1
        finally:
            runner.close()
        assert runner.store().size() == 0
        runner.close()

    def test_close_releases_publications(self):
        netlist = _netlist()
        runner = SweepRunner(backend="process", workers=2,
                             shared_memory=True)
        _rows(runner, _shared_grid(netlist))
        assert runner.store().size() == 1
        runner.close()
        assert shared.registry_size() == 0

    def test_shared_memory_flag_defaults_from_env(self, monkeypatch):
        monkeypatch.setenv(shared.SHARED_MEMORY_ENV, "0")
        assert SweepRunner(backend="process").shared_memory is False
        monkeypatch.setenv(shared.SHARED_MEMORY_ENV, "1")
        assert SweepRunner(backend="process").shared_memory is True
        # explicit argument beats the environment
        monkeypatch.setenv(shared.SHARED_MEMORY_ENV, "0")
        assert SweepRunner(backend="process",
                           shared_memory=True).shared_memory is True
