"""Shared-memory substrate/golden publication: lifecycle and fidelity.

The zero-copy process backend only holds together if the shared
segments behave like the caches they replace: attached substrates must
be indistinguishable from locally-built ones, refcounts must keep a
segment alive exactly as long as some store references it, and unlink
must happen exactly once — on the owner side, never from a forked
worker, and regardless of how workers exit.
"""

import multiprocessing
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.arch import shared
from repro.arch.compiled import flat_rrg_for
from repro.arch.params import ArchParams
from repro.arch.shared import (
    SharedStore,
    attach_count,
    detach_all,
    publish_golden,
    publish_substrate,
    registry_size,
    shared_memory_default,
)
from repro.netlist.techmap import tech_map
from repro.place.placer import place
from repro.reliability.repair import build_golden
from repro.workloads.generators import random_dag

PARAMS = ArchParams(cols=5, rows=5, channel_width=7, io_capacity=4)


@pytest.fixture(autouse=True)
def _clean_attach_cache():
    detach_all()
    yield
    detach_all()


def _netlist():
    return tech_map(random_dag(n_inputs=5, n_gates=12, n_outputs=4, seed=7),
                    k=4)


def _segment_exists(name: str) -> bool:
    from multiprocessing import shared_memory as sm

    try:
        seg = sm.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    return True


class TestSubstrateRoundTrip:
    def test_attached_substrate_matches_built(self):
        c = flat_rrg_for(PARAMS)
        shm, handle = publish_substrate(c)
        try:
            view = handle.attach()
            assert view.n_nodes == c.n_nodes
            assert view.n_edges == c.n_edges
            assert view.params == c.params
            assert view.node_kind == c.node_kind
            assert view.node_capacity == c.node_capacity
            assert view.base_cost == c.base_cost
            for row in ("edge_start", "edge_mid", "edge_dst"):
                a, b = getattr(view, row), getattr(c, row)
                assert a.dtype == b.dtype == np.int32, row
                assert a.tobytes() == b.tobytes(), row
            assert view.edge_kind == c.edge_kind
            np.testing.assert_array_equal(view.node_capacity_np,
                                          c.node_capacity_np)
            np.testing.assert_array_equal(view.base_cost_np, c.base_cost_np)
            for name in ("lb_source_ids", "lb_sink_ids", "io_source_ids",
                         "io_sink_ids"):
                a, b = getattr(view, name), getattr(c, name)
                assert a.dtype == b.dtype == np.int32, name
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(view.wire_node_ids(),
                                          c.wire_node_ids())
            np.testing.assert_array_equal(view.switch_edge_ids(),
                                          c.switch_edge_ids())
            np.testing.assert_array_equal(view.edge_src_ids(),
                                          c.edge_src_ids())
            assert view.logic_tiles() == c.logic_tiles()
        finally:
            shm.close()
            shm.unlink()

    def test_attached_arrays_are_read_only_views(self):
        c = flat_rrg_for(PARAMS)
        shm, handle = publish_substrate(c)
        try:
            view = handle.attach()
            assert not view.base_cost_np.flags.writeable
            with pytest.raises(ValueError):
                view.base_cost_np[0] = 99.0
        finally:
            shm.close()
            shm.unlink()

    def test_handle_pickles_small(self):
        c = flat_rrg_for(PARAMS)
        shm, handle = publish_substrate(c)
        try:
            assert len(pickle.dumps(handle)) < len(pickle.dumps(c)) / 10
        finally:
            shm.close()
            shm.unlink()

    def test_attach_cached_attaches_once(self):
        c = flat_rrg_for(PARAMS)
        shm, handle = publish_substrate(c)
        try:
            a = handle.attach_cached()
            b = handle.attach_cached()
            assert a is b
            assert attach_count(handle.name) == 1
        finally:
            shm.close()
            shm.unlink()


class TestGoldenRoundTrip:
    def test_attached_golden_matches_built(self):
        netlist = _netlist()
        c = flat_rrg_for(PARAMS)
        pl = place(netlist, PARAMS, seed=0, effort=0.2)
        golden = build_golden(c, netlist, pl, 25)
        assert golden is not None
        shm, handle = publish_golden(golden, netlist)
        try:
            got_netlist, got = handle.attach()
            assert got.wirelength == golden.wirelength
            assert got.critical_path == golden.critical_path
            assert got.routes.iterations == golden.routes.iterations
            assert set(got.routes.nets) == set(golden.routes.nets)
            for name, net in golden.routes.nets.items():
                other = got.routes.nets[name]
                assert other.source == net.source
                assert other.sinks == net.sinks
                assert other.nodes == net.nodes
                assert other.edges == net.edges
                assert other.sink_paths == net.sink_paths
                assert other.reused == net.reused
            assert got.placement.cells == golden.placement.cells
            # the netlist rides the segment, equal by structure
            assert pickle.dumps(got_netlist) == pickle.dumps(netlist)
        finally:
            shm.close()
            shm.unlink()


class TestStoreLifecycle:
    def test_two_stores_share_one_segment(self):
        c = flat_rrg_for(PARAMS)
        with SharedStore() as a, SharedStore() as b:
            ha = a.substrate_for(c)
            hb = b.substrate_for(c)
            assert ha.name == hb.name
            assert registry_size() == 1
            assert a.size() == b.size() == 1

    def test_unlink_waits_for_last_reference(self):
        c = flat_rrg_for(PARAMS)
        a, b = SharedStore(), SharedStore()
        name = a.substrate_for(c).name
        b.substrate_for(c)
        a.close()
        assert _segment_exists(name)  # b still holds a reference
        b.close()
        assert not _segment_exists(name)
        assert registry_size() == 0

    def test_close_is_idempotent(self):
        c = flat_rrg_for(PARAMS)
        store = SharedStore()
        store.substrate_for(c)
        store.close()
        store.close()
        assert registry_size() == 0

    def test_finalizer_releases_on_drop(self):
        import gc

        c = flat_rrg_for(PARAMS)
        store = SharedStore()
        name = store.substrate_for(c).name
        del store
        gc.collect()
        assert not _segment_exists(name)
        assert registry_size() == 0

    def test_forked_child_never_unlinks(self):
        c = flat_rrg_for(PARAMS)
        store = SharedStore()
        name = store.substrate_for(c).name
        # a forked worker inherits the store and runs the same
        # finalizer at exit; the pid guard must make that a no-op
        shared._finalize_store(store._keys, os.getpid() + 1)
        assert _segment_exists(name)
        assert registry_size() == 1
        store.close()
        assert not _segment_exists(name)

    def test_worker_crash_leaves_owner_in_control(self):
        c = flat_rrg_for(PARAMS)
        store = SharedStore()
        handle = store.substrate_for(c)

        def crash(h):
            h.attach_cached()
            os._exit(1)  # die without close/cleanup

        ctx = multiprocessing.get_context()
        p = ctx.Process(target=crash, args=(handle,))
        p.start()
        p.join()
        assert p.exitcode == 1
        assert _segment_exists(handle.name)  # crash did not unlink
        store.close()
        assert not _segment_exists(handle.name)

    def test_defect_batch_refcounted_and_shared(self):
        from repro.reliability.defect_map import DefectMap

        c = flat_rrg_for(PARAMS)
        maps = [DefectMap.sample(c, 0.05, seed=s) for s in range(3)]
        key = ("test-batch", 0.05, 3)
        with SharedStore() as a, SharedStore() as b:
            ha = a.defects_for(key, lambda: maps)
            hb = b.defects_for(key, lambda: list(maps))
            assert ha.name == hb.name  # second build never ran
            assert registry_size() == 1
        assert not _segment_exists(ha.name)

    def test_worker_crash_mid_trial_leaves_defect_batch_usable(self):
        """A worker dying while attached to a defect-batch segment must
        not take the segment down: the owner still unlinks exactly once
        and surviving workers keep reading valid masks."""
        from repro.reliability.defect_map import DefectMap

        c = flat_rrg_for(PARAMS)
        maps = [DefectMap.sample(c, 0.08, seed=s) for s in range(4)]
        store = SharedStore()
        handle = store.defects_for(("crash-batch", 0.08, 4), lambda: maps)

        def crash(h):
            batch = h.attach_cached()
            assert batch.n_trials == 4
            os._exit(1)  # die mid-trial, no close/cleanup

        ctx = multiprocessing.get_context()
        p = ctx.Process(target=crash, args=(handle,))
        p.start()
        p.join()
        assert p.exitcode == 1
        assert _segment_exists(handle.name)  # crash did not unlink
        # a surviving reader still round-trips every trial's masks
        batch = handle.attach()
        for i, dm in enumerate(maps):
            view = batch.map_for(c, i, dm.rate, dm.seed)
            assert np.array_equal(view.node_ok, dm.node_ok)
            assert view.bad_tiles == dm.bad_tiles
        store.close()
        assert not _segment_exists(handle.name)
        assert registry_size() == 0

    def test_golden_publication_refcounted(self):
        netlist = _netlist()
        c = flat_rrg_for(PARAMS)
        pl = place(netlist, PARAMS, seed=0, effort=0.2)
        golden = build_golden(c, netlist, pl, 25)
        key = (netlist, PARAMS, 0, 0.2, 25)
        with SharedStore() as store:
            h1 = store.golden_for(key, golden, netlist)
            h2 = store.golden_for(key, golden, netlist)
            assert h1.name == h2.name
            assert store.size() == 1
        assert not _segment_exists(h1.name)


class TestResourceTrackerCleanliness:
    def test_no_tracker_warnings_after_full_cycle(self):
        """Publish → process-pool attach → close must not leave
        resource_tracker complaints at interpreter exit."""
        script = r"""
import sys
from repro.analysis.sweep import SweepRunner, channel_width_jobs
from repro.arch.params import ArchParams
from repro.netlist.techmap import tech_map
from repro.workloads.generators import random_dag

nl = tech_map(random_dag(n_inputs=5, n_gates=10, n_outputs=4, seed=3), k=4)
base = ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4)
runner = SweepRunner(backend="process", workers=2, shared_memory=True)
jobs = channel_width_jobs(nl, base, [6, 7, 8, 9], seed=0, effort=0.2)
rows = runner.run(jobs)
assert len(rows) == 4
runner.close()
"""
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)))),
            env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr


class TestDefaults:
    def test_shared_memory_default_env_gate(self, monkeypatch):
        monkeypatch.delenv(shared.SHARED_MEMORY_ENV, raising=False)
        assert shared_memory_default() is True
        for off in ("0", "off", "FALSE", "no"):
            monkeypatch.setenv(shared.SHARED_MEMORY_ENV, off)
            assert shared_memory_default() is False
        monkeypatch.setenv(shared.SHARED_MEMORY_ENV, "1")
        assert shared_memory_default() is True
