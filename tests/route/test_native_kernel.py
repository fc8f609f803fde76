"""The native route-search kernel against the Python one, search by search.

Every search the router makes runs twice here: once through the native
kernel (``_search.c``, the production path) and once through the Python
kernel :func:`pathfinder._dijkstra` on its own scratch, over the same
congestion state.  Both must return the same path and count the same
pops.  Covered: the queue-test workloads, defect maps at 1, 3 and 5%
and ``route_context_warm``.  The loader's
fallbacks (no compiler, a damaged cache entry, concurrent builds, an
unsafe cache directory) and the uint32 epoch wrap are pinned too.

Every subprocess and build below is bounded by a timeout.
"""

import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.arch.compiled import flat_rrg_for
from repro.arch.params import ArchParams
from repro.netlist.techmap import tech_map
from repro.place.placer import place, place_program
from repro.reliability import DefectMap, build_golden, dirty_net_names
from repro.route import pathfinder
from repro.route.pathfinder import (
    RouterScratch,
    route_context_compiled,
    route_context_warm,
    route_program_compiled,
    search_kernel,
)
from repro.utils import native
from repro.utils.telemetry import collecting
from repro.workloads.generators import random_dag
from route_digest_cases import EQUIV_GRIDS, _equiv_programs
from test_router_queue import CASES, _assert_identical, _route, heap_search

SRC = str(Path(__file__).resolve().parents[2] / "src")
TIMEOUT_S = 180

needs_native = pytest.mark.skipif(
    search_kernel() != "native", reason="no C compiler: Python kernel only"
)


class _Pops:
    """A minimal telemetry collector: the pops one search reports."""

    def __init__(self):
        self.pops = 0

    def count(self, name, value=1, **labels):
        if name == "router.pops":
            self.pops += value


class _Twin:
    """Stands in for ``pathfinder._search``: runs both kernels on every
    search, records any difference, returns the native result."""

    def __init__(self, native_search):
        self.native_search = native_search
        self.searches = 0
        self.mismatches = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def __call__(self, c, state, tree_nodes, target, scratch, mask, edst):
        py_scratch = getattr(self._local, "scratch", None)
        if py_scratch is None or py_scratch.n != c.n_nodes:
            py_scratch = self._local.scratch = RouterScratch(c.n_nodes)
        tree = set(tree_nodes)
        with collecting(_Pops()) as want:
            expect = pathfinder._dijkstra(
                c, state, tree_nodes, target, py_scratch, mask, edst)
        with collecting(_Pops()) as got:
            path = self.native_search(
                c, state, tree_nodes, target, scratch, mask, edst)
        assert tree_nodes == tree  # neither kernel touches the tree
        with self._lock:
            self.searches += 1
            if path != expect or got.pops != want.pops:
                self.mismatches.append(
                    (target, path, expect, got.pops, want.pops))
        return path


@pytest.fixture
def twin(monkeypatch):
    t = _Twin(pathfinder._search)
    monkeypatch.setattr(pathfinder, "_search", t)
    yield t
    assert t.searches > 0
    assert t.mismatches == []


@needs_native
class TestSearchBySearch:
    @pytest.mark.parametrize("name,params,circuit", CASES)
    def test_queue_workloads(self, name, params, circuit, twin):
        _route(params, circuit)

    @pytest.mark.parametrize("rate", [0.01, 0.03, 0.05])
    def test_defect_maps(self, rate, twin):
        params = ArchParams(cols=6, rows=6, channel_width=8, io_capacity=4)
        netlist = tech_map(random_dag(5, 12, 4, seed=3), k=4)
        c = flat_rrg_for(params)
        pl = place(netlist, params, seed=2, effort=0.3)
        dm = DefectMap.sample(c, rate, seed=9, logic_rate=0.0)
        assert dm.switch_defects.size and dm.wire_defects.size
        route_context_compiled(c, netlist, pl, defects=dm)

    def test_route_context_warm(self, twin):
        params = ArchParams(cols=6, rows=6, channel_width=8, io_capacity=4)
        c = flat_rrg_for(params)
        netlist = tech_map(
            random_dag(n_inputs=6, n_gates=18, n_outputs=6, seed=3), k=4)
        pl = place(netlist, params, seed=0, effort=0.3)
        golden = build_golden(c, netlist, pl, 25)
        before = twin.searches
        for seed in range(3):
            dm = DefectMap.sample(c, 0.03, seed=seed, logic_rate=0.0)
            dirty = dirty_net_names(golden.routes, dm)
            if dirty:
                route_context_warm(c, netlist, pl, golden.routes, dirty,
                                   max_iterations=25, defects=dm)
        assert twin.searches > before


@needs_native
class TestHeapOracleOnNative:
    """``test_router_queue``'s independent heap oracle, with the native
    kernel asserted to be the one the router runs."""

    @pytest.mark.parametrize("name,params,circuit", CASES)
    def test_native_routes_match_heap(self, name, params, circuit,
                                      monkeypatch):
        assert search_kernel() == "native"
        got = _route(params, circuit)
        monkeypatch.setattr(pathfinder, "_search", heap_search())
        _assert_identical(got, _route(params, circuit))


def _python_kernel(monkeypatch):
    monkeypatch.setattr(pathfinder._NATIVE, "function", lambda: None)
    assert search_kernel() == "python"


class TestEpochWrap:
    """``stamp`` is uint32: at the wrap the stamps are cleared and the
    epoch restarts, so routes and pops do not change."""

    @pytest.mark.parametrize("kernel", ["active", "python"])
    def test_wrap_keeps_routes(self, kernel, monkeypatch):
        if kernel == "python":
            _python_kernel(monkeypatch)
        name, params, circuit = CASES[1]
        c = flat_rrg_for(params)
        with collecting(_Pops()) as want:
            fresh = _route(params, circuit, scratch=RouterScratch(c.n_nodes))
        scratch = RouterScratch(c.n_nodes)
        # what a long-lived scratch holds: stamps of every earlier epoch
        scratch.stamp[:] = 1 + np.arange(c.n_nodes) % 64
        scratch.epoch = 2**32 - 2
        for _ in range(3):
            with collecting(_Pops()) as got:
                again = _route(params, circuit, scratch=scratch)
            _assert_identical(fresh, again)
            assert got.pops == want.pops
        assert 0 < scratch.epoch < 2**32 - 2  # it wrapped


class TestThreads:
    """Context routes run concurrently on threads (the native call
    releases the interpreter lock) and may all resolve the kernel at
    once."""

    def test_first_use_from_many_threads_resolves_once(self, monkeypatch):
        lib = native.NativeLibrary(
            "repro.route", "_search.c", "route_search",
            pathfinder._NATIVE.argtypes, pathfinder._NATIVE.restype)
        loads = []
        real_load = lib._load

        def counted_load():
            loads.append(1)
            return real_load()

        monkeypatch.setattr(lib, "_load", counted_load)
        barrier = threading.Barrier(8)
        got = []

        def first_use():
            barrier.wait(timeout=TIMEOUT_S)
            got.append(lib.function())

        threads = [threading.Thread(target=first_use) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=TIMEOUT_S)
            assert not t.is_alive()
        assert len(got) == 8 and all(fn is got[0] for fn in got)
        assert len(loads) == 1

    def test_context_route_stress(self):
        """Eight threads each route whole contexts at a tiny switch
        interval — one context alone, then a share-unaware program
        fanned out on eight more — and every route equals the
        sequential one."""
        name, params, circuit = CASES[2]
        netlist = tech_map(circuit(), k=4)
        c = flat_rrg_for(params)
        pl = place(netlist, params, seed=2, effort=0.3)
        prog = _equiv_programs()["random"]
        grid = EQUIV_GRIDS[0]
        pc = flat_rrg_for(grid)
        pls = place_program(prog, grid, seed=3, share_aware=False,
                            effort=0.3)
        want = route_context_compiled(c, netlist, pl)
        want_prog = route_program_compiled(pc, prog, pls, share_aware=False)
        barrier = threading.Barrier(8)
        errors = []

        def hammer():
            try:
                barrier.wait(timeout=TIMEOUT_S)
                for _ in range(3):
                    _assert_identical(
                        want, route_context_compiled(c, netlist, pl))
                got = route_program_compiled(pc, prog, pls,
                                             share_aware=False, workers=8)
                for a, b in zip(got, want_prog, strict=True):
                    _assert_identical(b, a)
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=TIMEOUT_S)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []


def _run(code: str, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, **env,
                                           "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=TIMEOUT_S,
    )


#: Prints the kernel a fresh process resolves, then its detail line.
PROBE = (
    "from repro.route.pathfinder import _NATIVE\n"
    "print(_NATIVE.kernel)\n"
    "print(_NATIVE.detail)\n"
)


class TestLoader:
    def test_no_compiler_falls_back_with_one_line(self, monkeypatch,
                                                  caplog):
        name, params, circuit = CASES[0]
        want = _route(params, circuit)
        lib = native.NativeLibrary(
            "repro.route", "_search.c", "route_search",
            pathfinder._NATIVE.argtypes, pathfinder._NATIVE.restype)
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        monkeypatch.setattr(pathfinder, "_NATIVE", lib)
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            got = _route(params, circuit)
            _route(params, circuit)
        assert search_kernel() == "python"
        _assert_identical(want, got)
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 1, lines  # logged once
        assert "\n" not in lines[0]
        assert "no C compiler" in lines[0] and "Python kernel" in lines[0]

    @needs_native
    def test_truncated_cache_entry(self, tmp_path):
        """A damaged cached library is rebuilt (or the fallback runs);
        nothing raises."""
        env = {"XDG_CACHE_HOME": str(tmp_path)}
        first = _run(PROBE, env)
        assert first.returncode == 0, first.stderr
        assert first.stdout.split()[0] == "native"
        (so,) = (tmp_path / "repro").glob("_search-*.so")
        so.write_bytes(so.read_bytes()[:100])
        again = _run(PROBE, env)
        assert again.returncode == 0, again.stderr
        kernel = again.stdout.split()[0]
        assert kernel in ("native", "python")
        if kernel == "native":
            assert so.stat().st_size > 100  # rebuilt in place

    @needs_native
    def test_concurrent_builds_into_empty_cache(self, tmp_path):
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
               "PYTHONPATH": SRC}
        procs = [
            subprocess.Popen([sys.executable, "-c", PROBE], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
            for _ in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=TIMEOUT_S)
            assert proc.returncode == 0, err
            assert out.split()[0] == "native", (out, err)
        files = sorted(p.name for p in (tmp_path / "repro").iterdir())
        assert len(files) == 1 and files[0].endswith(".so"), files

    def test_world_writable_cache_not_used(self, tmp_path, monkeypatch):
        cache = tmp_path / "repro"
        cache.mkdir()
        cache.chmod(0o777)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert native.cache_dir() is None

    def test_foreign_cache_not_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert native.cache_dir() == str(tmp_path / "repro")
        real = os.getuid()
        monkeypatch.setattr(native.os, "getuid", lambda: real + 1)
        assert native.cache_dir() is None

    @needs_native
    def test_unsafe_cache_builds_privately(self, tmp_path):
        cache = tmp_path / "repro"
        cache.mkdir()
        cache.chmod(0o777)
        out = _run(PROBE, {"XDG_CACHE_HOME": str(tmp_path)})
        assert out.returncode == 0, out.stderr
        kernel, path = out.stdout.split()
        assert kernel == "native"
        assert not Path(path).is_relative_to(cache)
        assert list(cache.iterdir()) == []

    def test_cache_dir_is_private(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        path = native.cache_dir()
        assert path is not None
        assert os.stat(path).st_mode & 0o777 == 0o700
