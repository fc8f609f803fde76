"""The native context route's loader, threads and heap oracle.

``route_context`` in ``_search.c`` is the router's one C entry point;
``tests/route/test_native_context.py`` compares it with the Python loop
context by context.  Here its routes are checked against the
independent binary-heap oracle of ``test_router_queue``, whole contexts
are routed concurrently on threads, and the loader's fallbacks (no
compiler, a damaged cache entry, concurrent builds, an unsafe cache
directory) are pinned.

Every subprocess and build below is bounded by a timeout.
"""

import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.arch.compiled import flat_rrg_for
from repro.netlist.techmap import tech_map
from repro.place.placer import place, place_program
from repro.route import pathfinder
from repro.route.pathfinder import (
    route_context_compiled,
    route_kernel,
    route_program_compiled,
)
from repro.utils import native
from route_digest_cases import EQUIV_GRIDS, _equiv_programs
from test_router_queue import CASES, _assert_identical, _route, heap_search

SRC = str(Path(__file__).resolve().parents[2] / "src")
TIMEOUT_S = 180

needs_native = pytest.mark.skipif(
    route_kernel() != "native", reason="no C compiler: Python loop only"
)


@needs_native
class TestHeapOracleOnNative:
    """``test_router_queue``'s independent heap oracle, with the native
    context route asserted to be the one the router runs."""

    @pytest.mark.parametrize("name,params,circuit", CASES)
    def test_native_routes_match_heap(self, name, params, circuit,
                                      monkeypatch):
        assert route_kernel() == "native"
        got = _route(params, circuit)
        monkeypatch.setattr(pathfinder, "_search", heap_search())
        _assert_identical(got, _route(params, circuit))


class TestThreads:
    """Context routes run concurrently on threads (the native call
    releases the interpreter lock) and may all resolve the kernel at
    once."""

    def test_first_use_from_many_threads_resolves_once(self, monkeypatch):
        lib = _route_library()
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


def _route_library() -> native.NativeLibrary:
    """A fresh, unresolved loader of ``route_context``."""
    return native.NativeLibrary(
        "repro.route", "_search.c", "route_context",
        pathfinder._ROUTE.argtypes, pathfinder._ROUTE.restype)


#: Prints the kernel a fresh process resolves, then its detail line.
PROBE = (
    "from repro.route.pathfinder import _ROUTE\n"
    "print(_ROUTE.kernel)\n"
    "print(_ROUTE.detail)\n"
)


class TestLoader:
    def test_no_compiler_falls_back_with_one_line(self, monkeypatch,
                                                  caplog):
        name, params, circuit = CASES[0]
        want = _route(params, circuit)
        lib = _route_library()
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        monkeypatch.setattr(pathfinder, "_ROUTE", lib)
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            got = _route(params, circuit)
            _route(params, circuit)
        assert route_kernel() == "python"
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
