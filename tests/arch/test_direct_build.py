"""The substrate builds against an independent lowering of the object
graph, and against each other.

``build_flat`` emits the substrate arrays straight from ``ArchParams``,
through the native build (``_build.c``) where a compiler is present and
through ``build_numpy`` otherwise; ``build_rrg``
(``tests/oracles/rrg_oracle.py``) builds the same fabric as an object
graph, loop by loop.  Every build must describe the same fabric byte
for byte.  :func:`_lower` below is the reference: a plain walk over
``build_rrg(p).out_edges`` that shares no code with either build.
"""

import ast
import functools
import logging
import random
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import compiled
from repro.arch.compiled import (
    EdgeKind,
    NodeKind,
    build_flat,
    build_numpy,
    clear_rrg_cache,
    compiled_rrg_for,
    flat_rrg_for,
    substrate_kernel,
)
from repro.arch.params import ArchParams, paper_params
from repro.errors import ArchitectureError
from repro.utils import native
from rrg_oracle import build_rrg, pin_table

needs_native = pytest.mark.skipif(
    substrate_kernel() != "native", reason="no C compiler: numpy build only"
)

TESTS = Path(__file__).resolve().parents[1]
CORPUS = TESTS.parent / "regression_tests"

#: node array -> its dtype
NODES = {
    "node_kind": np.int8,
    "node_capacity": np.int64,
    "node_length": np.int8,
    "base_cost": np.float64,
    "xlo": np.int32,
    "xhi": np.int32,
    "ylo": np.int32,
    "yhi": np.int32,
}
#: CSR rows, stored as contiguous int32 arrays
ROWS = ("edge_start", "edge_mid", "edge_dst")
PINS = ("lb_source", "lb_sink", "io_source", "io_sink")


def _lower(g) -> dict:
    """Reference lowering: per node, non-SINK out-edges then SINK ones,
    each in ``out_edges`` order; enums encoded by declaration order."""
    kinds, ekinds = list(NodeKind), list(EdgeKind)
    to_sink = [node.kind is NodeKind.SINK for node in g.nodes]
    out = {name: [] for name in (*NODES, *ROWS, "edge_kind")}
    for node in g.nodes:
        out["node_kind"].append(kinds.index(node.kind))
        out["node_capacity"].append(node.capacity)
        out["node_length"].append(node.length)
        out["base_cost"].append(1.0 + 0.2 * (node.length - 1))
        x0 = x1 = node.x
        y0 = y1 = node.y
        if node.kind is NodeKind.CHANX:
            x0, x1, y0 = node.pos, node.pos + node.length - 1, node.y - 1
        elif node.kind is NodeKind.CHANY:
            x0, y0, y1 = node.x - 1, node.pos, node.pos + node.length - 1
        for name, v in zip(("xlo", "xhi", "ylo", "yhi"), (x0, x1, y0, y1)):
            out[name].append(v)
    for edges in g.out_edges:
        out["edge_start"].append(len(out["edge_dst"]))
        head = [e for e in edges if not to_sink[e[0]]]
        tail = [e for e in edges if to_sink[e[0]]]
        out["edge_mid"].append(len(out["edge_dst"]) + len(head))
        for dst, kind in head + tail:
            out["edge_dst"].append(dst)
            out["edge_kind"].append(ekinds.index(kind))
    out["edge_start"].append(len(out["edge_dst"]))
    for name in PINS:
        out[name] = pin_table(getattr(g, name), g.params)
    return out


#: every array of a substrate
ARRAYS = (*NODES, *ROWS, "edge_kind", *(f"{name}_ids" for name in PINS))


@functools.cache
def builders() -> dict:
    """The numpy build and, where a compiler is present, the native
    build, called directly (each is checked on its own)."""
    out = {"numpy": build_numpy}
    fn = compiled._BUILD.function()
    if fn is not None:
        out["native"] = functools.partial(compiled._build_native, fn)
    return out


def assert_same_arrays(a, b) -> None:
    """``a`` and ``b`` hold every array with one dtype, shape and bytes."""
    assert (a.params, a.n_nodes, a.n_edges) == (b.params, b.n_nodes,
                                                 b.n_edges)
    for name in ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name


def assert_builds_match_object_graph(params) -> list:
    """Every build of ``params`` against the object graph; returns the
    substrates."""
    ref = _lower(build_rrg(params))
    out = []
    for kind, build in builders().items():
        c = build(params)
        try:
            assert_matches_object_graph(c, params, ref)
        except AssertionError as exc:
            raise AssertionError(f"{kind} build of {params}: {exc}") from exc
        out.append(c)
    return out


def assert_matches_object_graph(c, params, ref=None) -> None:
    if ref is None:
        ref = _lower(build_rrg(params))
    assert c.params == params
    assert c.n_nodes == len(ref["node_kind"])
    assert c.n_edges == len(ref["edge_dst"])
    for name, dtype in NODES.items():
        array = getattr(c, name)
        want = np.asarray(ref[name], dtype=dtype)
        assert array.dtype == want.dtype, name
        assert array.tobytes() == want.tobytes(), name
    assert c.edge_kind.dtype == np.int8
    assert c.edge_kind.tobytes() == np.asarray(ref["edge_kind"],
                                               np.int8).tobytes()
    for name in PINS:
        table = getattr(c, f"{name}_ids")
        assert table.dtype == np.int32, name
        assert np.array_equal(table, ref[name]), name
    for name in ROWS:
        row = getattr(c, name)
        assert row.dtype == np.int32, name
        assert row.tobytes() == np.asarray(ref[name], np.int32).tobytes(), name


# -- parameter sets --------------------------------------------------------- #
def _params_in_tests() -> list:
    """Every ``ArchParams(...)`` / ``paper_params(...)`` call in ``tests/``
    whose arguments are literals (the valid ones)."""
    factories = {"ArchParams": ArchParams, "paper_params": paper_params}
    found = set()
    for path in sorted(TESTS.rglob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id in factories):
                continue
            try:
                args = [ast.literal_eval(a) for a in call.args]
                kwargs = {k.arg: ast.literal_eval(k.value)
                          for k in call.keywords}
                found.add(factories[call.func.id](*args, **kwargs))
            except (ValueError, TypeError, ArchitectureError):
                continue  # computed or deliberately invalid arguments
    return sorted(found, key=repr)


def _corpus_params() -> list:
    from repro.netlist.frontend import arch_for, load_program
    from repro.netlist.frontend.corpus import discover_cases, load_case

    out = []
    for case in discover_cases(CORPUS):
        req = load_case(case)
        program, _ = load_program(req.sources, k=req.k, name=req.name)
        out.append(arch_for(program, req.grid, width=req.width, k=req.k))
    return out


def _perfbench_params() -> list:
    """Device parameters of the benchmark's ``sweep`` and ``yield``
    workloads (``perfbench/worker.py``)."""
    out = [ArchParams(cols=7, rows=7, channel_width=8, io_capacity=4)]
    for grid in (5, 7):
        base = ArchParams(cols=grid, rows=grid, channel_width=8,
                          io_capacity=4)
        out += [base.with_(channel_width=w) for w in (4, 6, 10, 12)]
        out += [base.with_(fc_in=f, fc_out=f) for f in (0.3, 0.5, 0.7, 0.9)]
        out += [base.with_(double_fraction=f)
                for f in (0.0, 0.25, 0.75, 1.0)]
    return out


def _random_params(n: int = 300, seed: int = 14) -> list:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        fc_in, fc_out = rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0)
        out.append(ArchParams(
            cols=rng.randint(1, 8), rows=rng.randint(1, 8),
            channel_width=rng.randint(1, 12),
            double_fraction=rng.choice((0.0, 1.0, rng.random())),
            fc_in=rng.choice((1.0, fc_in)), fc_out=rng.choice((1.0, fc_out)),
            io_capacity=rng.randint(0, 4), lut_inputs=rng.choice((4, 6)),
            lut_outputs=rng.choice((1, 2)), n_contexts=rng.choice((1, 8)),
        ))
    return out


class TestByteEquality:
    """Each build (numpy, and native where a compiler is present)
    against the object graph."""

    def test_params_used_in_tests(self):
        found = _params_in_tests()
        assert len(found) >= 20  # the harvest itself works
        for params in found:
            assert_builds_match_object_graph(params)

    def test_regression_corpus_devices(self):
        found = _corpus_params()
        assert found
        for params in found:
            assert_builds_match_object_graph(params)

    def test_benchmark_devices(self):
        for params in _perfbench_params():
            assert_builds_match_object_graph(params)

    def test_random_grid(self):
        for params in _random_params():
            assert_builds_match_object_graph(params)


def _device():
    """Devices for the native/numpy differential: grids 1-12, widths
    1-16, any double fraction, Fc in (0, 1], 0-8 pads, LUT geometries."""
    fc = st.one_of(st.just(1.0), st.floats(0.01, 1.0))
    return st.builds(
        ArchParams,
        cols=st.integers(1, 12), rows=st.integers(1, 12),
        channel_width=st.integers(1, 16),
        double_fraction=st.one_of(st.sampled_from((0.0, 0.5, 1.0)),
                                  st.floats(0.0, 1.0)),
        fc_in=fc, fc_out=fc, io_capacity=st.integers(0, 8),
        lut_inputs=st.integers(1, 6), lut_outputs=st.integers(1, 3),
        n_contexts=st.sampled_from((1, 2, 4, 8)),
    )


@needs_native
class TestNativeAgainstNumpy:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(params=_device())
    def test_differential(self, params):
        """The native build is the numpy build, array for array: dtype,
        shape and bytes."""
        native_build = builders()["native"]
        assert_same_arrays(native_build(params), build_numpy(params))

    def test_oversized_device_refused(self):
        """A device whose ids would not fit in int32 is refused by the
        size query, before anything is allocated.  (The side is a name,
        not a literal, so ``_params_in_tests`` does not harvest it.)"""
        side = 50_000
        with pytest.raises(ArchitectureError, match="overflow int32"):
            builders()["native"](ArchParams(cols=side, rows=side))

    def test_build_flat_runs_native(self):
        params = ArchParams(cols=3, rows=2, channel_width=5)
        c = build_flat(params)
        assert substrate_kernel() == "native"
        assert_same_arrays(c, build_numpy(params))


class TestFallback:
    def test_no_compiler_runs_numpy_with_one_line(self, monkeypatch,
                                                  caplog, tmp_path):
        """With gcc off ``PATH`` the substrate build logs one line and
        runs ``build_numpy``, with the same arrays."""
        params = ArchParams(cols=4, rows=3, channel_width=6, fc_in=0.5)
        want = build_flat(params)
        lib = native.NativeLibrary(
            "repro.arch", "_build.c", "build_substrate",
            compiled._BUILD.argtypes, compiled._BUILD.restype)
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.setattr(compiled, "_BUILD", lib)
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            got = build_flat(params)
            build_flat(params)
        assert substrate_kernel() == "python"
        assert_same_arrays(want, got)
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 1, lines  # logged once
        assert lines[0] == ("_build.c: no native build (no C compiler: gcc "
                            "is not on PATH); running the Python kernel")


class TestConcurrentBuilds:
    def test_threads_share_one_build_per_device(self, monkeypatch):
        """Eight threads ask for three devices at once through
        ``compiled_rrg_for`` and ``flat_rrg_for``: each device is built
        once, every thread gets that substrate, and it is the numpy
        build's."""
        devices = [ArchParams(cols=5, rows=5, channel_width=w,
                              io_capacity=2) for w in (4, 6, 9)]
        built = []
        real = compiled.build_flat

        def counted(params):
            built.append(params)
            return real(params)

        monkeypatch.setattr(compiled, "build_flat", counted)
        clear_rrg_cache()
        barrier = threading.Barrier(8)
        got = [[] for _ in range(8)]
        errors = []

        def hammer(i):
            try:
                barrier.wait(timeout=60)
                for params in devices[i % 3:] + devices[:i % 3]:
                    get = compiled_rrg_for if i % 2 else flat_rrg_for
                    got[i].append((params, get(params)))
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
            clear_rrg_cache()
        assert errors == []
        assert sorted(built, key=repr) == sorted(devices, key=repr)
        first = {}
        for rows in got:
            for params, c in rows:
                assert first.setdefault(params, c) is c
        for params, c in first.items():
            assert_same_arrays(c, build_numpy(params))


class TestInt32Rows:
    """The CSR rows are stored once, as contiguous int32 arrays that the
    native search kernel reads in place."""

    PARAMS = ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4)

    @staticmethod
    def _assert_rows(c) -> None:
        for name in ROWS:
            row = getattr(c, name)
            assert isinstance(row, np.ndarray), name
            assert row.dtype == np.int32, name
            assert row.flags.c_contiguous, name

    def test_flat_substrate(self):
        self._assert_rows(flat_rrg_for(self.PARAMS))

    def test_full_substrate(self):
        self._assert_rows(compiled_rrg_for(self.PARAMS))

    def test_fallback_lists_share_node_ids(self):
        """The Python kernel's list forms hold one int object per node
        id, not a fresh int per edge, and are built once."""
        c = flat_rrg_for(self.PARAMS)
        estart, emid, edst = c.row_lists()
        assert c.row_lists()[2] is edst
        assert estart == c.edge_start.tolist()
        assert emid == c.edge_mid.tolist()
        assert edst == c.edge_dst.tolist()
        assert len({id(v) for v in edst}) <= c.n_nodes < c.n_edges


class TestBuildLocks:
    def test_lock_table_bounded(self):
        """A long-running server sees unboundedly many devices; the
        single-flight locks must not grow with them."""
        clear_rrg_cache()
        try:
            locks = set()
            for i in range(200):
                params = ArchParams(cols=1 + i % 2, rows=1,
                                    channel_width=1 + i // 2,
                                    io_capacity=0)
                flat_rrg_for(params)
                locks.add(id(compiled._build_lock_for(params)))
            assert len(locks) <= len(compiled._BUILD_LOCKS) < 200
        finally:
            clear_rrg_cache()


class TestPastBenchmarkSizes:
    """Byte equality on devices larger or thinner than the benchmark's:
    the CSR sort takes 16-bit keys up to 65,536 nodes and 32-bit keys
    past that, and strips put every tile on the perimeter."""

    def test_wide_channels(self):
        params = ArchParams(cols=16, rows=16, channel_width=16)
        for c in assert_builds_match_object_graph(params):
            assert (c.n_nodes, c.n_edges) == (11208, 188624)

    def test_node_ids_past_int16(self):
        params = ArchParams(cols=32, rows=32, channel_width=12)
        for c in assert_builds_match_object_graph(params):
            assert 1 << 15 < c.n_nodes <= 1 << 16

    def test_node_ids_past_uint16(self):
        params = ArchParams(cols=44, rows=44, channel_width=2, lut_inputs=8,
                            lut_outputs=8, n_contexts=1, fc_in=0.25,
                            fc_out=0.25, io_capacity=1)
        for c in assert_builds_match_object_graph(params):
            assert c.n_nodes > 1 << 16

    def test_strips(self):
        for cols, rows in ((1, 9), (9, 1), (1, 1), (1, 2), (2, 1)):
            for io_capacity in (0, 1):
                params = ArchParams(cols=cols, rows=rows, channel_width=5,
                                    fc_in=0.6, fc_out=0.3,
                                    io_capacity=io_capacity)
                assert_builds_match_object_graph(params)


class TestFcPopulation:
    """Which wires each pin reaches, derived by hand from the channel
    geometry rather than from either builder's connection-block code.

    Device: 2x2 tiles, W=2 (track 0 single-length, track 1 a phase-0
    double), so every channel holds three segments: track 0 at
    positions 0 and 1, then track 1 spanning both.  CHANX channel y
    takes ids 3y..3y+2 and CHANY channel x ids 9+3x..9+3x+2.  Tile
    (1, 0) borders CHANX channels 0 (ids 1, 2) and 1 (ids 4, 5) and
    CHANY channels 1 (ids 12, 14) and 2 (ids 15, 17): its sorted wire
    row is [1, 2, 4, 5, 12, 14, 15, 17].

    Logic blocks start at id 18 and hold 6 IPINs (4 LUT inputs plus 2
    context bits), 6 SINKs and 4 (OPIN, SOURCE) pairs: 20 ids a tile,
    so tile (1, 0) has IPINs 38..43 and OPINs 50, 52, 54, 56.
    ``fc_in=0.5`` gives each IPIN 4 of the 8 wires from column
    ``2 * pin mod 8``; ``fc_out=0.375`` gives each OPIN 3 wires from
    column ``2 * pin``.  IPIN 3 (column 6) and OPIN 3 (column 6) wrap
    around the row.  I/O starts at id 98 with one pad per perimeter
    tile (all four, row-major): tile (1, 0)'s pad OPIN is 103 and its
    IPIN 104.
    """

    PARAMS = ArchParams(cols=2, rows=2, channel_width=2, lut_inputs=4,
                        lut_outputs=4, n_contexts=4, fc_in=0.5,
                        fc_out=0.375, io_capacity=1)
    WIRES = [1, 2, 4, 5, 12, 14, 15, 17]
    IPIN_FROM = {38: [1, 2, 4, 5], 39: [4, 5, 12, 14], 40: [12, 14, 15, 17],
                 41: [1, 2, 15, 17], 42: [1, 2, 4, 5], 43: [4, 5, 12, 14]}
    OPIN_TO = {50: [1, 2, 4], 52: [4, 5, 12], 54: [12, 14, 15],
               56: [15, 17, 1]}

    @staticmethod
    def _row(c, nid) -> list:
        return c.edge_dst[c.edge_start[nid]:c.edge_start[nid + 1]].tolist()

    @staticmethod
    def _drivers(c, nid) -> list:
        return c.edge_src_ids()[c.edge_dst == nid].tolist()

    def test_wire_row_is_the_tile_border(self):
        c = build_flat(self.PARAMS)
        border = [n for n in range(c.n_nodes) if c.is_wire(n)
                  and c.xlo[n] <= 1 <= c.xhi[n] and c.ylo[n] <= 0 <= c.yhi[n]]
        assert border == self.WIRES
        # tile (1, 0) is row-major tile 1
        assert c.lb_source_ids[1, 0] == 51 and c.lb_sink_ids[1, 0] == 44
        assert c.io_source_ids[1, 0] == 102 and c.io_sink_ids[1, 0] == 105

    def test_ipins(self):
        c = build_flat(self.PARAMS)
        for ipin, wires in self.IPIN_FROM.items():
            assert c.kind_of(ipin) is NodeKind.IPIN
            assert self._drivers(c, ipin) == wires, ipin
            assert self._row(c, ipin) == list(range(44, 50)), ipin

    def test_opins(self):
        c = build_flat(self.PARAMS)
        for opin, wires in self.OPIN_TO.items():
            assert c.kind_of(opin) is NodeKind.OPIN
            assert self._row(c, opin) == wires, opin  # staggered order kept
            assert self._drivers(c, opin) == [opin + 1], opin

    def test_io_pad_reaches_every_wire(self):
        c = build_flat(self.PARAMS)
        assert self._row(c, 103) == self.WIRES
        assert self._drivers(c, 104) == self.WIRES


class TestBuildMemory:
    def test_transient_peak(self):
        """The numpy build's working arrays stay int32/int8, and the
        sort's are dropped before the list fields are made: about 1.0
        MiB on this device, 1.3 MiB with int64 intermediates.  The
        native build allocates only its output, one ~0.25 MiB buffer
        (its C scratch is a few KiB, not traced here)."""
        import tracemalloc

        params = ArchParams(cols=7, rows=7, channel_width=12, io_capacity=4)
        limits = {"numpy": 1.25 * 2**20, "native": 0.3 * 2**20}
        for kind, build in builders().items():
            build(params)
            tracemalloc.start()
            try:
                build(params)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= limits[kind], kind
