"""The native placement kernel against the Python one, call by call.

Every placement of the placement-digest cases runs twice here: once
through the native kernel (``_anneal.c``'s ``place_context``, the
production path) and once through the Python kernel
:func:`~repro.place._python_kernel.place_python` (the Python set-up
around its move loop ``anneal_python``) on the same job and a copy of
the same generator.  Both must place the cells and the pads alike,
report the same cost, return the same ``(rounds, accepted)`` and leave
the generator in the same state, on numpy's default PCG64 and on
MT19937, Philox and SFC64.  A scripted ``bitgen_t`` drives both kernels through
Lemire rejections, which random streams almost never hit.  Threads
placing concurrently, on one shared generator or on one each, and the
loader's fallback are pinned too.

Every join and wait below is bounded by a timeout.
"""

import ctypes
import json
import logging
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.random import MT19937, PCG64, SFC64, Generator, Philox

import test_placer
from place_digest_cases import compute_digests
from repro.arch.params import ArchParams
from repro.netlist.techmap import tech_map
from repro.place import placer
from repro.place._python_kernel import place_python
from repro.place.placer import anneal_kernel, place
from repro.utils import native
from repro.workloads.generators import random_dag

TIMEOUT_S = 120
#: The fields of a kernel's result that describe the placement.
RESULT_FIELDS = ("x", "y", "pads", "slots", "cost")

needs_native = pytest.mark.skipif(
    anneal_kernel() != "native", reason="no C compiler: Python kernel only"
)


def _copy_rng(rng):
    bit_generator = type(rng.bit_generator)()
    bit_generator.state = rng.bit_generator.state
    return Generator(bit_generator)


def _state(rng) -> str:
    return json.dumps(rng.bit_generator.state, sort_keys=True,
                      default=lambda value: value.tolist())


class _Twin:
    """Stands in for ``placer._place_native``: runs the Python kernel on
    the job and a copy of the generator, then the native kernel on the
    original, records any difference and returns the native result."""

    def __init__(self, native_place):
        self.native_place = native_place
        self.anneals = 0
        self.mismatches = []

    def __call__(self, job, rng):
        py_rng = _copy_rng(rng)
        want = place_python(job, py_rng)
        got = self.native_place(job, rng)
        diff = [f for f in RESULT_FIELDS
                if getattr(got, f) != getattr(want, f)]
        if (got.rounds, got.accepted) != (want.rounds, want.accepted):
            diff.append(f"(rounds, accepted) {got[-2:]} != {want[-2:]}")
        if _state(rng) != _state(py_rng):
            diff.append("generator state")
        self.anneals += got.rounds > 0
        if diff:
            self.mismatches.append(diff)
        return got


@pytest.fixture
def twin(monkeypatch):
    t = _Twin(placer._place_native)
    monkeypatch.setattr(placer, "_place_native", t)
    yield t
    assert t.anneals > 0
    assert t.mismatches == []


@needs_native
@pytest.mark.parametrize("bit_generator", [PCG64, MT19937, Philox, SFC64],
                         ids=lambda b: b.__name__)
def test_every_digest_case_on_both_kernels(bit_generator, twin):
    compute_digests(lambda seed: Generator(bit_generator(seed)))


# --- a scripted bitgen_t ------------------------------------------------ #

_NEXT_U64 = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
_NEXT_U32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_NEXT_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class _BitGen(ctypes.Structure):
    """numpy's ``bitgen_t``."""

    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", _NEXT_U64),
        ("next_uint32", _NEXT_U32),
        ("next_double", _NEXT_DOUBLE),
        ("next_raw", _NEXT_U64),
    ]


class ScriptedGenerator:
    """Enough of a ``Generator`` for both kernels: a ``bitgen_t`` whose
    32-bit words and doubles cycle through fixed scripts.  ``log``
    records every draw, in order."""

    def __init__(self, words, doubles):
        self.log = []
        draws = {"u32": 0, "double": 0}

        def scripted(kind, script):
            def next_value(_state):
                value = script[draws[kind] % len(script)]
                draws[kind] += 1
                self.log.append((kind, value))
                return value
            return next_value

        def next_uint64(_state):
            self.log.append(("u64", None))  # neither kernel may call it
            return 0

        self._callbacks = (_NEXT_U64(next_uint64),
                           _NEXT_U32(scripted("u32", words)),
                           _NEXT_DOUBLE(scripted("double", doubles)))
        u64, u32, double = self._callbacks
        self._struct = _BitGen(None, u64, u32, double, u64)
        self.bit_generator = SimpleNamespace(
            lock=threading.Lock(),
            ctypes=SimpleNamespace(
                state=None, next_uint32=u32, next_double=double,
                bit_generator=ctypes.c_void_p(ctypes.addressof(self._struct)),
            ),
        )


def _captured_job(netlist, params, **kw):
    """The job ``place`` hands its kernel for these arguments."""
    jobs = []
    real = placer._place_native

    def capture(job, rng):
        jobs.append(job)
        return real(job, rng)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(placer, "_place_native", capture)
        place(netlist, params, **kw)
    (job,) = jobs
    return job


@needs_native
def test_lemire_rejections_draw_for_draw():
    params = ArchParams(cols=5, rows=7, channel_width=8, io_capacity=4)
    job = _captured_job(tech_map(random_dag(6, 18, 6, seed=3), k=4),
                        params, seed=1, effort=0.2)
    n_mov = len(job.movable)
    width = 2 * max(job.cols, job.rows) + 1
    # a zero word is rejected for any bound but a power of two
    assert n_mov & (n_mov - 1) and width & (width - 1)
    # a word whose low product falls inside [2**32 % n, n): checked
    # against the threshold, but not redrawn
    near = 2**32 // width + 1
    assert 2**32 % width <= near * width % 2**32 < width
    words = [0, near, 0xFFFF_FFFF, 0, 0, 0x9E37_79B9, 1, 0x8000_0000,
             near, 12_345_678, 0, 0x7FFF_FFFF]
    doubles = [0.0, 0.5, 0.999_999, 0.25, 0.75, 0.1, 0.9]
    results = []
    for kernel in (place_python, placer._place_native):
        rng = ScriptedGenerator(words, doubles)
        with rng.bit_generator.lock:
            outcome = kernel(job, rng)
        results.append((outcome, rng.log))
    assert results[0] == results[1]
    outcome, log = results[0]
    assert outcome.rounds > 0
    words_drawn = sum(kind == "u32" for kind, _value in log)
    assert words_drawn > 3 * outcome.rounds * job.moves_per_t  # some redrawn
    assert ("u64", None) not in log


# --- threads ------------------------------------------------------------ #

@needs_native
class TestSharedGeneratorOnNative(test_placer.TestSharedGenerator):
    """The shared-generator stress test with the native kernel, which
    draws with the interpreter lock released, asserted active."""

    @pytest.fixture(autouse=True)
    def _native_active(self):
        assert anneal_kernel() == "native"


def _placements(nl, p, rng, n):
    return [place(nl, p, seed=rng, effort=0.5) for _ in range(n)]


@needs_native
def test_threads_with_own_generators_match_sequential():
    nl = tech_map(random_dag(6, 18, 6, seed=3), k=4)
    p = ArchParams(cols=7, rows=7, channel_width=8, io_capacity=4)
    want, want_states = [], []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        want.append(_placements(nl, p, rng, 3))
        want_states.append(_state(rng))
    got, got_states, errors = [None] * 4, [None] * 4, []
    barrier = threading.Barrier(4)

    def run(seed):
        try:
            rng = np.random.default_rng(seed)
            barrier.wait(timeout=TIMEOUT_S)
            got[seed] = _placements(nl, p, rng, 3)
            got_states[seed] = _state(rng)
        except Exception as exc:  # reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(seed,), daemon=True)
                   for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=TIMEOUT_S)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert got == want
    assert got_states == want_states


# --- loader ------------------------------------------------------------- #

def test_no_compiler_falls_back_with_one_line(monkeypatch, caplog):
    nl = tech_map(random_dag(5, 12, 4, seed=3), k=4)
    p = ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4)
    want = place(nl, p, seed=4, effort=0.3)
    lib = native.NativeLibrary(
        "repro.place", "_anneal.c", "place_context",
        placer._NATIVE.argtypes, placer._NATIVE.restype)
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    monkeypatch.setattr(placer, "_NATIVE", lib)
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        got = place(nl, p, seed=4, effort=0.3)
        place(nl, p, seed=4, effort=0.3)
    assert anneal_kernel() == "python"
    assert got == want
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == 1, lines  # logged once
    assert "\n" not in lines[0]
    assert "_anneal.c" in lines[0] and "Python kernel" in lines[0]
