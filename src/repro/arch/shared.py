"""Zero-copy substrate sharing over ``multiprocessing.shared_memory``.

The process backends' two residual taxes are both *serialization*
taxes: every worker process used to rebuild (or unpickle) the compiled
routing substrate for each distinct ``ArchParams``, and Monte Carlo
yield campaigns pickled the golden mapping — placement plus the full
golden :class:`~repro.route.pathfinder.RouteResult` — into every one
of their thousands of trial jobs.  Both artifacts are immutable flat
data, which is exactly what POSIX shared memory is for:

- :func:`publish_substrate` copies a :class:`CompiledRRG`'s arrays
  into one shared segment and returns a :class:`SharedSubstrate`
  *handle* that pickles to ~100 bytes regardless of fabric size: the
  layout table of ``(key, dtype, shape, offset)`` rows and the scalar
  metadata live in a pickled header *inside* the segment, so the
  handle carries nothing but the segment name.
  :meth:`SharedSubstrate.attach` maps the segment back into a
  read-only :class:`CompiledRRG` view: the CSR rows and numpy mirrors
  alias the shared buffer directly (zero copy), the hot Python lists
  are materialised once per process, and
  :meth:`SharedSubstrate.attach_cached` makes that a one-time cost
  per worker (asserted by ``benchmarks/bench_shared_memory.py``).
- :func:`publish_golden` does the same for a yield campaign's golden
  mapping: routes are lowered to flat path arrays (nodes and edges are
  reconstructed from the per-sink paths), the placement and netlist
  ride along as small pickle blobs, and every trial job ships a
  :class:`SharedGolden` handle instead of the mapping itself.

Lifecycle is owned by the publishing side: a :class:`SharedStore`
(one per runner) acquires publications from a process-wide refcounted
registry — two stores publishing the same key share one segment, and
the segment is unlinked when the last store releases it
(:meth:`SharedStore.close`, ``weakref`` finalizer, or interpreter
exit).  Forked children (including pool workers) inherit the store
object but never own the segments: releases are pid-guarded, so a
worker exiting can never unlink a segment the parent still serves.
Attach-side registrations go to the parent's ``resource_tracker``
under the ``fork`` start method, so trackers stay clean: the owner's
unlink unregisters the name exactly once.
"""

from __future__ import annotations

import os
import pickle
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.arch.compiled import CompiledRRG
from repro.utils.telemetry import GLOBAL
from repro.utils.telemetry import count as _tcount

#: Environment variable gating the shared-memory process backend.
SHARED_MEMORY_ENV = "REPRO_SHARED_MEMORY"


def shared_memory_default() -> bool:
    """Whether process backends publish substrates via shared memory
    by default (on unless ``REPRO_SHARED_MEMORY`` is ``0``/``off``)."""
    return os.environ.get(SHARED_MEMORY_ENV, "1").strip().lower() not in (
        "0", "off", "false", "no",
    )


#: Segment layout row: (key, dtype string, shape tuple, byte offset
#: relative to the data origin).
Spec = tuple[str, str, tuple[int, ...], int]

_ALIGN = 16


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def _pack_segment(
    arrays: list[tuple[str, np.ndarray]], meta: dict
) -> shared_memory.SharedMemory:
    """Copy ``arrays`` into one fresh shared segment, self-describing.

    Layout: an 8-byte little-endian header length, the pickled
    ``(meta, specs)`` header, then the arrays (16-byte aligned).  The
    header travels *in the segment* so handles need only the name.
    """
    specs: list[Spec] = []
    offset = 0
    for key, arr in arrays:
        offset = _align(offset)
        specs.append((key, arr.dtype.str, arr.shape, offset))
        offset += arr.nbytes
    header = pickle.dumps((meta, tuple(specs)),
                          protocol=pickle.HIGHEST_PROTOCOL)
    origin = _align(8 + len(header))
    shm = shared_memory.SharedMemory(create=True, size=max(origin + offset, 1))
    shm.buf[0:8] = len(header).to_bytes(8, "little")
    shm.buf[8:8 + len(header)] = header
    for (key, dt, shape, off), (_, arr) in zip(specs, arrays):
        view = np.ndarray(shape, dtype=np.dtype(dt), buffer=shm.buf,
                          offset=origin + off)
        view[...] = arr
    return shm


def _read_segment(shm: shared_memory.SharedMemory) -> tuple[
    dict, dict[str, np.ndarray]
]:
    """Decode a packed segment: metadata + read-only zero-copy views."""
    hlen = int.from_bytes(bytes(shm.buf[0:8]), "little")
    meta, specs = pickle.loads(bytes(shm.buf[8:8 + hlen]))
    origin = _align(8 + hlen)
    views: dict[str, np.ndarray] = {}
    for key, dt, shape, off in specs:
        view = np.ndarray(tuple(shape), dtype=np.dtype(dt), buffer=shm.buf,
                          offset=origin + off)
        view.flags.writeable = False
        views[key] = view
    return meta, views


# ------------------------------------------------------------------------- #
# attach-side cache (one per process)
# ------------------------------------------------------------------------- #
_ATTACH_LOCK = threading.Lock()
_ATTACHED: dict[str, object] = {}          # segment name -> decoded object
_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}  # keeps buffers alive
_ATTACH_COUNT: dict[str, int] = {}         # segment name -> real attaches


def attach_count(name: str | None = None) -> int:
    """How many *real* segment attaches this process performed.

    ``attach_cached`` hits do not count — the warmup satellite's bench
    asserts exactly one attach per worker process per segment.
    """
    with _ATTACH_LOCK:
        if name is not None:
            return _ATTACH_COUNT.get(name, 0)
        return sum(_ATTACH_COUNT.values())


def detach_all() -> None:
    """Drop this process's attach cache (tests / memory hook).

    Closes the attached segment mappings; the owner's unlink is
    untouched.
    """
    with _ATTACH_LOCK:
        _ATTACHED.clear()
        for shm in _SEGMENTS.values():
            shm.close()
        _SEGMENTS.clear()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    shm = shared_memory.SharedMemory(name=name)
    with _ATTACH_LOCK:
        _SEGMENTS[name] = shm
        _ATTACH_COUNT[name] = _ATTACH_COUNT.get(name, 0) + 1
    # this process's registry (workers attach; the parent publishes)
    # plus the ambient collector, so attaches done inside an
    # instrumented trial ride back to the parent with the row
    GLOBAL.inc("shared.attaches")
    _tcount("shared.attaches")
    return shm


# ------------------------------------------------------------------------- #
# substrate
# ------------------------------------------------------------------------- #
#: The :meth:`CompiledRRG._from_arrays` fields a substrate segment
#: carries, with their segment dtypes (each numpy mirror's own dtype, so
#: attached mirrors, and the int32 CSR rows, alias the segment).
_SUBSTRATE_ARRAYS = {
    "node_kind": np.int64,
    "node_capacity": np.int64,
    "node_length": np.int64,
    "base_cost": np.float64,
    "xlo": np.int32,
    "xhi": np.int32,
    "ylo": np.int32,
    "yhi": np.int32,
    "edge_start": np.int32,
    "edge_mid": np.int32,
    "edge_dst": np.int32,
    "edge_kind": np.int64,
    "lb_source_ids": np.int32,
    "lb_sink_ids": np.int32,
    "io_source_ids": np.int32,
    "io_sink_ids": np.int32,
}


@dataclass(frozen=True)
class SharedSubstrate:
    """Constant-size handle to a published :class:`CompiledRRG`.

    Carries nothing but the segment name — the array layout table and
    the device ``params`` ride in the segment's own header, so the
    handle pickles to ~100 bytes whatever the fabric size.
    ``attach()`` reconstructs a read-only :class:`CompiledRRG` view;
    ``attach_cached()`` memoises it per process (one real attach per
    worker, however many jobs it runs).
    """

    name: str

    def attach(self) -> CompiledRRG:
        """Map the segment and rebuild the substrate view (zero-copy
        numpy arrays; Python list mirrors materialised once)."""
        shm = _attach_segment(self.name)
        meta, views = _read_segment(shm)
        # the router's hot Python lists are materialised once; the CSR
        # rows and numpy mirrors alias the shared buffer directly
        c = CompiledRRG._from_arrays(
            meta["params"],
            **{key: views[key] for key in _SUBSTRATE_ARRAYS},
        )
        # defect-candidate indexes arrive pre-computed (shared views)
        c._wire_ids = views["wire_ids"]
        c._switch_edge_ids = views["switch_edge_ids"]
        c._edge_src = views["edge_src"]
        c._logic_tiles = tuple(
            (int(x), int(y)) for x, y in views["logic_tiles"].tolist()
        )
        return c

    def attach_cached(self) -> CompiledRRG:
        """Per-process memoised :meth:`attach`."""
        with _ATTACH_LOCK:
            cached = _ATTACHED.get(self.name)
        if cached is not None:
            return cached  # type: ignore[return-value]
        c = self.attach()
        with _ATTACH_LOCK:
            return _ATTACHED.setdefault(self.name, c)  # type: ignore


def publish_substrate(c: CompiledRRG) -> tuple[
    shared_memory.SharedMemory, SharedSubstrate
]:
    """Copy ``c``'s flat arrays into a fresh shared segment.

    Returns the owning segment (the caller manages its lifecycle —
    normally through a :class:`SharedStore`) and the picklable handle.
    The cached defect-candidate indexes are forced and published too,
    so yield workers never recompute them.
    """
    arrays: list[tuple[str, np.ndarray]] = [
        (key, np.asarray(getattr(c, key), dtype=dtype))
        for key, dtype in _SUBSTRATE_ARRAYS.items()
    ] + [
        ("wire_ids", np.asarray(c.wire_node_ids(), dtype=np.int64)),
        ("switch_edge_ids", np.asarray(c.switch_edge_ids(), dtype=np.int64)),
        ("edge_src", np.asarray(c.edge_src_ids(), dtype=np.int64)),
        ("logic_tiles",
         np.asarray(c.logic_tiles(), dtype=np.int64).reshape(-1, 2)),
    ]
    shm = _pack_segment(arrays, {"params": c.params})
    return shm, SharedSubstrate(name=shm.name)


# ------------------------------------------------------------------------- #
# golden mapping (yield campaigns)
# ------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SharedGolden:
    """O(1)-pickling handle to a published golden mapping (+ netlist).

    The golden :class:`~repro.reliability.repair.GoldenMapping` —
    placement, routes, quality metrics — and the campaign's netlist are
    shipped once through shared memory instead of being pickled into
    every trial job.  Routes travel as flat per-sink path arrays; node
    and edge sets are reconstructed from the paths (that is how the
    router built them in the first place).
    """

    name: str

    def attach(self):
        """Decode ``(netlist, GoldenMapping)`` from the segment."""
        from repro.reliability.repair import GoldenMapping
        from repro.route.pathfinder import RouteResult, net_from_paths

        shm = _attach_segment(self.name)
        meta, views = _read_segment(shm)
        names = bytes(views["names"]).decode("utf-8")
        net_names = names.split("\x1f") if names else []
        net_source = views["net_source"].tolist()
        net_reused = views["net_reused"].tolist()
        sink_start = views["sink_start"].tolist()
        sinks_flat = views["sinks_flat"].tolist()
        path_start = views["path_start"].tolist()
        paths_flat = views["paths_flat"].tolist()
        nets = {}
        for i, name in enumerate(net_names):
            lo, hi = sink_start[i], sink_start[i + 1]
            sinks = sinks_flat[lo:hi]
            net = net_from_paths(name, net_source[i], sinks, (
                (sink, paths_flat[path_start[g]:path_start[g + 1]])
                for g, sink in enumerate(sinks, lo)))
            net.reused = bool(net_reused[i])
            nets[name] = net
        routes = RouteResult(nets, meta["iterations"], meta["context"])
        placement = pickle.loads(bytes(views["placement"]))
        netlist = pickle.loads(bytes(views["netlist"]))
        golden = GoldenMapping(
            placement, routes, meta["wirelength"], meta["critical_path"]
        )
        return netlist, golden

    def attach_cached(self):
        """Per-process memoised :meth:`attach`."""
        with _ATTACH_LOCK:
            cached = _ATTACHED.get(self.name)
        if cached is not None:
            return cached
        decoded = self.attach()
        with _ATTACH_LOCK:
            return _ATTACHED.setdefault(self.name, decoded)


def publish_golden(golden, netlist) -> tuple[
    shared_memory.SharedMemory, SharedGolden
]:
    """Publish one golden mapping (and its netlist) to shared memory."""
    routes = golden.routes
    net_names: list[str] = []
    net_source: list[int] = []
    net_reused: list[int] = []
    sink_start: list[int] = [0]
    sinks_flat: list[int] = []
    path_start: list[int] = [0]
    paths_flat: list[int] = []
    for name, net in routes.nets.items():
        net_names.append(name)
        net_source.append(net.source)
        net_reused.append(1 if net.reused else 0)
        sinks_flat.extend(net.sinks)
        sink_start.append(len(sinks_flat))
        for sink in net.sinks:
            paths_flat.extend(net.sink_paths[sink])
            path_start.append(len(paths_flat))
    names_blob = "\x1f".join(net_names).encode("utf-8")
    arrays: list[tuple[str, np.ndarray]] = [
        ("names", np.frombuffer(names_blob, dtype=np.uint8)),
        ("net_source", np.asarray(net_source, dtype=np.int64)),
        ("net_reused", np.asarray(net_reused, dtype=np.uint8)),
        ("sink_start", np.asarray(sink_start, dtype=np.int64)),
        ("sinks_flat", np.asarray(sinks_flat, dtype=np.int64)),
        ("path_start", np.asarray(path_start, dtype=np.int64)),
        ("paths_flat", np.asarray(paths_flat, dtype=np.int64)),
        ("placement",
         np.frombuffer(pickle.dumps(golden.placement), dtype=np.uint8)),
        ("netlist", np.frombuffer(pickle.dumps(netlist), dtype=np.uint8)),
    ]
    shm = _pack_segment(arrays, {
        "n_nets": len(net_names),
        "iterations": routes.iterations, "context": routes.context,
        "wirelength": golden.wirelength,
        "critical_path": golden.critical_path,
    })
    return shm, SharedGolden(name=shm.name)


# ------------------------------------------------------------------------- #
# defect-mask batches (yield campaigns)
# ------------------------------------------------------------------------- #
class DefectBatchView:
    """Decoded read-only views over one published trial batch of defect
    masks (see :func:`publish_defect_batch`)."""

    __slots__ = (
        "n_trials", "model", "node_ok", "wire_start", "wires_flat",
        "switch_start", "switch_flat", "tile_start", "tiles_flat",
    )

    def __init__(self, meta: dict, views: dict) -> None:
        self.n_trials = meta["n_trials"]
        self.model = meta["model"]
        self.node_ok = views["node_ok"]
        self.wire_start = views["wire_start"]
        self.wires_flat = views["wires_flat"]
        self.switch_start = views["switch_start"]
        self.switch_flat = views["switch_flat"]
        self.tile_start = views["tile_start"]
        self.tiles_flat = views["tiles_flat"]

    def map_for(self, c: CompiledRRG, index: int, rate: float, seed: int):
        """Rebuild trial ``index``'s :class:`DefectMap` around the
        published masks (no re-sampling, no node-mask re-lowering).

        ``rate``/``seed`` restore the sampling parameters the map would
        carry if the worker had sampled it locally (they ride in the
        trial job already), so the rebuilt map is equal to the local
        one field for field.
        """
        from repro.reliability.defect_map import DefectMap

        i = index
        ws, we = int(self.wire_start[i]), int(self.wire_start[i + 1])
        ss, se = int(self.switch_start[i]), int(self.switch_start[i + 1])
        ts, te = int(self.tile_start[i]), int(self.tile_start[i + 1])
        return DefectMap.from_lowered(
            c,
            self.node_ok[i],
            self.wires_flat[ws:we],
            self.switch_flat[ss:se],
            self.tiles_flat[ts:te].tolist(),
            model=self.model, rate=rate, seed=seed,
        )


@dataclass(frozen=True)
class SharedDefectBatch:
    """O(1)-pickling handle to one campaign's published defect masks.

    The parent samples every trial's :class:`DefectMap` once (sampling
    is a pure function of seed and substrate, so parent-side draws are
    bit-identical to worker-side ones) and publishes the lowered
    ``node_ok`` rows plus the raw defect id lists in one segment;
    workers attach instead of re-sampling and re-lowering per trial.
    """

    name: str

    def attach(self) -> DefectBatchView:
        shm = _attach_segment(self.name)
        meta, views = _read_segment(shm)
        return DefectBatchView(meta, views)

    def attach_cached(self) -> DefectBatchView:
        """Per-process memoised :meth:`attach`."""
        with _ATTACH_LOCK:
            cached = _ATTACHED.get(self.name)
        if cached is not None:
            return cached  # type: ignore[return-value]
        view = self.attach()
        with _ATTACH_LOCK:
            return _ATTACHED.setdefault(self.name, view)  # type: ignore


def _offsets(rows: list[np.ndarray]) -> np.ndarray:
    """Start offsets of ``rows`` concatenated, plus the total."""
    out = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=out[1:])
    return out


def publish_defect_batch(maps) -> tuple[
    shared_memory.SharedMemory, SharedDefectBatch
]:
    """Publish a trial batch of :class:`DefectMap` masks to one segment.

    Layout: one ``(n_trials, n_nodes)`` boolean ``node_ok`` matrix plus
    ragged per-trial defect id lists (wire nodes, switch edges, bad
    tiles) with offset arrays.  Per-trial metadata that varies inside a
    campaign (rate, seed) stays in the trial jobs; the model name is
    campaign-wide and rides the segment header.
    """
    maps = list(maps)
    if not maps:
        raise ValueError("cannot publish an empty defect batch")
    node_ok = np.stack([dm.node_ok for dm in maps])
    wires = [dm.wire_defects for dm in maps]
    switches = [dm.switch_defects for dm in maps]
    tiles = [np.asarray(sorted((t.x, t.y) for t in dm.bad_tiles),
                        dtype=np.int64).reshape(-1, 2)
             for dm in maps]
    arrays: list[tuple[str, np.ndarray]] = [
        ("node_ok", node_ok),
        ("wire_start", _offsets(wires)),
        ("wires_flat", np.concatenate(wires)),
        ("switch_start", _offsets(switches)),
        ("switch_flat", np.concatenate(switches)),
        ("tile_start", _offsets(tiles)),
        ("tiles_flat", np.concatenate(tiles)),
    ]
    shm = _pack_segment(arrays, {
        "n_trials": len(maps), "model": maps[0].model,
    })
    return shm, SharedDefectBatch(name=shm.name)


# ------------------------------------------------------------------------- #
# owner-side refcounted registry
# ------------------------------------------------------------------------- #
class _Publication:
    __slots__ = ("shm", "handle", "refs")

    def __init__(self, shm: shared_memory.SharedMemory, handle) -> None:
        self.shm = shm
        self.handle = handle
        self.refs = 0


_REGISTRY_LOCK = threading.Lock()
_REGISTRY: dict[object, _Publication] = {}


def _registry_acquire(key, publish):
    """Get-or-create the publication for ``key``; bumps its refcount."""
    kind = key[0] if isinstance(key, tuple) and key else "segment"
    with _REGISTRY_LOCK:
        pub = _REGISTRY.get(key)
        if pub is None:
            shm, handle = publish()
            pub = _REGISTRY[key] = _Publication(shm, handle)
            GLOBAL.inc("shared.publishes", kind=kind)
        pub.refs += 1
        GLOBAL.inc("shared.acquires", kind=kind)
        GLOBAL.gauge_set("shared.registry_size", len(_REGISTRY))
        return pub.handle


def _registry_release(key) -> None:
    """Drop one reference; unlinks the segment at refcount zero."""
    kind = key[0] if isinstance(key, tuple) and key else "segment"
    with _REGISTRY_LOCK:
        pub = _REGISTRY.get(key)
        if pub is None:
            return
        pub.refs -= 1
        GLOBAL.inc("shared.releases", kind=kind)
        if pub.refs > 0:
            return
        del _REGISTRY[key]
        GLOBAL.inc("shared.unlinks", kind=kind)
        GLOBAL.gauge_set("shared.registry_size", len(_REGISTRY))
    pub.shm.close()
    try:
        pub.shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def registry_size() -> int:
    """Live publications in this process (tests/diagnostics)."""
    with _REGISTRY_LOCK:
        return len(_REGISTRY)


def _finalize_store(keys: dict, owner_pid: int) -> None:
    """Release a store's acquisitions — in the owning process only.

    Forked children (pool workers inherit runners, and thus stores)
    run the same finalizer at exit; the pid guard keeps them from
    unlinking segments the parent still serves.
    """
    if os.getpid() != owner_pid:
        return
    for key in list(keys):
        _registry_release(key)
    keys.clear()


class SharedStore:
    """One runner's shared-memory publications, released on close.

    ``substrate_for`` / ``golden_for`` are get-or-create against the
    process-wide registry: equal keys across stores share one segment,
    and each store holds at most one reference per key.  ``close()``
    (idempotent; also wired to a ``weakref`` finalizer, so dropping
    the runner or exiting the interpreter cleans up) releases every
    reference; the registry unlinks a segment when its last reference
    goes.
    """

    def __init__(self) -> None:
        self._keys: dict = {}  # key -> handle (this store's references)
        self._lock = threading.Lock()
        self._owner_pid = os.getpid()
        self._finalizer = weakref.finalize(
            self, _finalize_store, self._keys, self._owner_pid
        )

    def substrate_for(self, c: CompiledRRG) -> SharedSubstrate:
        """The (shared) published substrate handle for ``c``."""
        key = ("substrate", c.params)
        return self._get(key, lambda: publish_substrate(c))

    def golden_for(self, cache_key, golden, netlist) -> SharedGolden:
        """The (shared) published golden-mapping handle.

        ``cache_key`` identifies the golden mapping the way the yield
        runner's own cache does (netlist identity, params, seed,
        effort, iteration budget).
        """
        key = ("golden", cache_key)
        return self._get(key, lambda: publish_golden(golden, netlist))

    def defects_for(self, cache_key, build) -> SharedDefectBatch:
        """The (shared) published defect-mask batch for one campaign.

        ``build`` is called (once per key, under the registry) to
        sample the batch's :class:`DefectMap` list only when no equal
        publication exists yet; ``cache_key`` must pin everything the
        sampled masks depend on (params, model, rates, trial count,
        campaign seed, cluster geometry).
        """
        key = ("defects", cache_key)
        return self._get(key, lambda: publish_defect_batch(build()))

    def _get(self, key, publish):
        with self._lock:
            handle = self._keys.get(key)
            if handle is None:
                handle = _registry_acquire(key, publish)
                self._keys[key] = handle
            return handle

    def size(self) -> int:
        """References this store currently holds."""
        with self._lock:
            return len(self._keys)

    def close(self) -> None:
        """Release every reference (idempotent)."""
        self._finalizer()

    def __enter__(self) -> "SharedStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def warm_worker(handles: tuple) -> None:
    """Process-pool initializer: attach every handle once, up front.

    With the attach done at worker start, every job's
    ``attach_cached()`` is a dictionary hit — the substrate is mapped
    exactly once per worker process however many jobs it runs.
    """
    for handle in handles:
        handle.attach_cached()
