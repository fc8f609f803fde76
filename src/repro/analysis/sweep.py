"""Sweep/DSE subsystem: parameter grids as first-class routing jobs.

The design-space experiments — minimum channel width, double-length
track and connection-block (Fc) sweeps, change-rate and context-count
sensitivity — all reduce to the same shape: evaluate a *grid* of
``(ArchParams, netlist, seed)`` points and collect structured results.
This module makes that shape explicit (Lumos-style parameter-space
exploration: points are data, the runner is policy):

- :class:`SweepJob` — one architecture point to evaluate (picklable,
  so grids can be shipped to worker processes);
- :class:`SweepPoint` — the structured outcome (routed, wirelength,
  critical path, iterations), JSON-serializable via
  :meth:`~SweepPoint.to_dict` / :meth:`~SweepPoint.from_dict`;
- :class:`SweepRunner` — executes a grid on the compiled mapping
  engine with a selectable backend;
- grid builders (:func:`channel_width_jobs`,
  :func:`double_fraction_jobs`, :func:`fc_jobs`) and the analytic
  area-model sweeps (:func:`sweep_change_rate_points`,
  :func:`sweep_contexts_points`).

Backend and pool selection
--------------------------
``backend="sequential"`` (default) evaluates points in order, reusing
one leased :class:`~repro.route.pathfinder.RouterScratch` per substrate
through the shared scratch pool — the right choice for small grids and
for bisection, where points depend on earlier outcomes.
``backend="thread"`` overlaps points with a thread pool; routing is
pure-Python CPU work, so under the GIL this only helps when jobs block
(it exists for API uniformity with
:meth:`~repro.analysis.engine.MappingEngine.map_batch`).
``backend="process"`` fans points out to a ``ProcessPoolExecutor`` —
jobs and results are picklable by construction, so this is the one
that beats the GIL for big grids; each worker process warms its own
compiled-RRG cache and scratch pool.  ``workers=None`` sizes parallel
backends to ``os.cpu_count()``.

With ``shared_memory`` enabled (the default; see
:func:`repro.arch.shared.shared_memory_default`), the process backend
publishes compiled substrates through POSIX shared memory whenever a
grid shares one ``ArchParams`` across several points: workers map the
arrays zero-copy (one attach per worker process, done in the pool
initializer) instead of rebuilding the substrate per process.  Points
whose params are unique in the grid still build worker-side — the
parent publishing them first would serialize work the pool could do in
parallel.  Segments are refcounted by the runner's
:class:`~repro.arch.shared.SharedStore` and unlinked on
:meth:`SweepRunner.close` (also wired to a finalizer, so dropping the
runner cleans up).  Rows are bit-identical either way: attached
substrates hold the same arrays the parent built.

Two sweep-level optimisations keep grids cheap without changing any
verdict: the runner caches *placements* across points that share a
placement-relevant configuration (grid size, I/O capacity, seed,
effort — channel width, track mix and Fc are invisible to the placer),
and the compiled-RRG cache shares substrates across points with equal
``ArchParams``.  Every point still routes exactly as the legacy
per-point flow did (same placement seed, same PathFinder schedule), so
compiled sweeps reproduce legacy verdicts and wirelengths — the
equivalence suite in ``tests/analysis/test_sweep.py`` pins this.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

from repro.arch.params import ArchParams
from repro.errors import RoutingError
from repro.netlist.netlist import Netlist
from repro.place.placer import Placement, place
from repro.route.pathfinder import route_context_compiled
from repro.route.timing import critical_path
from repro.utils.iters import SizedIterator
from repro.utils.profile import PhaseProfiler, profiling, span
from repro.utils.telemetry import Telemetry, collecting
from repro.utils.telemetry import span as tspan

#: PathFinder iteration budget per sweep point.  Matches the legacy
#: per-point flow (``route_context(..., max_iterations=25)``), so sweep
#: verdicts are comparable with historical results.
POINT_MAX_ITERATIONS = 25

_BACKENDS = ("sequential", "thread", "process")

#: stateless, reusable — spares an allocation on every unprofiled point
_NULL_CTX = nullcontext()


@dataclass(frozen=True)
class SweepJob:
    """One architecture point of a sweep grid.

    ``axis``/``value`` name the swept knob (e.g. ``"channel_width"``,
    10); ``params`` is the fully-resolved device configuration.  Jobs
    are immutable and picklable, so a grid can be shipped wholesale to
    worker processes.
    """

    axis: str
    value: float
    params: ArchParams
    netlist: Netlist
    seed: int = 0
    effort: float = 0.3
    max_iterations: int = POINT_MAX_ITERATIONS
    #: wavefront width for the router's *initial* routing pass
    #: (``None`` = sequential).  Verdicts are bit-identical either way
    #: — the wavefront only parallelises provably independent nets.
    route_workers: int | None = None
    #: collect a per-point phase profile (wall-clock — never part of
    #: the row bit-identity contract; see :mod:`repro.utils.profile`)
    profile: bool = False
    #: run/trace id when telemetry is on (``None`` = off).  Workers
    #: bind a :class:`~repro.utils.telemetry.Telemetry` collector per
    #: point and ship its snapshot back inside the row — the channel
    #: that makes spans/counters survive the process backend.
    telemetry: str | None = None


@dataclass
class SweepPoint:
    """Structured outcome of one sweep point."""

    axis: str
    value: float
    routed: bool
    wirelength: int = 0
    critical_path: float = 0.0
    iterations: int = 0
    #: per-phase timings; ``None`` unless profiling was requested
    #: (wall-clock — omitted from serialization so profiled and
    #: unprofiled rows stay comparable)
    profile: dict | None = None
    #: telemetry snapshot (spans + counter deltas); ``None`` unless
    #: the job carried a run id — omitted from serialization so
    #: telemetry never perturbs row bit-identity
    metrics: dict | None = None

    def to_dict(self) -> dict:
        d = {
            "axis": self.axis,
            "value": self.value,
            "routed": self.routed,
            "wirelength": self.wirelength,
            "critical_path": self.critical_path,
            "iterations": self.iterations,
        }
        if self.profile is not None:
            d["profile"] = self.profile
        if self.metrics is not None:
            d["metrics"] = self.metrics
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SweepPoint":
        return cls(
            axis=d["axis"],
            value=d["value"],
            routed=d["routed"],
            wirelength=d.get("wirelength", 0),
            critical_path=d.get("critical_path", 0.0),
            iterations=d.get("iterations", 0),
            profile=d.get("profile"),
            metrics=d.get("metrics"),
        )


@dataclass
class AreaPoint:
    """One analytic area-model sweep point (no routing involved)."""

    axis: str
    value: float
    cmos_ratio: float
    fepg_ratio: float

    def to_dict(self) -> dict:
        return {
            "axis": self.axis,
            "value": self.value,
            "cmos_ratio": self.cmos_ratio,
            "fepg_ratio": self.fepg_ratio,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AreaPoint":
        return cls(
            axis=d["axis"],
            value=d["value"],
            cmos_ratio=d["cmos_ratio"],
            fepg_ratio=d["fepg_ratio"],
        )


def _placement_key(job: SweepJob) -> tuple:
    """Cache key over exactly the inputs the placer reads.

    The placer sees the grid (``cols``/``rows``), the perimeter pad
    budget (``io_capacity``) and the anneal seed/effort — channel
    width, the single/double track mix and Fc only exist in the
    routing graph.  Keying on the netlist *object* (identity hash)
    keeps a strong reference, so ids cannot be recycled under us.
    """
    return (
        job.netlist, job.params.cols, job.params.rows,
        job.params.io_capacity, job.seed, job.effort,
    )


def evaluate_point(
    job: SweepJob, placement: Placement | None = None, engine=None, c=None
) -> SweepPoint:
    """Evaluate one sweep point on the compiled engine.

    Places (unless a cached ``placement`` is supplied), routes over the
    cached substrate for ``job.params`` (flat arrays, no object graph
    resident — see :func:`repro.arch.compiled.compiled_rrg_for`), and
    extracts the structured outcome.
    An unroutable point is a *result* (``routed=False``), not an error.
    An explicit ``c`` (e.g. a shared-memory attached substrate) skips
    the engine's build cache entirely; otherwise the lookup (and the
    build, on a cache miss) is traced as ``point.substrate``.
    """
    prof = PhaseProfiler() if job.profile else None
    tel = Telemetry(job.telemetry) if job.telemetry else None
    with profiling(prof) if prof is not None else _NULL_CTX, \
            collecting(tel) if tel is not None else nullcontext():
        if c is None:
            if engine is None:
                from repro.analysis.engine import DEFAULT_ENGINE
                engine = DEFAULT_ENGINE
            with tspan("point.substrate"):
                c = engine.compiled(job.params)
        if placement is None:
            with span("point.place"), tspan("point.place"):
                placement = place(
                    job.netlist, job.params, seed=job.seed, effort=job.effort
                )
        try:
            with span("point.route"), tspan("point.route"):
                rr = route_context_compiled(
                    c, job.netlist, placement,
                    max_iterations=job.max_iterations,
                    workers=job.route_workers,
                )
        except RoutingError:
            return SweepPoint(
                job.axis, job.value, False,
                profile=prof.to_dict() if prof is not None else None,
                metrics=tel.snapshot() if tel is not None else None,
            )
        with span("point.timing"), tspan("point.timing"):
            cp = critical_path(c, job.netlist, rr, placement)
    return SweepPoint(
        job.axis,
        job.value,
        True,
        wirelength=rr.wirelength(c),
        critical_path=cp,
        iterations=rr.iterations,
        profile=prof.to_dict() if prof is not None else None,
        metrics=tel.snapshot() if tel is not None else None,
    )


def _evaluate_shipped(pair: tuple[SweepJob, Placement]) -> SweepPoint:
    """Top-level process-pool entry point (must be picklable)."""
    job, placement = pair
    return evaluate_point(job, placement)


def _evaluate_shipped_shared(item) -> SweepPoint:
    """Process-pool entry point for the shared-memory backend.

    ``item`` is ``(job, placement, handle)`` — ``handle`` a
    :class:`~repro.arch.shared.SharedSubstrate` (attached zero-copy,
    cached per process) or ``None`` for params unique in the grid,
    which fall back to the worker-side ``compiled_rrg_for`` build.
    """
    job, placement, handle = item
    c = handle.attach_cached() if handle is not None else None
    return evaluate_point(job, placement, c=c)


class SweepRunner:
    """Executes sweep grids on the shared mapping engine.

    See the module docstring for backend and pool selection.  The
    placement cache lives on the runner, so successive :meth:`run`
    calls (a bisection probing one width at a time, say) keep sharing
    placements; use a fresh runner to drop them.
    """

    def __init__(
        self,
        engine=None,
        backend: str = "sequential",
        workers: int | None = None,
        shared_memory: bool | None = None,
    ) -> None:
        if backend not in _BACKENDS:
            raise ValueError(
                f"backend must be one of {_BACKENDS}, got {backend!r}"
            )
        if engine is None:
            from repro.analysis.engine import DEFAULT_ENGINE
            engine = DEFAULT_ENGINE
        if shared_memory is None:
            from repro.arch.shared import shared_memory_default
            shared_memory = shared_memory_default()
        self.engine = engine
        self.backend = backend
        self.workers = workers
        #: publish substrates (and the yield runner's golden mappings)
        #: over POSIX shared memory on the process backend
        self.shared_memory = shared_memory
        self._store = None
        self._placements: dict[tuple, Placement] = {}
        # concurrent jobs (the service layer's worker pool) share one
        # runner; the lock keeps get-or-create single-flight so equal
        # configurations always receive the *same* Placement object
        self._placements_lock = threading.Lock()

    def store(self):
        """The runner's (lazily created) shared-memory publication
        store; segments it owns are unlinked on :meth:`close`."""
        if self._store is None:
            from repro.arch.shared import SharedStore
            with self._placements_lock:
                if self._store is None:
                    self._store = SharedStore()
        return self._store

    def close(self) -> None:
        """Release the runner's shared-memory publications (idempotent;
        also runs from a finalizer when the runner is dropped)."""
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def placement_for(self, job: SweepJob) -> Placement:
        """The (cached) placement for a job's placement-relevant config."""
        key = _placement_key(job)
        with self._placements_lock:
            pl = self._placements.get(key)
            if pl is None:
                pl = place(
                    job.netlist, job.params, seed=job.seed, effort=job.effort
                )
                self._placements[key] = pl
        return pl

    def pool_width(self, n_items: int) -> int:
        """Effective pool size for ``n_items`` (1 = run sequentially)."""
        if not n_items:
            return 0
        n = self.workers if self.workers is not None else (os.cpu_count() or 1)
        return 1 if self.backend == "sequential" else min(n, n_items)

    def iter_items(self, fn, items: Sequence, initializer=None,
                   initargs=()) -> SizedIterator:
        """Execute ``fn`` over ``items``, yielding results incrementally.

        Results keep the order of ``items`` on every backend: parallel
        backends submit the whole grid up front and yield each result as
        soon as it (and everything before it) is done, so streaming
        consumers see exactly the rows :meth:`map_items` would collect —
        bit-identical, just earlier.  A failing item raises its error
        when its slot is reached.  ``fn`` must be a picklable top-level
        callable for the process backend.  ``initializer``/``initargs``
        warm each pool worker once at start (the shared-memory paths
        attach their segments there); ignored when the grid runs
        sequentially.  The returned iterator is a
        :class:`~repro.utils.iters.SizedIterator` — ``len()`` is the
        total row count, available before any work runs.
        """
        items = list(items)
        return SizedIterator(
            self._iter_items(fn, items, initializer, initargs), len(items)
        )

    def _iter_items(self, fn, items: list, initializer=None, initargs=()):
        if not items:
            return
        n = self.pool_width(len(items))
        if n <= 1:
            for it in items:
                yield fn(it)
            return
        pool_cls = (
            ThreadPoolExecutor if self.backend == "thread"
            else ProcessPoolExecutor
        )
        pool = pool_cls(max_workers=n, initializer=initializer,
                        initargs=initargs)
        try:
            futures = [pool.submit(fn, it) for it in items]
            for f in futures:
                yield f.result()
        finally:
            # an abandoned generator (consumer stopped early) must not
            # block on the rest of the grid: drop pending work instead
            # of the `with` block's shutdown(wait=True)
            pool.shutdown(wait=False, cancel_futures=True)

    def map_items(self, fn, items: Sequence) -> list:
        """Execute ``fn`` over ``items`` on the configured backend.

        The generic executor under :meth:`run`, exposed so other grid
        subsystems (the reliability layer's Monte Carlo yield campaigns
        ride it) inherit the backend/pool semantics without reinventing
        them.  Results keep the order of ``items``; a failing item
        raises its error at collection.  ``fn`` must be a picklable
        top-level callable for the process backend.
        """
        return list(self.iter_items(fn, items))

    def iter_run(self, jobs: Sequence[SweepJob]) -> SizedIterator:
        """Evaluate every job, yielding each :class:`SweepPoint` as it
        completes (in job order) — the streaming form of :meth:`run`.
        Sized: ``len()`` is the grid size."""
        jobs = list(jobs)
        return SizedIterator(self._iter_run(jobs), len(jobs))

    def _iter_run(self, jobs: list):
        if not jobs:
            return
        # placements are computed (and deduplicated) up front in the
        # parent: points differing only in routing resources share one
        # anneal, and worker processes receive ready placements
        pairs = [(job, self.placement_for(job)) for job in jobs]
        if self.backend == "process" and self.pool_width(len(pairs)) > 1:
            if self.shared_memory:
                yield from self._iter_run_shared(pairs)
                return
            yield from self.iter_items(_evaluate_shipped, pairs)
            return
        # sequential/thread (and the process single-worker fallback)
        # evaluate through the runner's own engine, as before map_items
        engine = self.engine
        yield from self.iter_items(
            lambda pair: evaluate_point(pair[0], pair[1], engine), pairs
        )

    def _iter_run_shared(self, pairs: list):
        """Process fan-out with substrates published over shared memory.

        Only params that serve more than one point are published — the
        parent would otherwise serialize substrate builds the workers
        could do in parallel.  Published substrates are attached in the
        pool initializer, so each worker maps each segment exactly once
        (``repro.arch.shared.attach_count`` pins this in the bench).
        """
        counts: dict = {}
        for job, _ in pairs:
            counts[job.params] = counts.get(job.params, 0) + 1
        store = self.store()
        handles = {
            params: store.substrate_for(self.engine.compiled(params))
            for params, n in counts.items() if n > 1
        }
        items = [
            (job, pl, handles.get(job.params)) for job, pl in pairs
        ]
        from repro.arch.shared import warm_worker

        warm = tuple(handles.values())
        yield from self.iter_items(
            _evaluate_shipped_shared, items,
            initializer=warm_worker, initargs=(warm,),
        )

    def run(self, jobs: Sequence[SweepJob]) -> list[SweepPoint]:
        """Evaluate every job; results keep the order of ``jobs``."""
        return list(self.iter_run(jobs))


# ------------------------------------------------------------------------- #
# grid builders
# ------------------------------------------------------------------------- #
def channel_width_jobs(
    netlist: Netlist,
    base: ArchParams,
    widths: Sequence[int],
    seed: int = 0,
    effort: float = 0.3,
) -> list[SweepJob]:
    """One job per channel width on ``base``'s grid."""
    return [
        SweepJob("channel_width", w, base.with_(channel_width=w),
                 netlist, seed, effort)
        for w in widths
    ]


def double_fraction_jobs(
    netlist: Netlist,
    base: ArchParams,
    fractions: Sequence[float],
    seed: int = 0,
    effort: float = 0.3,
) -> list[SweepJob]:
    """One job per single/double track split (Fig. 10's knob)."""
    return [
        SweepJob("double_fraction", f, base.with_(double_fraction=f),
                 netlist, seed, effort)
        for f in fractions
    ]


def fc_jobs(
    netlist: Netlist,
    base: ArchParams,
    fcs: Sequence[float],
    seed: int = 0,
    effort: float = 0.3,
) -> list[SweepJob]:
    """One job per connection-block flexibility value (input = output)."""
    return [
        SweepJob("fc", fc, base.with_(fc_in=fc, fc_out=fc),
                 netlist, seed, effort)
        for fc in fcs
    ]


# ------------------------------------------------------------------------- #
# analytic area-model sweeps (no routing; kept with the grid machinery so
# every sweep the CLI exposes lives in one subsystem)
# ------------------------------------------------------------------------- #
def sweep_change_rate_points(
    rates: Sequence[float],
    n_contexts: int = 4,
    sharing_factor: float = 2.0,
) -> list[AreaPoint]:
    """Area ratio vs configuration-change rate — the sensitivity curve
    behind the paper's single 5% operating point."""
    from repro.core.area_model import AreaModel, Technology

    model = AreaModel()
    out = []
    for r in rates:
        cm = model.paper_operating_point(
            change_rate=r, n_contexts=n_contexts,
            tech=Technology.CMOS, sharing_factor=sharing_factor,
        )
        fe = model.paper_operating_point(
            change_rate=r, n_contexts=n_contexts,
            tech=Technology.FEPG, sharing_factor=sharing_factor,
        )
        out.append(AreaPoint("change_rate", r, cm.ratio, fe.ratio))
    return out


def sweep_contexts_points(
    context_counts: Sequence[int],
    change_rate: float = 0.05,
    sharing_factor: float = 2.0,
) -> list[AreaPoint]:
    """Area ratio vs context count: the overhead the RCM attacks grows
    with context count, so the proposed advantage should widen."""
    from repro.arch.params import paper_params
    from repro.core.area_model import (
        AreaModel,
        Technology,
        TileCounts,
        analytic_pattern_mix,
        expected_distinct_planes,
    )

    model = AreaModel()
    out = []
    for n in context_counts:
        mix = analytic_pattern_mix(change_rate, n)
        params = paper_params().with_(n_contexts=n)
        counts = TileCounts.from_arch(params)
        planes = expected_distinct_planes(min(1.0, 2 * change_rate), n)
        cm = model.compare(
            counts, n, mix, planes, params.lut_outputs, sharing_factor,
            tech=Technology.CMOS,
        )
        fe = model.compare(
            counts, n, mix, planes, params.lut_outputs, sharing_factor,
            tech=Technology.FEPG,
        )
        out.append(AreaPoint("n_contexts", n, cm.ratio, fe.ratio))
    return out
