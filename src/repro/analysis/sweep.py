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
  critical path, iterations), JSON-serializable through the record
  codec (:mod:`repro.utils.records`);
- :class:`SweepRunner` — executes a grid on the cached compiled
  substrates with a selectable backend;
- grid builders (:func:`channel_width_jobs`,
  :func:`double_fraction_jobs`, :func:`fc_jobs`): a sweep of one
  routing knob on an explicit netlist is
  ``SweepRunner().iter_run(fc_jobs(netlist, base, fcs))``;
- :func:`minimum_channel_width` — bisect the narrowest channel a
  netlist routes on, every probe on one runner's cached placement;
- the analytic area-model sweeps (:func:`sweep_change_rate_points`,
  :func:`sweep_contexts_points`), each point one
  :meth:`AreaModel.paper_operating_points
  <repro.core.area_model.AreaModel.paper_operating_points>` call.

Named-workload sweeps run through ``Session.run(SweepRequest(...))``,
which builds these same grids.

Backend and pool selection
--------------------------
``backend="sequential"`` (default) evaluates points in order, sharing
each substrate across the points that use it — the right choice for
small grids and for bisection, where points depend on earlier
outcomes.
``backend="thread"`` overlaps points with a thread pool; the native
route and anneal kernels release the GIL inside their ``ctypes``
calls, so threads overlap those, while the Python around them stays
serialized.
``backend="process"`` fans points out to a ``ProcessPoolExecutor`` —
jobs and results are picklable by construction, so each point ships
as a pickled ``(job, placement)`` pair and each worker process warms
its own compiled-RRG cache.  ``workers=None`` sizes
parallel backends to ``os.cpu_count()``.

:meth:`SweepRunner.iter_items` is the one pool loop: sweep points,
the reliability layer's yield trials and the api ``Session``'s batch
maps all fan out through it, so every backend keeps one set of
ordering and cancellation semantics.  It is also the one place that
collects per-item telemetry: given a run id it runs each item under a
fresh :class:`~repro.utils.telemetry.Telemetry` inside the worker and
yields ``(result, snapshot)`` pairs, so spans and counters survive the
process backend without any work item carrying an instrumentation
field.  :meth:`SweepRunner.iter_run` is the streaming grid entry;
``list(...)`` over it is the blocking form.

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

import multiprocessing
import os
import threading
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

from repro.arch.compiled import compiled_rrg_for
from repro.arch.params import ArchParams
from repro.core.area_model import AreaModel
from repro.errors import RoutingError
from repro.netlist.netlist import Netlist
from repro.place.placer import Placement, place
from repro.route.pathfinder import route_context_compiled
from repro.route.timing import critical_path
from repro.utils.records import Record
from repro.utils.telemetry import Telemetry, collecting, span

#: PathFinder iteration budget per sweep point.  Matches the legacy
#: per-point flow (``max_iterations=25`` on every point), so sweep
#: verdicts are comparable with historical results.
POINT_MAX_ITERATIONS = 25

_BACKENDS = ("sequential", "thread", "process")

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


@dataclass
class SweepPoint(Record):
    """Structured outcome of one sweep point."""

    axis: str
    value: float
    routed: bool
    wirelength: int = 0
    critical_path: float = 0.0
    iterations: int = 0
    #: per-phase timings (:func:`~repro.utils.telemetry.phase_totals`
    #: of ``metrics``); ``None`` unless the request asked for a
    #: profile — wall-clock, so omitted from serialization when off
    profile: dict | None = None
    #: telemetry snapshot (spans + counter deltas); ``None`` unless
    #: the grid ran under a run id — omitted from serialization so
    #: telemetry never perturbs row bit-identity
    metrics: dict | None = None


@dataclass
class AreaPoint(Record):
    """One analytic area-model sweep point (no routing involved)."""

    axis: str
    value: float
    cmos_ratio: float
    fepg_ratio: float


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
    job: SweepJob, placement: Placement | None = None
) -> SweepPoint:
    """Evaluate one sweep point on the compiled substrate.

    Places (unless a cached ``placement`` is supplied), routes over the
    cached substrate for ``job.params`` (flat arrays, no object graph
    resident — see :func:`repro.arch.compiled.compiled_rrg_for`), and
    extracts the structured outcome.
    An unroutable point is a *result* (``routed=False``), not an error.
    The substrate lookup (and the build, on a cache miss) is traced as
    ``point.substrate`` on whichever collector is bound.
    """
    with span("point.substrate"):
        c = compiled_rrg_for(job.params)
    if placement is None:
        with span("point.place"):
            placement = place(
                job.netlist, job.params, seed=job.seed, effort=job.effort
            )
    try:
        with span("point.route"):
            rr = route_context_compiled(
                c, job.netlist, placement, max_iterations=job.max_iterations,
            )
    except RoutingError:
        return SweepPoint(job.axis, job.value, False)
    with span("point.timing"):
        cp = critical_path(c, job.netlist, rr, placement)
    return SweepPoint(
        job.axis,
        job.value,
        True,
        wirelength=rr.wirelength(c),
        critical_path=cp,
        iterations=rr.iterations,
    )


def _pin_worker(counter, cpus: tuple[int, ...]) -> None:
    """Process-pool initializer: pins the *i*-th worker to be started
    to ``cpus[i]``.  Left to the scheduler, the forked workers of a
    short campaign stay on the parent's CPU until it ends."""
    with counter.get_lock():
        i = counter.value
        counter.value += 1
    os.sched_setaffinity(0, (cpus[i % len(cpus)],))


def _pool(backend: str, n: int):
    """A pool of ``n`` workers for ``backend``.  A process pool pins its
    workers one to a CPU where the OS supports affinity and this process
    may run on at least ``n`` CPUs."""
    if backend == "thread":
        return ThreadPoolExecutor(max_workers=n)
    if hasattr(os, "sched_setaffinity"):
        cpus = tuple(sorted(os.sched_getaffinity(0)))
        if n <= len(cpus):
            return ProcessPoolExecutor(
                max_workers=n, initializer=_pin_worker,
                initargs=(multiprocessing.Value("i", 0), cpus))
    return ProcessPoolExecutor(max_workers=n)


def _evaluate_shipped(pair: tuple[SweepJob, Placement]) -> SweepPoint:
    """Evaluate one ``(job, placement)`` pair (top-level, so process
    pools can pickle it)."""
    job, placement = pair
    return evaluate_point(job, placement)


def run_item(fn, item, run_id: str | None):
    """``(fn(item), snapshot)``: under a fresh collector when ``run_id``
    is set, else with none bound (an ambient one the caller bound keeps
    receiving on the sequential backend) and ``snapshot=None``.

    The pool loop's step for each item; the Session runs its
    single-shot requests and its batch rows' checks through it too."""
    if run_id is None:
        return fn(item), None
    tel = Telemetry(run_id)
    with collecting(tel):
        result = fn(item)
    return result, tel.snapshot()


class SweepRunner:
    """Executes sweep grids on the shared compiled substrates.

    See the module docstring for backend and pool selection.  The
    placement cache lives on the runner, so successive :meth:`iter_run`
    calls (a bisection probing one width at a time, say) keep sharing
    placements; use a fresh runner to drop them.
    """

    def __init__(
        self,
        backend: str = "sequential",
        workers: int | None = None,
    ) -> None:
        if backend not in _BACKENDS:
            raise ValueError(
                f"backend must be one of {_BACKENDS}, got {backend!r}"
            )
        self.backend = backend
        self.workers = workers
        self._placements: dict[tuple, Placement] = {}
        # concurrent jobs (the service layer's worker pool) share one
        # runner; the lock keeps get-or-create single-flight so equal
        # configurations always receive the *same* Placement object
        self._placements_lock = threading.Lock()

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

    def iter_items(self, fn, items: Sequence, run_id: str | None = None):
        """Execute ``fn`` over ``items``, yielding ``(result, snapshot)``
        pairs incrementally.

        The one pool loop (see the module docstring).  ``snapshot`` is
        the item's telemetry leaf block, collected inside its worker,
        when a ``run_id`` is given, else ``None``.  Results keep the
        order of ``items`` on every backend: parallel backends submit
        the whole grid up front and yield each result as soon as it
        (and everything before it) is done, so streaming consumers see
        the same rows as a sequential run — bit-identical, just
        earlier.  A failing item raises its error when its slot is
        reached.  ``fn`` must be a picklable top-level callable for the
        process backend.
        """
        items = list(items)
        n = self.pool_width(len(items))
        if n <= 1:
            for it in items:
                yield run_item(fn, it, run_id)
            return
        pool = _pool(self.backend, n)
        try:
            futures = [pool.submit(run_item, fn, it, run_id) for it in items]
            for f in futures:
                yield f.result()
        finally:
            # an abandoned generator (consumer stopped early) must not
            # block on the rest of the grid: drop pending work instead
            # of the `with` block's shutdown(wait=True)
            pool.shutdown(wait=False, cancel_futures=True)

    def iter_run(self, jobs: Sequence[SweepJob], run_id: str | None = None):
        """Evaluate every job, yielding each :class:`SweepPoint` as it
        completes (in job order).  Under a ``run_id`` each point's
        ``metrics`` is its telemetry snapshot."""
        # placements are computed (and deduplicated) up front in the
        # parent: points differing only in routing resources share one
        # anneal, and worker processes receive ready placements
        pairs = [(job, self.placement_for(job)) for job in jobs]
        for pt, snapshot in self.iter_items(_evaluate_shipped, pairs, run_id):
            pt.metrics = snapshot
            yield pt


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


def minimum_channel_width(
    netlist: Netlist,
    base: ArchParams,
    lo: int = 2,
    hi: int = 24,
    seed: int = 0,
    effort: float = 0.3,
    runner: SweepRunner | None = None,
) -> int:
    """Smallest channel width that routes ``netlist`` on ``base``'s grid.

    Standard bisection with a routable upper bound; raises
    :class:`RoutingError` when even ``hi`` fails.  Bisection probes are
    sequential by nature (each depends on the last verdict), but every
    probe reuses the runner's cached placement — the anneal is
    independent of channel width — so only the routing is repeated.
    Without a ``runner`` the call uses a fresh one, whose placement
    cache lives for this call only.
    """
    runner = runner if runner is not None else SweepRunner()

    def routed(width: int) -> bool:
        jobs = channel_width_jobs(
            netlist, base, [width], seed=seed, effort=effort
        )
        (pt,) = runner.iter_run(jobs)
        return pt.routed

    if not routed(hi):
        raise RoutingError(f"unroutable even at W={hi}")
    while lo < hi:
        mid = (lo + hi) // 2
        if routed(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


# ------------------------------------------------------------------------- #
# analytic area-model sweeps (no routing; kept with the grid machinery so
# every sweep the CLI exposes lives in one subsystem)
# ------------------------------------------------------------------------- #
def _area_point(axis: str, value: float, **operating_point) -> AreaPoint:
    """The CMOS and FePG ratios at one analytic operating point."""
    pair = AreaModel().paper_operating_points(**operating_point)
    return AreaPoint(axis, value, pair["cmos"].ratio, pair["fepg"].ratio)


def sweep_change_rate_points(
    rates: Sequence[float],
    n_contexts: int = 4,
    sharing_factor: float = 2.0,
) -> list[AreaPoint]:
    """Area ratio vs configuration-change rate — the sensitivity curve
    behind the paper's single 5% operating point."""
    return [
        _area_point("change_rate", r, change_rate=r, n_contexts=n_contexts,
                    sharing_factor=sharing_factor)
        for r in rates
    ]


def sweep_contexts_points(
    context_counts: Sequence[int],
    change_rate: float = 0.05,
    sharing_factor: float = 2.0,
) -> list[AreaPoint]:
    """Area ratio vs context count: the overhead the RCM attacks grows
    with context count, so the proposed advantage should widen.  Each
    point's tile counts come from the paper device at that count."""
    return [
        _area_point("n_contexts", n, change_rate=change_rate, n_contexts=n,
                    sharing_factor=sharing_factor)
        for n in context_counts
    ]
