"""Monte Carlo manufacturing-yield campaigns on the compiled engine.

The experiment the subsystem exists for: sample N defective dies per
``(defect rate, device)`` cell, climb the repair ladder on each, and
report what fraction of dies still maps the workload — plus what the
survivors paid in wirelength/critical path, and how much yield a spare
routing track buys.

Execution rides the sweep subsystem's backends
(:meth:`repro.analysis.sweep.SweepRunner.map_items`): trials are
picklable :class:`YieldTrialJob` rows fanned out sequentially, over a
thread pool, or over a ``ProcessPoolExecutor``.  Determinism is by
construction identical across backends: every trial's defect seed is
derived in the parent from ``(campaign seed, point index, trial
index)`` via ``numpy``'s ``SeedSequence``, the golden mapping is
computed once in the parent and shipped with each job, and worker-side
substrates are pure functions of ``ArchParams`` through the
``flat_rrg_for`` cache — so a campaign's :class:`YieldPoint` rows are
bit-identical whichever backend ran them.

On the process backend with shared memory enabled (the default; see
:func:`repro.arch.shared.shared_memory_default`), the golden mapping
and the compiled substrate are *published once* through POSIX shared
memory instead of being pickled into every trial job: each trial ships
an O(1)-pickling :class:`~repro.arch.shared.SharedGolden` /
:class:`~repro.arch.shared.SharedSubstrate` handle pair, workers
attach both zero-copy in the pool initializer (one attach per worker
process however many trials it runs), and the segments are refcounted
by the sweep runner's :class:`~repro.arch.shared.SharedStore` and
unlinked on :meth:`YieldRunner.close`.  Rows stay bit-identical: the
attached golden reconstructs the exact routes the parent computed, and
the attached substrate holds the same arrays ``flat_rrg_for`` builds.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.utils.iters import SizedIterator
from repro.utils.telemetry import Telemetry, collecting, merge_metrics, span

from repro.arch.params import ArchParams
from repro.netlist.netlist import Netlist
from repro.reliability.defect_map import (
    CLUSTER_RADIUS,
    CLUSTER_SIZE,
    DEFECT_MODELS,
    DefectMap,
)
from repro.reliability.repair import (
    GoldenMapping,
    RepairLevel,
    RepairOutcome,
    build_golden,
    repair_mapping,
)

#: PathFinder budget per trial — matches the sweep subsystem's
#: per-point budget so yield and routability verdicts are comparable.
from repro.analysis.sweep import POINT_MAX_ITERATIONS, SweepJob, SweepRunner


def trial_seed(campaign_seed: int, point_index: int, trial_index: int) -> int:
    """Deterministic per-trial defect seed, independent of the backend.

    Derived through ``SeedSequence`` so nearby (seed, point, trial)
    triples decorrelate properly — adjacent trials must not sample
    overlapping defect sets just because their indices are adjacent.
    """
    seq = np.random.SeedSequence((campaign_seed, point_index, trial_index))
    return int(seq.generate_state(1, dtype=np.uint64)[0] & 0x7FFFFFFF)


@dataclass(frozen=True)
class YieldTrialJob:
    """One Monte Carlo trial: one sampled die, one workload (picklable)."""

    workload: str
    params: ArchParams
    netlist: Netlist
    defect_rate: float
    model: str
    trial: int
    defect_seed: int
    seed: int = 0
    effort: float = 0.3
    max_iterations: int = POINT_MAX_ITERATIONS
    cluster_radius: int = CLUSTER_RADIUS
    cluster_size: int = CLUSTER_SIZE
    #: run/trace id when telemetry or a profile is on (``None`` =
    #: off) — the job's only instrumentation field; the trial's span
    #: buffer and counter deltas ride back in the result
    telemetry: str | None = None


@dataclass
class TrialResult:
    """One trial's outcome (kept small so process backends ship cheap)."""

    trial: int
    outcome: RepairOutcome
    wirelength_overhead: float = 0.0
    critical_path_overhead: float = 0.0
    metrics: dict | None = None

    def to_dict(self) -> dict:
        d = self.outcome.to_dict()
        d["trial"] = self.trial
        d["wirelength_overhead"] = self.wirelength_overhead
        d["critical_path_overhead"] = self.critical_path_overhead
        if self.metrics is not None:
            d["metrics"] = self.metrics
        return d


def evaluate_trial(
    job: YieldTrialJob, golden: GoldenMapping, c=None, dm=None
) -> TrialResult:
    """Sample the die, run the repair ladder, measure the cost.

    Runs in whichever worker the backend chose: the substrate comes
    from the per-process ``flat_rrg_for`` cache (no per-trial RRG
    build), and the defect sample depends only on the job's seed.  An
    explicit ``c`` (e.g. a shared-memory attached substrate) skips the
    cache entirely; an explicit ``dm`` (e.g. rebuilt from a published
    defect batch) skips sampling — sampling is a pure function of
    ``(seed, substrate)``, so the outcome is identical either way.
    """
    if c is None:
        from repro.arch.compiled import flat_rrg_for

        c = flat_rrg_for(job.params)
    tel = Telemetry(job.telemetry) if job.telemetry else None
    with collecting(tel):
        if dm is None:
            with span("trial.sample"):
                dm = DefectMap.sample(
                    c, job.defect_rate, seed=job.defect_seed, model=job.model,
                    cluster_radius=job.cluster_radius,
                    cluster_size=job.cluster_size,
                )
        with span("trial.repair"):
            outcome = repair_mapping(
                c, job.netlist, golden, dm,
                seed=job.seed, effort=job.effort,
                max_iterations=job.max_iterations,
            )
        wl, cp = outcome.overheads(golden)
    return TrialResult(
        job.trial, outcome, wl, cp,
        metrics=tel.snapshot() if tel is not None else None,
    )


def _evaluate_trial_item(item: tuple[YieldTrialJob, GoldenMapping]) -> TrialResult:
    """Top-level single-argument adapter (process pools need picklable
    callables; ``map_items`` feeds one item per call)."""
    job, golden = item
    return evaluate_trial(job, golden)


def _charged_to_first(results, block: dict):
    """``results`` with the parent's telemetry ``block`` charged to the
    first result: its counters added to that trial's and its spans put
    on that trial's track.  A row's tracks are its trial workers' (the
    process backend's telemetry contract), so the parent's work rides
    on the first trial's rather than on a track of its own."""
    it = iter(results)
    for first in it:
        metrics = first.metrics
        counters = metrics["counters"]
        for key, value in block["counters"].items():
            counters[key] = counters.get(key, 0) + value
        metrics["spans"] = block["spans"] + metrics["spans"]
        yield first
        break
    yield from it


def _evaluate_trial_shared(item) -> TrialResult:
    """Process-pool entry point for the shared-memory backend.

    ``item`` is ``(job, golden_handle, substrate_handle,
    defect_handle, batch_index)`` — the handles are
    :class:`~repro.arch.shared.SharedGolden` /
    :class:`~repro.arch.shared.SharedSubstrate` /
    :class:`~repro.arch.shared.SharedDefectBatch`, attached zero-copy
    and cached per worker process (the pool initializer already warmed
    them, so these are dictionary hits).  Shared jobs ship
    ``netlist=None`` (the netlist rides the golden segment, not every
    trial pickle); the worker re-binds the published one, so golden
    routes are interpreted against the exact netlist they were
    computed with.  The defect map is rebuilt around row
    ``batch_index`` of the published mask batch instead of re-sampled
    — the parent drew it with this trial's seed, so the map is equal
    field for field.  ``defect_handle`` may be ``None`` (campaigns
    that opt out of batch publication fall back to local sampling).
    """
    job, golden_handle, substrate_handle, defect_handle, batch_index = item
    netlist, golden = golden_handle.attach_cached()
    c = substrate_handle.attach_cached()
    if job.netlist is None:
        job = replace(job, netlist=netlist)
    dm = None
    if defect_handle is not None:
        batch = defect_handle.attach_cached()
        dm = batch.map_for(c, batch_index, job.defect_rate, job.defect_seed)
    return evaluate_trial(job, golden, c=c, dm=dm)


@dataclass
class YieldPoint:
    """Aggregate of one campaign cell: N trials at one defect rate."""

    workload: str
    model: str
    defect_rate: float
    channel_width: int
    trials: int
    yield_fraction: float
    repair_histogram: dict[str, int] = field(default_factory=dict)
    mean_defects: float = 0.0
    mean_wirelength_overhead: float = 0.0
    mean_critical_path_overhead: float = 0.0
    spare_tracks: int = 0
    golden_routed: bool = True
    #: per-phase timings across the cell's trials
    #: (:func:`~repro.utils.telemetry.phase_totals` of ``metrics``);
    #: ``None`` unless the request asked for a profile — wall-clock,
    #: so omitted from serialization when off
    profile: dict | None = None
    #: merged telemetry (spans per worker pid + counter sums) across
    #: the cell's trials; ``None`` unless telemetry was on — omitted
    #: from serialization so rows stay bit-identical with it off
    metrics: dict | None = None

    def to_dict(self) -> dict:
        d = {
            "workload": self.workload,
            "model": self.model,
            "defect_rate": self.defect_rate,
            "channel_width": self.channel_width,
            "trials": self.trials,
            "yield_fraction": self.yield_fraction,
            "repair_histogram": dict(self.repair_histogram),
            "mean_defects": self.mean_defects,
            "mean_wirelength_overhead": self.mean_wirelength_overhead,
            "mean_critical_path_overhead": self.mean_critical_path_overhead,
            "spare_tracks": self.spare_tracks,
            "golden_routed": self.golden_routed,
        }
        if self.profile is not None:
            d["profile"] = self.profile
        if self.metrics is not None:
            d["metrics"] = self.metrics
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "YieldPoint":
        return cls(
            workload=d["workload"],
            model=d["model"],
            defect_rate=d["defect_rate"],
            channel_width=d["channel_width"],
            trials=d["trials"],
            yield_fraction=d["yield_fraction"],
            repair_histogram=dict(d.get("repair_histogram", {})),
            mean_defects=d.get("mean_defects", 0.0),
            mean_wirelength_overhead=d.get("mean_wirelength_overhead", 0.0),
            mean_critical_path_overhead=d.get(
                "mean_critical_path_overhead", 0.0
            ),
            spare_tracks=d.get("spare_tracks", 0),
            golden_routed=d.get("golden_routed", True),
            profile=d.get("profile"),
            metrics=d.get("metrics"),
        )


def _aggregate(
    workload: str,
    model: str,
    rate: float,
    params: ArchParams,
    results: Sequence[TrialResult],
    spare_tracks: int = 0,
) -> YieldPoint:
    """Fold N trial results into one :class:`YieldPoint` row."""
    n = len(results)
    histogram = {level.name.lower(): 0 for level in RepairLevel}
    routed = 0
    defects = wl = cp = 0.0
    for tr in results:
        histogram[tr.outcome.level.name.lower()] += 1
        defects += tr.outcome.n_defects
        if tr.outcome.routed:
            routed += 1
            wl += tr.wirelength_overhead
            cp += tr.critical_path_overhead
    return YieldPoint(
        workload=workload,
        model=model,
        defect_rate=rate,
        channel_width=params.channel_width,
        trials=n,
        yield_fraction=routed / n if n else 0.0,
        repair_histogram=histogram,
        mean_defects=defects / n if n else 0.0,
        mean_wirelength_overhead=wl / routed if routed else 0.0,
        mean_critical_path_overhead=cp / routed if routed else 0.0,
        spare_tracks=spare_tracks,
        golden_routed=True,
        metrics=merge_metrics(tr.metrics for tr in results),
    )


def _unroutable_point(
    workload: str, model: str, rate: float, params: ArchParams,
    trials: int, spare_tracks: int,
) -> YieldPoint:
    """Campaign cell whose *defect-free* device cannot map the workload:
    every die fails before any defect is even sampled."""
    histogram = {level.name.lower(): 0 for level in RepairLevel}
    histogram[RepairLevel.FAIL.name.lower()] = trials
    return YieldPoint(
        workload=workload, model=model, defect_rate=rate,
        channel_width=params.channel_width, trials=trials,
        yield_fraction=0.0, repair_histogram=histogram,
        spare_tracks=spare_tracks, golden_routed=False,
    )


class YieldRunner:
    """Monte Carlo yield campaigns riding the sweep subsystem's backends.

    ``backend``/``workers`` mean exactly what they mean for
    :class:`~repro.analysis.sweep.SweepRunner` (which executes the
    trials).  Golden mappings and placements are cached on the runner:
    campaigns over many rates or spare widths share one anneal per
    placement-relevant configuration and one golden route per device.
    """

    def __init__(
        self,
        engine=None,
        backend: str = "sequential",
        workers: int | None = None,
        runner: SweepRunner | None = None,
    ) -> None:
        #: an explicit ``runner`` shares its placement cache with the
        #: caller (the api ``Session`` passes its sweep runner, so a
        #: yield stage reuses the anneal a sweep stage already paid for)
        self._runner = runner if runner is not None else SweepRunner(
            engine=engine, backend=backend, workers=workers
        )
        self._golden: dict[tuple, GoldenMapping | None] = {}
        # single-flight get-or-create: concurrent campaigns (service
        # jobs sharing one Session) must agree on the golden mapping
        self._golden_lock = threading.Lock()

    @property
    def backend(self) -> str:
        return self._runner.backend

    def close(self) -> None:
        """Release the shared-memory publications (substrates *and*
        golden mappings) held by the underlying sweep runner's store.
        Idempotent; the store is lazily recreated on next use."""
        self._runner.close()

    def __enter__(self) -> "YieldRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def golden_for(
        self,
        netlist: Netlist,
        params: ArchParams,
        seed: int = 0,
        effort: float = 0.3,
        max_iterations: int = POINT_MAX_ITERATIONS,
    ) -> GoldenMapping | None:
        """The cached defect-free mapping for one device configuration.

        Placement comes through the sweep runner's placement cache
        (channel width is invisible to the placer, so spare-width
        curves share one anneal); routing is cached here per
        ``ArchParams``.
        """
        key = (netlist, params, seed, effort, max_iterations)
        with self._golden_lock:
            if key not in self._golden:
                from repro.arch.compiled import flat_rrg_for

                job = SweepJob("yield", 0.0, params, netlist, seed, effort,
                               max_iterations)
                placement = self._runner.placement_for(job)
                self._golden[key] = build_golden(
                    flat_rrg_for(params), netlist, placement, max_iterations,
                )
            return self._golden[key]

    def _golden_cache_key(
        self, netlist, params, seed, effort, max_iterations
    ) -> tuple:
        """The shared-memory publication key for one golden mapping —
        the same identity :meth:`golden_for` caches under, so campaigns
        re-running one configuration reuse the published segment."""
        return (netlist, params, seed, effort, max_iterations)

    def iter_campaign(
        self,
        netlist: Netlist,
        workload: str,
        base: ArchParams,
        rates: Sequence[float],
        trials: int,
        model: str = "uniform",
        seed: int = 0,
        effort: float = 0.3,
        max_iterations: int = POINT_MAX_ITERATIONS,
        cluster_radius: int = CLUSTER_RADIUS,
        cluster_size: int = CLUSTER_SIZE,
        spare_tracks: int = 0,
        telemetry: str | None = None,
    ) -> SizedIterator:
        """Streaming form of :meth:`run_campaign`: yield each
        :class:`YieldPoint` as soon as its ``trials`` results are in.

        All trials (across every rate) are still submitted to the
        backend up front, so parallel backends overlap cells; trial
        results are consumed in submission order, so the aggregated
        rows are bit-identical to the blocking call's.  Sized:
        ``len()`` is the number of campaign points (one per rate).
        """
        rates = list(rates)
        if model not in DEFECT_MODELS:
            raise ValueError(
                f"model must be one of {DEFECT_MODELS}, got {model!r}"
            )
        # every campaign-level field; each trial only replaces its
        # rate, index and defect seed
        template = YieldTrialJob(
            workload=workload, params=base, netlist=netlist,
            defect_rate=0.0, model=model, trial=0, defect_seed=0,
            seed=seed, effort=effort, max_iterations=max_iterations,
            cluster_radius=cluster_radius, cluster_size=cluster_size,
            telemetry=telemetry,
        )
        return SizedIterator(
            self._iter_campaign(template, rates, trials, spare_tracks),
            len(rates),
        )

    def _iter_campaign(self, template, rates, trials, spare_tracks):
        t = template
        golden = self.golden_for(t.netlist, t.params, t.seed, t.effort,
                                 t.max_iterations)
        if golden is None:
            for r in rates:
                yield _unroutable_point(t.workload, t.model, r, t.params,
                                        trials, spare_tracks)
            return
        if trials <= 0:
            for rate in rates:
                yield _aggregate(t.workload, t.model, float(rate), t.params,
                                 [], spare_tracks)
            return
        n_items = len(rates) * trials
        shared = (
            self._runner.backend == "process"
            and self._runner.shared_memory
            and self._runner.pool_width(n_items) > 1
        )
        fan_out = (
            self._iter_trials_shared if shared else self._iter_trials_pickled
        )
        cell: list[TrialResult] = []
        pi = 0
        for tr in fan_out(template, rates, trials, golden):
            cell.append(tr)
            if len(cell) == trials:
                yield _aggregate(t.workload, t.model, float(rates[pi]),
                                 t.params, cell, spare_tracks)
                cell = []
                pi += 1

    @staticmethod
    def _trial_jobs(template, rates, trials) -> list[YieldTrialJob]:
        """The campaign's trial grid, in submission (= aggregation)
        order."""
        return [
            replace(template, defect_rate=float(rate), trial=t,
                    defect_seed=trial_seed(template.seed, pi, t))
            for pi, rate in enumerate(rates)
            for t in range(trials)
        ]

    def _iter_trials_pickled(self, template, rates, trials, golden):
        """Classic fan-out: every item pickles the golden + netlist."""
        items = [
            (job, golden)
            for job in self._trial_jobs(template, rates, trials)
        ]
        return self._runner.iter_items(_evaluate_trial_item, items)

    def _iter_trials_shared(self, template, rates, trials, golden):
        """Process fan-out with the golden mapping, the substrate and
        the campaign's defect masks published over shared memory.

        Each trial item is ``(lean job, golden handle, substrate
        handle, defect handle, batch index)`` — the handles pickle in
        O(1), so per-job payload is a few hundred bytes however large
        the fabric or the golden routes are.  All three segments are
        attached in the pool initializer: one real attach per worker
        process (``repro.arch.shared.attach_count`` pins this in the
        bench).  The defect masks are sampled once, parent-side, in
        submission order — bit-identical to worker-side sampling
        because :meth:`DefectMap.sample` is a pure function of the
        (seed, substrate) pair — and published as one node-mask matrix
        plus ragged defect id lists; workers rebuild each trial's map
        around a zero-copy row view instead of re-sampling and
        re-lowering it.  With a run id, that sampling is one
        ``campaign.sample`` span charged to the first trial, so a
        profile or trace of row 0 shows it.
        """
        from repro.arch.compiled import flat_rrg_for
        from repro.arch.shared import warm_worker

        t = template
        store = self._runner.store()
        golden_handle = store.golden_for(
            self._golden_cache_key(t.netlist, t.params, t.seed, t.effort,
                                   t.max_iterations),
            golden, t.netlist,
        )
        c = flat_rrg_for(t.params)
        substrate_handle = store.substrate_for(c)

        # with a run id, the parent's sampling is a telemetry block of
        # its own (no trial's collector sees it), charged to the first
        # trial so that row 0 carries its span
        sampled: list[dict] = []

        def _sample():
            return [
                DefectMap.sample(
                    c, float(rate), seed=trial_seed(t.seed, pi, i),
                    model=t.model, cluster_radius=t.cluster_radius,
                    cluster_size=t.cluster_size,
                )
                for pi, rate in enumerate(rates)
                for i in range(trials)
            ]

        def _sample_batch():
            if not t.telemetry:
                return _sample()
            tel = Telemetry(t.telemetry)
            with collecting(tel), span("campaign.sample"):
                batch = _sample()
            sampled.append(tel.snapshot())
            return batch

        defect_handle = store.defects_for(
            (t.params, t.model, tuple(float(r) for r in rates), trials,
             t.seed, t.cluster_radius, t.cluster_size),
            _sample_batch,
        )
        jobs = self._trial_jobs(replace(t, netlist=None), rates, trials)
        items = [
            (job, golden_handle, substrate_handle, defect_handle, i)
            for i, job in enumerate(jobs)
        ]
        results = self._runner.iter_items(
            _evaluate_trial_shared, items,
            initializer=warm_worker,
            initargs=((golden_handle, substrate_handle, defect_handle),),
        )
        return _charged_to_first(results, sampled[0]) if sampled \
            else results

    def run_campaign(
        self,
        netlist: Netlist,
        workload: str,
        base: ArchParams,
        rates: Sequence[float],
        trials: int,
        model: str = "uniform",
        seed: int = 0,
        effort: float = 0.3,
        max_iterations: int = POINT_MAX_ITERATIONS,
        cluster_radius: int = CLUSTER_RADIUS,
        cluster_size: int = CLUSTER_SIZE,
        spare_tracks: int = 0,
        telemetry: str | None = None,
    ) -> list[YieldPoint]:
        """N trials per defect rate; one :class:`YieldPoint` per rate.

        ``spare_tracks`` only annotates the rows (spare-width curves
        pass the widened ``base`` themselves via
        :meth:`spare_width_curve`).
        """
        return list(self.iter_campaign(
            netlist, workload, base, rates, trials, model=model,
            seed=seed, effort=effort, max_iterations=max_iterations,
            cluster_radius=cluster_radius, cluster_size=cluster_size,
            spare_tracks=spare_tracks, telemetry=telemetry,
        ))

    def iter_spare_width_curve(
        self,
        netlist: Netlist,
        workload: str,
        base: ArchParams,
        spares: Sequence[int],
        rate: float,
        trials: int,
        model: str = "uniform",
        seed: int = 0,
        effort: float = 0.3,
        max_iterations: int = POINT_MAX_ITERATIONS,
        telemetry: str | None = None,
    ) -> SizedIterator:
        """Streaming form of :meth:`spare_width_curve` (one
        :class:`YieldPoint` per spare width, as each completes).
        Sized: ``len()`` is the number of spare widths."""
        spares = list(spares)
        return SizedIterator(
            self._iter_spare_width_curve(
                netlist, workload, base, spares, rate, trials, model, seed,
                effort, max_iterations, telemetry,
            ),
            len(spares),
        )

    def _iter_spare_width_curve(
        self, netlist, workload, base, spares, rate, trials, model, seed,
        effort, max_iterations, telemetry,
    ):
        for spare in spares:
            params = base.with_(channel_width=base.channel_width + int(spare))
            yield from self.iter_campaign(
                netlist, workload, params, [rate], trials, model=model,
                seed=seed, effort=effort, max_iterations=max_iterations,
                spare_tracks=int(spare), telemetry=telemetry,
            )

    def spare_width_curve(
        self,
        netlist: Netlist,
        workload: str,
        base: ArchParams,
        spares: Sequence[int],
        rate: float,
        trials: int,
        model: str = "uniform",
        seed: int = 0,
        effort: float = 0.3,
        max_iterations: int = POINT_MAX_ITERATIONS,
        telemetry: str | None = None,
    ) -> list[YieldPoint]:
        """Yield vs spare channel width at one defect rate.

        The manufacturing question the subsystem answers: each spare
        point widens every channel by ``spare`` tracks and reruns the
        campaign, so the curve prices redundant routing in yield
        percentage points.  All points share one placement (the placer
        never sees channel width).
        """
        return list(self.iter_spare_width_curve(
            netlist, workload, base, spares, rate, trials, model=model,
            seed=seed, effort=effort, max_iterations=max_iterations,
            telemetry=telemetry,
        ))


def combined_reliability_report(
    yield_points: Sequence[YieldPoint] | None = None,
    decoder_reports: Sequence | None = None,
    soft_error: "object | None" = None,
) -> dict:
    """Compose physical (fabric) and behavioral (configured-device)
    reliability results into one JSON-ready report.

    ``decoder_reports`` takes :class:`repro.core.defects.DecoderFaultReport`
    rows and ``soft_error`` a :class:`repro.core.defects.SoftErrorReport`
    — the old fault layer's outputs, now dict-serializable, so a single
    artifact can cover both halves of the reliability story.
    """
    from repro.core.defects import decoder_campaign_summary

    report: dict = {}
    if yield_points is not None:
        report["physical_yield"] = [pt.to_dict() for pt in yield_points]
    if decoder_reports is not None:
        report["decoder_faults"] = decoder_campaign_summary(decoder_reports)
    if soft_error is not None:
        report["soft_errors"] = soft_error.to_dict()
    return report
