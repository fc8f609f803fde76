"""Monte Carlo manufacturing-yield campaigns on the compiled engine.

The experiment the subsystem exists for: sample N defective dies per
``(defect rate, device)`` cell, climb the repair ladder on each, and
report what fraction of dies still maps the workload — plus what the
survivors paid in wirelength/critical path, and how much yield a spare
routing track buys.

Execution rides the sweep subsystem's one pool loop
(:meth:`repro.analysis.sweep.SweepRunner.iter_items`): trials are
picklable ``(YieldTrialJob, GoldenMapping)`` items fanned out
sequentially, over a thread pool, or over a ``ProcessPoolExecutor``.
Determinism is by construction identical across backends: every
trial's defect seed is derived in the parent from ``(campaign seed,
point index, trial index)`` via ``numpy``'s ``SeedSequence``, the
golden mapping is computed once in the parent and shipped with each
job, each die is sampled inside the trial that repairs it, and
worker-side substrates are pure functions of ``ArchParams`` through
the ``flat_rrg_for`` cache — so a campaign's :class:`YieldPoint` rows
are bit-identical whichever backend ran them.

:meth:`YieldRunner.iter_campaign` is the one entry: it streams one row
per rate (``list(...)`` is the blocking form), and a spare-width curve
is one campaign per widened channel width.  Telemetry rides the same
pool loop: given a run id, the loop collects each trial's spans and
counters inside its worker, and each row's ``metrics`` merges its
trials' snapshots; trial jobs and results carry no instrumentation.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.utils.records import Record
from repro.utils.telemetry import merge_metrics, span

from repro.arch.compiled import flat_rrg_for
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


@dataclass
class TrialResult:
    """One trial's outcome (kept small so process backends ship cheap)."""

    trial: int
    outcome: RepairOutcome
    wirelength_overhead: float = 0.0
    critical_path_overhead: float = 0.0

    def to_dict(self) -> dict:
        d = self.outcome.to_dict()
        d["trial"] = self.trial
        d["wirelength_overhead"] = self.wirelength_overhead
        d["critical_path_overhead"] = self.critical_path_overhead
        return d


def evaluate_trial(job: YieldTrialJob, golden: GoldenMapping) -> TrialResult:
    """Sample the die, run the repair ladder, measure the cost.

    Runs in whichever worker the backend chose: the substrate comes
    from the per-process ``flat_rrg_for`` cache (no per-trial RRG
    build), and the defect sample depends only on the job's seed.
    """
    c = flat_rrg_for(job.params)
    with span("trial.sample"):
        dm = DefectMap.sample(
            c, job.defect_rate, seed=job.defect_seed, model=job.model,
            cluster_radius=job.cluster_radius, cluster_size=job.cluster_size,
        )
    with span("trial.repair"):
        outcome = repair_mapping(
            c, job.netlist, golden, dm,
            seed=job.seed, effort=job.effort,
            max_iterations=job.max_iterations,
        )
    wl, cp = outcome.overheads(golden)
    return TrialResult(job.trial, outcome, wl, cp)


def _evaluate_trial_item(item: tuple[YieldTrialJob, GoldenMapping]) -> TrialResult:
    """Top-level single-argument adapter (process pools need picklable
    callables; ``iter_items`` feeds one item per call)."""
    job, golden = item
    return evaluate_trial(job, golden)


@dataclass
class YieldPoint(Record):
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


def _aggregate(
    workload: str,
    model: str,
    rate: float,
    params: ArchParams,
    results: Sequence[TrialResult],
    spare_tracks: int = 0,
    snapshots: Sequence[dict | None] = (),
) -> YieldPoint:
    """Fold N trial results (and their telemetry snapshots, if any)
    into one :class:`YieldPoint` row."""
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
        metrics=merge_metrics(snapshots),
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
        backend: str = "sequential",
        workers: int | None = None,
        runner: SweepRunner | None = None,
    ) -> None:
        #: an explicit ``runner`` shares its placement cache with the
        #: caller (the api ``Session`` passes its sweep runner, so a
        #: yield stage reuses the anneal a sweep stage already paid for)
        self._runner = runner if runner is not None else SweepRunner(
            backend=backend, workers=workers
        )
        self._golden: dict[tuple, GoldenMapping | None] = {}
        # single-flight get-or-create: concurrent campaigns (service
        # jobs sharing one Session) must agree on the golden mapping
        self._golden_lock = threading.Lock()

    @property
    def backend(self) -> str:
        return self._runner.backend

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
                job = SweepJob("yield", 0.0, params, netlist, seed, effort,
                               max_iterations)
                placement = self._runner.placement_for(job)
                self._golden[key] = build_golden(
                    flat_rrg_for(params), netlist, placement, max_iterations,
                )
            return self._golden[key]

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
        run_id: str | None = None,
    ):
        """N trials per defect rate, yielding one :class:`YieldPoint`
        per rate as soon as its ``trials`` results are in.

        All trials (across every rate) are submitted to the backend up
        front, so parallel backends overlap cells; trial results are
        consumed in submission order, so the rows are bit-identical
        whichever backend ran them (``list(...)`` is the blocking
        form).  ``spare_tracks`` only annotates the rows: a spare-width
        curve widens ``base`` itself and runs one campaign per width.
        Under a ``run_id`` each row's ``metrics`` merges its trials'
        telemetry snapshots.  An unknown ``model`` raises
        :class:`ValueError` here, before any row is asked for.
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
        )
        return self._iter_campaign(template, rates, trials, spare_tracks,
                                   run_id)

    def _iter_campaign(self, template, rates, trials, spare_tracks, run_id):
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
        # the campaign's trial grid, in submission (= aggregation) order
        items = [
            (replace(t, defect_rate=float(rate), trial=i,
                     defect_seed=trial_seed(t.seed, pi, i)), golden)
            for pi, rate in enumerate(rates)
            for i in range(trials)
        ]
        cell: list[TrialResult] = []
        snapshots: list[dict | None] = []
        pi = 0
        for tr, snapshot in self._runner.iter_items(
                _evaluate_trial_item, items, run_id):
            cell.append(tr)
            snapshots.append(snapshot)
            if len(cell) == trials:
                yield _aggregate(t.workload, t.model, float(rates[pi]),
                                 t.params, cell, spare_tracks, snapshots)
                cell, snapshots = [], []
                pi += 1


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
