"""The `Session` facade: one object, every flow, shared caches.

A :class:`Session` owns one :class:`~repro.analysis.sweep.SweepRunner`
per (backend, workers) configuration (placement cache included), the
reliability layer's golden-mapping caches, and a netlist cache keyed by
workload name; compiled substrates are shared process-wide through
:func:`~repro.arch.compiled.compiled_rrg_for`.  So any mix of requests
executed through it shares every expensive artifact the subsystems know
how to share.  Three entry points:

- :meth:`Session.stream` — execute any typed request (dispatch on
  request type), yielding its rows incrementally: sweep points, yield
  points and batch rows are yielded as they complete (in request
  order);
- :meth:`Session.run` — the blocking form: the fold of the streamed
  rows into the request's typed result (:meth:`Session.fold_stage`),
  so both forms agree by construction;
- :meth:`Session.run_spec` / :meth:`Session.stream_spec` — execute a
  declarative :class:`~repro.api.spec.ExperimentSpec` stage by stage,
  with caching shared *across* stages (one substrate build per device,
  the yield stage's golden mapping reuses the sweep stage's placement).

The CLI is a thin shell over this module; external harnesses should
target it directly (requests and results all have versioned
``to_dict``/``from_dict``).
"""

from __future__ import annotations

import threading
from dataclasses import replace

from repro.analysis.engine import map_job
from repro.analysis.experiments import (
    MappedProgram,
    map_program,
    verify_mapped,
)
from repro.analysis.sweep import (
    SweepRunner,
    run_item,
    sweep_change_rate_points,
    sweep_contexts_points,
)
from repro.api.requests import (
    AreaRequest,
    BatchRequest,
    ExecutionConfig,
    ImportRequest,
    MapRequest,
    ReorderRequest,
    SweepRequest,
    YieldRequest,
    request_stage_kind,
)
from repro.api.results import (
    AreaResult,
    BatchResult,
    ImportResult,
    MapResult,
    ReorderResult,
    ReportResult,
    SpecResult,
    SweepResult,
    YieldResult,
)
from repro.api.spec import ExperimentSpec
from repro.api.workloads import build_circuit, build_program
from repro.arch.compiled import compiled_rrg_for
from repro.arch.params import ArchParams
from repro.errors import RequestError
from repro.reliability.yield_runner import YieldRunner
from repro.utils.telemetry import (
    GLOBAL,
    merge_metrics,
    new_run_id,
    phase_totals,
    span,
)

#: Historical per-flow effort defaults (``ExecutionConfig.effort=None``).
MAP_EFFORT = 0.5
POINT_EFFORT = 0.3


def _single(compute):
    """The stream handler of a single-shot request: ``compute`` its one
    result, under one collector when the request has a run id, and
    yield it."""

    def handler(session, req, run_id):
        result, snapshot = run_item(
            lambda r: compute(session, r), req, run_id)
        yield _fold_metrics(result, merge_metrics([snapshot]))

    return handler


def _fold_metrics(row, block, profile: bool = False,
                  telemetry: bool = True):
    """``row`` with its telemetry ``block`` turned into what the
    request asked for: a ``profile`` table of its spans when
    profiling, and the ``metrics`` block (its counters merged into
    :data:`GLOBAL`, so ``/v1/metrics`` sums across workers) only when
    telemetry is on.  ``row`` itself when there is no block."""
    if block is None:
        return row
    changes = {"metrics": block if telemetry else None}
    if profile:
        changes["profile"] = phase_totals(block)
    if telemetry:
        GLOBAL.merge_counters(block.get("counters"))
    return replace(row, **changes)


def _checked(mapped, seed: int, verify: bool):
    """``(stats, verified)`` of one mapping, traced as ``map.stats``
    and ``map.verify``."""
    with span("map.stats"):
        stats = mapped.stats()
    verified = False
    if verify:
        with span("map.verify"):
            verified = verify_mapped(mapped, seed=seed)
    return stats, verified


class Session:
    """Facade over the whole system; see the module docstring."""

    def __init__(self) -> None:
        self._circuits: dict[str, object] = {}
        self._programs: dict[tuple, object] = {}
        self._sweep_runners: dict[tuple, SweepRunner] = {}
        self._yield_runners: dict[tuple, YieldRunner] = {}
        # one lock for every get-or-create cache: concurrent requests
        # (the service layer's job workers share one Session) must
        # receive the *same* cached object for equal keys — the sweep
        # placement cache keys on netlist identity, so a duplicated
        # build would silently fork the downstream caches
        self._cache_lock = threading.RLock()

    # -- shared caches ------------------------------------------------------ #
    def circuit(self, workload: str):
        """The (cached) tech-mapped netlist for a named workload.

        Caching matters beyond build time: the sweep placement cache
        keys on netlist *identity*, so two stages asking for the same
        workload must receive the same object to share an anneal.
        """
        with self._cache_lock:
            nl = self._circuits.get(workload)
            if nl is None:
                GLOBAL.inc("session.cache.misses", cache="circuit")
                nl = build_circuit(workload)
                self._circuits[workload] = nl
            else:
                GLOBAL.inc("session.cache.hits", cache="circuit")
            return nl

    def program(self, workload: str, contexts: int, mutation: float,
                seed: int):
        """The (cached) multi-context program for a named workload."""
        key = (workload, contexts, mutation, seed)
        with self._cache_lock:
            prog = self._programs.get(key)
            if prog is None:
                GLOBAL.inc("session.cache.misses", cache="program")
                prog = build_program(workload, contexts, mutation, seed,
                                     base=self.circuit(workload))
                self._programs[key] = prog
            else:
                GLOBAL.inc("session.cache.hits", cache="program")
            return prog

    def sweep_runner(self, config: ExecutionConfig | None = None
                     ) -> SweepRunner:
        """The session's sweep runner for one backend configuration
        (placement cache shared across every request that uses it)."""
        config = config if config is not None else ExecutionConfig()
        key = (config.backend, config.workers)
        with self._cache_lock:
            runner = self._sweep_runners.get(key)
            if runner is None:
                GLOBAL.inc("session.cache.misses", cache="sweep_runner")
                runner = SweepRunner(backend=config.backend,
                                     workers=config.workers)
                self._sweep_runners[key] = runner
            else:
                GLOBAL.inc("session.cache.hits", cache="sweep_runner")
            return runner

    def yield_runner(self, config: ExecutionConfig | None = None
                     ) -> YieldRunner:
        """The session's yield runner for one backend configuration —
        rides the matching sweep runner, so golden mappings reuse
        placements that sweep stages already computed."""
        config = config if config is not None else ExecutionConfig()
        key = (config.backend, config.workers)
        with self._cache_lock:
            runner = self._yield_runners.get(key)
            if runner is None:
                GLOBAL.inc("session.cache.misses", cache="yield_runner")
                runner = YieldRunner(runner=self.sweep_runner(config))
                self._yield_runners[key] = runner
            else:
                GLOBAL.inc("session.cache.hits", cache="yield_runner")
            return runner

    # -- dispatch ----------------------------------------------------------- #
    def run(self, request):
        """Execute any typed request, blocking; returns its result type
        (the :meth:`fold_stage` of the rows :meth:`stream` yields)."""
        rows = list(self.stream(request))
        return self.fold_stage(request_stage_kind(request), request, rows)

    def stream(self, request):
        """Execute a request, yielding rows incrementally.

        Sweep requests yield their points, yield requests their
        campaign cells, batch requests one :class:`MapResult` per
        workload; single-shot requests (map, area, reorder, import)
        yield their one result.  Rows arrive in request order and are
        what :meth:`run` folds into its result.

        A request with ``execution.telemetry`` (or a ``profile``) gets
        one run id, and every row it yields carries the telemetry
        block of the work behind it.
        """
        handler = self._STREAM.get(type(request))
        if handler is None:
            raise RequestError(
                f"unsupported request type {type(request).__name__}"
            )
        cfg = getattr(request, "execution", None)
        traced = (cfg is not None and cfg.telemetry) \
            or getattr(request, "profile", False)
        return handler(self, request, new_run_id() if traced else None)

    # -- map / batch -------------------------------------------------------- #
    def _map(self, req: MapRequest) -> MapResult:
        cfg = req.execution
        program = self.program(req.workload, req.contexts, req.mutation,
                               cfg.seed)
        mapped = map_program(
            program, share_aware=req.share_aware, seed=cfg.seed,
            effort=cfg.effort_or(MAP_EFFORT),
            route_workers=cfg.route_workers,
        )
        stats, verified = _checked(mapped, cfg.seed, req.verify)
        return MapResult.from_mapped(req.workload, mapped, stats, verified)

    def _stream_batch(self, req: BatchRequest, run_id):
        # every backend rides the sweep runner's pool loop: the whole
        # batch is submitted up front and rows are yielded as they
        # complete, in request order; each (params, placements, routes)
        # result is re-bound to this process's cached substrate, and
        # each row's block merges its pool item's snapshot with the
        # parent-side stats/verify spans
        cfg = req.execution
        programs = [
            self.program(w, req.contexts, req.mutation, cfg.seed)
            for w in req.workloads
        ]
        items = [
            (program, req.share_aware, cfg.seed, cfg.effort_or(MAP_EFFORT),
             cfg.route_workers)
            for program in programs
        ]
        mapped = self.sweep_runner(cfg).iter_items(map_job, items, run_id)
        for w, program, ((params, placements, routes), snapshot) in zip(
            req.workloads, programs, mapped
        ):
            m = MappedProgram(program, params, placements, routes,
                              compiled_rrg_for(params), req.share_aware)
            (stats, verified), checked = run_item(
                lambda m: _checked(m, cfg.seed, req.verify), m, run_id)
            row = MapResult.from_mapped(w, m, stats, verified)
            yield _fold_metrics(row, merge_metrics([snapshot, checked]))

    # -- sweep -------------------------------------------------------------- #
    def _sweep_result(self, req: SweepRequest, points) -> SweepResult:
        if req.analytic:
            return SweepResult(sweep=req.what, workload=None, grid=None,
                               backend="sequential", points=tuple(points))
        # result-level roll-up: counter sums + one span track per
        # worker pid, merged from the rows' blocks (``None`` unless
        # telemetry was on)
        return SweepResult(
            sweep=req.what, workload=req.workload,
            grid=(req.grid, req.grid), backend=req.execution.backend,
            points=tuple(points),
            metrics=merge_metrics(pt.metrics for pt in points),
        )

    def _stream_sweep(self, req: SweepRequest, run_id):
        if req.analytic:
            points = sweep_change_rate_points if req.what == "change-rate" \
                else sweep_contexts_points
            yield from points(req.resolved_values())
            return
        cfg = req.execution
        jobs = req.jobs(self.circuit(req.workload), seed=cfg.seed,
                        effort=cfg.effort_or(POINT_EFFORT))
        for pt in self.sweep_runner(cfg).iter_run(jobs, run_id):
            yield _fold_metrics(pt, pt.metrics, req.profile, cfg.telemetry)

    # -- yield -------------------------------------------------------------- #
    def _yield_result(self, req: YieldRequest, points) -> YieldResult:
        return YieldResult(
            campaign=req.campaign, workload=req.workload,
            grid=(req.grid, req.grid), model=req.model, trials=req.trials,
            backend=req.execution.backend, points=tuple(points),
            metrics=merge_metrics(pt.metrics for pt in points),
        )

    def _stream_yield(self, req: YieldRequest, run_id):
        cfg = req.execution
        netlist = self.circuit(req.workload)
        base = ArchParams(
            cols=req.grid, rows=req.grid, channel_width=req.width,
            io_capacity=4,
        )
        runner = self.yield_runner(cfg)
        # a spare-width curve is one single-rate campaign per widened
        # channel width; all of them share one placement (the placer
        # never sees channel width)
        campaigns = [(base, list(req.rates), 0)] if req.spares is None else [
            (base.with_(channel_width=base.channel_width + spare),
             [req.rates[0]], spare)
            for spare in req.spares
        ]
        for params, rates, spare in campaigns:
            for pt in runner.iter_campaign(
                netlist, req.workload, params, rates, req.trials,
                model=req.model, seed=cfg.seed,
                effort=cfg.effort_or(POINT_EFFORT), spare_tracks=spare,
                run_id=run_id,
            ):
                yield _fold_metrics(pt, pt.metrics, req.profile,
                                    cfg.telemetry)

    # -- area / reorder ----------------------------------------------------- #
    def _area(self, req: AreaRequest) -> AreaResult:
        from repro.core.area_model import AreaConstants, AreaModel

        constants = (
            AreaConstants.paper_calibrated() if req.constants == "paper"
            else AreaConstants.textbook()
        )
        comparisons = AreaModel(constants).paper_operating_points(
            change_rate=req.change_rate, n_contexts=req.contexts,
            sharing_factor=req.sharing,
        )
        technologies = {
            name: {
                "ratio": cmp.ratio,
                "proposed": {
                    "switch_area": cmp.proposed.switch_area,
                    "lut_area": cmp.proposed.lut_area,
                    "overhead_area": cmp.proposed.overhead_area,
                    "total": cmp.proposed.total,
                },
                "conventional": {
                    "switch_area": cmp.conventional.switch_area,
                    "lut_area": cmp.conventional.lut_area,
                    "overhead_area": cmp.conventional.overhead_area,
                    "total": cmp.conventional.total,
                },
            }
            for name, cmp in comparisons.items()
        }
        return AreaResult(
            change_rate=req.change_rate, contexts=req.contexts,
            sharing_factor=req.sharing, constants=req.constants,
            technologies=technologies, comparisons=comparisons,
        )

    def _reorder(self, req: ReorderRequest) -> ReorderResult:
        from repro.core.reorder import optimize_context_order

        cfg = req.execution
        program = self.program(req.workload, req.contexts, req.mutation,
                               cfg.seed)
        mapped = map_program(
            program, seed=cfg.seed, effort=cfg.effort_or(MAP_EFFORT),
            route_workers=cfg.route_workers,
        )
        with span("map.stats"):
            masks = list(mapped.stats().switch.used.values())
        result = optimize_context_order(masks, req.contexts)
        return ReorderResult(
            workload=req.workload, contexts=req.contexts,
            cost_before=result.cost_before, cost_after=result.cost_after,
            saving=result.saving,
            schedule=tuple(result.physical_schedule()),
        )

    # -- import ------------------------------------------------------------- #
    def _import(self, req: ImportRequest) -> ImportResult:
        from repro.netlist.frontend import arch_for, load_program

        cfg = req.execution
        program, metas = load_program(req.sources, k=req.k,
                                      name=req.name)
        params = None
        if req.grid is not None:
            params = arch_for(program, req.grid, width=req.width,
                              k=req.k)
        mapped = map_program(
            program, params, share_aware=req.share_aware,
            seed=cfg.seed, effort=cfg.effort_or(MAP_EFFORT),
            route_workers=cfg.route_workers,
        )
        verified = False
        if req.verify:
            with span("map.verify"):
                verified = verify_mapped(mapped, seed=cfg.seed)
        return ImportResult.from_mapped(program.name, metas, mapped,
                                        verified)

    # -- specs -------------------------------------------------------------- #
    def iter_spec_events(self, spec: ExperimentSpec,
                         completed: "dict[int, object] | None" = None):
        """The event stream every spec entry point drains.

        Yields 4-tuples ``(kind, index, name, item)`` — ``kind`` is
        ``"row"`` (one per streamed row) or ``"result"`` (one per
        completed stage, carrying the folded typed result), ``index``
        is the stage's position in the spec and ``name`` its unique
        stage name (see :meth:`ExperimentSpec.stage_names`).  The
        blocking result is the concatenation of the streamed rows by
        construction.

        ``completed`` maps stage indices to already-computed results
        (the service layer passes artifacts loaded from a previous
        run): those stages *replay* their rows from the stored result
        instead of recomputing — streams stay bit-identical across a
        resume, and downstream ``report`` stages summarize the loaded
        results exactly as if they had just run.
        """
        completed = completed or {}
        names = spec.stage_names()
        collected: list = []
        for index, (stage, request) in enumerate(spec.requests()):
            name = names[index]
            if index in completed:
                loaded = completed[index]
                for item in stage_rows(loaded):
                    yield "row", index, name, item
                collected.append(loaded)
                yield "result", index, name, loaded
                continue
            if stage == "report":
                report = build_report(spec, collected)
                collected.append(report)
                yield "row", index, name, report
                yield "result", index, name, report
                continue
            points = []
            for item in self.stream(request):
                points.append(item)
                yield "row", index, name, item
            folded = self.fold_stage(stage, request, points)
            collected.append(folded)
            yield "result", index, name, folded

    def stream_spec(self, spec: ExperimentSpec):
        """Execute a spec stage by stage, yielding ``(stage, item)``
        pairs: every streamed row of every stage, with each stage's
        folded result available to later stages (the ``report`` stage
        yields its :class:`ReportResult`).  Collecting the rows per
        stage reproduces :meth:`run_spec` bit-identically.
        """
        kinds = [s["stage"] for s in spec.stages]
        for kind, index, _name, item in self.iter_spec_events(spec):
            if kind == "row":
                yield kinds[index], item

    def run_spec(self, spec: ExperimentSpec) -> SpecResult:
        """Execute a spec, blocking; one typed result per stage."""
        results = [
            item for kind, _index, _name, item in self.iter_spec_events(spec)
            if kind == "result"
        ]
        return SpecResult(name=spec.name, workload=spec.workload,
                          stages=tuple(results))

    def fold_stage(self, stage: str, request, points):
        """Fold one stage's streamed rows into its typed result.

        ``stage`` is the stage kind (``"map"``/``"batch"``/...; see
        :func:`~repro.api.requests.request_stage_kind`); :meth:`run`
        and the service layer's bare request jobs fold their rows
        through it.
        """
        if stage == "batch":
            return BatchResult(results=tuple(points))
        if stage == "sweep":
            return self._sweep_result(request, points)
        if stage == "yield":
            return self._yield_result(request, points)
        # single-shot stages (map, area, reorder, import) stream their
        # one result
        return points[0]

    _STREAM = {
        MapRequest: _single(_map),
        BatchRequest: _stream_batch,
        SweepRequest: _stream_sweep,
        YieldRequest: _stream_yield,
        AreaRequest: _single(_area),
        ReorderRequest: _single(_reorder),
        ImportRequest: _single(_import),
    }


def stage_payload(result) -> "tuple[str, dict] | None":
    """(stage kind, summary payload) for one stage result.

    The single per-result-type summarizer behind both the spec
    ``report`` stage and the CLI's human stage lines, so the two can
    never drift apart.  Returns ``None`` for result types with no
    summary (e.g. a nested :class:`ReportResult`).
    """
    if isinstance(result, MapResult):
        return "map", {
            "grid": list(result.grid),
            "verified": result.verified,
            "wirelength": result.wirelength,
            "reuse_fraction": result.reuse_fraction,
        }
    if isinstance(result, BatchResult):
        return "batch", {
            "workloads": [r.workload for r in result.results],
            "all_verified": all(r.verified for r in result.results),
        }
    if isinstance(result, SweepResult):
        payload: dict = {"axis": result.sweep, "points": len(result.points)}
        routed = [pt.routed for pt in result.points
                  if hasattr(pt, "routed")]
        if routed:  # analytic axes have no routing verdicts
            payload["routed"] = sum(1 for r in routed if r)
        return "sweep", payload
    if isinstance(result, YieldResult):
        ys = [pt.yield_fraction for pt in result.points]
        return "yield", {
            "campaign": result.campaign,
            "points": len(result.points),
            "min_yield": min(ys) if ys else 0.0,
            "max_yield": max(ys) if ys else 0.0,
        }
    if isinstance(result, ReorderResult):
        return "reorder", {
            "cost_before": result.cost_before,
            "cost_after": result.cost_after,
            "saving": result.saving,
        }
    if isinstance(result, ImportResult):
        return "import", {
            "name": result.name,
            "contexts": result.n_contexts,
            "grid": list(result.grid),
            "verified": result.verified,
            "wirelength": result.wirelength,
            "critical_path": result.critical_path,
        }
    return None


def stage_rows(result) -> list:
    """The streamed rows one stage result folds from (the inverse of
    :meth:`Session.fold_stage`) — what a resumed job replays so its
    event stream stays bit-identical to a fresh run's."""
    if isinstance(result, BatchResult):
        return list(result.results)
    if isinstance(result, (SweepResult, YieldResult)):
        return list(result.points)
    return [result]


def build_report(spec: ExperimentSpec, results) -> ReportResult:
    """Summarize the stages that ran before a ``report`` stage."""
    summary: dict = {
        "spec": spec.name,
        "workload": spec.workload,
        "stages_run": [],
    }
    for res in results:
        named = stage_payload(res)
        if named is None:
            continue
        kind, payload = named
        # repeated stage kinds get numbered keys (sweep, sweep_2, ...)
        # instead of silently overwriting the earlier one
        summary["stages_run"].append(kind)
        key, n = kind, 1
        while key in summary:
            n += 1
            key = f"{kind}_{n}"
        summary[key] = payload
    return ReportResult(summary=summary)
