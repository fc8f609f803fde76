"""Typed, JSON-serializable results matching the api's request types.

Each ``*Result`` carries exactly the machine-readable fields the three
old ad-hoc JSON shapes (``cli.py``'s hand-rolled dicts, ``sweep.py``'s
and ``yield_runner.py``'s row dicts) used to spell separately, behind
one versioned ``to_dict()``/``from_dict()`` contract.  Heavyweight
in-memory artifacts (the mapped program and its statistics, the
area-model comparison objects) ride along in ``compare=False`` fields
so table renderers can reach them, but they never serialize and never
affect equality — the round-trip contract ``from_dict(to_dict(x)) == x``
holds for every type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.sweep import AreaPoint, SweepPoint
from repro.api.serialize import check, stamp
from repro.errors import RequestError
from repro.reliability.yield_runner import YieldPoint
from repro.utils import records


class _Result:
    """Shared plumbing (mirror of ``_Request``): the record codec under
    the ``stamp``/``check`` header; ``compare=False`` fields never
    serialize."""

    TYPE_TAG = ""
    _TUPLE_FIELDS: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return stamp(self.TYPE_TAG, records.to_dict(self))

    @classmethod
    def from_dict(cls, d: dict):
        return records.from_dict(cls, check(d, cls.TYPE_TAG))


def _with_rows(result, name: str) -> dict:
    """``result``'s stamped payload with each nested row of field
    ``name`` written through its own ``to_dict``, in the field's slot."""
    payload = records.to_dict(result)
    payload[name] = [row.to_dict() for row in getattr(result, name)]
    return stamp(result.TYPE_TAG, payload)


@dataclass(frozen=True)
class MapResult(_Result):
    """Outcome of mapping one workload (also the per-workload row of a
    :class:`BatchResult`)."""

    TYPE_TAG = "map_result"
    _TUPLE_FIELDS = ("grid", "luts_per_context", "route_iterations")

    workload: str
    grid: tuple[int, int]
    contexts: int
    luts_per_context: tuple[int, ...]
    verified: bool
    share_aware: bool
    wirelength: int
    route_iterations: tuple[int, ...]
    reuse_fraction: float
    switch_change_rate: float
    class_fractions: dict
    #: merged telemetry block; ``None`` unless telemetry was on
    metrics: dict | None = None
    #: the in-memory mapped program and its bitstream statistics, for
    #: table renderers and downstream stages; never serialized.
    mapped: object | None = field(default=None, compare=False, repr=False)
    stats: object | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_mapped(cls, workload: str, mapped, stats,
                    verified: bool) -> "MapResult":
        """Build from a :class:`MappedProgram` and its
        :class:`~repro.core.bitstream.BitstreamStats`."""
        return cls(
            workload=workload,
            grid=(mapped.params.cols, mapped.params.rows),
            contexts=mapped.program.n_contexts,
            luts_per_context=tuple(
                len(nl.luts()) for nl in mapped.program.contexts
            ),
            verified=verified,
            share_aware=mapped.share_aware,
            wirelength=sum(
                rr.wirelength(mapped.rrg) for rr in mapped.routes
            ),
            route_iterations=tuple(rr.iterations for rr in mapped.routes),
            reuse_fraction=mapped.reuse_fraction(),
            switch_change_rate=stats.switch.change_fraction(),
            class_fractions={
                str(k): v for k, v in stats.class_fractions().items()
            },
            mapped=mapped,
            stats=stats,
        )


@dataclass(frozen=True)
class BatchResult(_Result):
    """One :class:`MapResult` per requested workload, in request order."""

    TYPE_TAG = "batch_result"

    results: tuple[MapResult, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "results", tuple(self.results))

    def to_dict(self) -> dict:
        return _with_rows(self, "results")

    @classmethod
    def from_dict(cls, d: dict) -> "BatchResult":
        return records.from_dict(cls, check(d, cls.TYPE_TAG),
                                 rows={"results": MapResult.from_dict})


@dataclass(frozen=True)
class SweepResult(_Result):
    """Rows of one sweep: :class:`~repro.analysis.sweep.SweepPoint` for
    routing axes, :class:`~repro.analysis.sweep.AreaPoint` for the
    analytic ones.  ``sweep``/``workload``/``grid``/``backend`` mirror
    the request so the payload is self-describing."""

    TYPE_TAG = "sweep_result"
    _TUPLE_FIELDS = ("grid",)

    sweep: str
    workload: str | None
    grid: tuple[int, int] | None
    backend: str
    points: tuple
    metrics: dict | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))

    def to_dict(self) -> dict:
        return _with_rows(self, "points")

    @classmethod
    def from_dict(cls, d: dict) -> "SweepResult":
        from repro.api.requests import ANALYTIC_AXES

        check(d, cls.TYPE_TAG)
        row = AreaPoint if d.get("sweep") in ANALYTIC_AXES else SweepPoint
        return records.from_dict(cls, d, rows={"points": row.from_dict})


@dataclass(frozen=True)
class YieldResult(_Result):
    """Rows of one Monte Carlo yield campaign
    (:class:`~repro.reliability.yield_runner.YieldPoint` per cell)."""

    TYPE_TAG = "yield_result"
    _TUPLE_FIELDS = ("grid",)

    campaign: str
    workload: str
    grid: tuple[int, int]
    model: str
    trials: int
    backend: str
    points: tuple
    metrics: dict | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))

    def to_dict(self) -> dict:
        return _with_rows(self, "points")

    @classmethod
    def from_dict(cls, d: dict) -> "YieldResult":
        return records.from_dict(cls, check(d, cls.TYPE_TAG),
                                 rows={"points": YieldPoint.from_dict})


@dataclass(frozen=True)
class AreaResult(_Result):
    """Section-5 comparison: per-technology area breakdown dicts
    (the same shape the CLI's ``area --json`` always printed)."""

    TYPE_TAG = "area_result"

    change_rate: float
    contexts: int
    sharing_factor: float
    constants: str
    technologies: dict
    #: the AreaComparison objects behind ``technologies``, for table
    #: renderers; never serialized.
    comparisons: dict | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ReorderResult(_Result):
    """Context-ID reordering outcome for one workload."""

    TYPE_TAG = "reorder_result"
    _TUPLE_FIELDS = ("schedule",)

    workload: str
    contexts: int
    cost_before: int
    cost_after: int
    saving: float
    schedule: tuple[int, ...]
    #: merged telemetry block; ``None`` unless telemetry was on
    metrics: dict | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedule", tuple(self.schedule))


@dataclass(frozen=True)
class ReportResult(_Result):
    """Cross-stage summary a spec's ``report`` stage emits."""

    TYPE_TAG = "report_result"

    summary: dict


@dataclass(frozen=True)
class SpecResult(_Result):
    """Everything one :class:`~repro.api.spec.ExperimentSpec` run
    produced: the typed result of every stage, in spec order."""

    TYPE_TAG = "spec_result"

    name: str
    workload: str
    stages: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))

    def to_dict(self) -> dict:
        return _with_rows(self, "stages")

    @classmethod
    def from_dict(cls, d: dict) -> "SpecResult":
        return records.from_dict(cls, check(d, cls.TYPE_TAG),
                                 rows={"stages": result_from_dict})


@dataclass(frozen=True)
class ImportResult(_Result):
    """Outcome of importing and mapping external netlist sources.

    ``contexts`` carries one stats dict per imported source (name,
    format, and the tech-mapped netlist's inputs/outputs/luts/dffs/
    depth/nets).  The serialized form of this result is exactly what
    the regression corpus pins as golden JSON.
    """

    TYPE_TAG = "import_result"
    _TUPLE_FIELDS = ("contexts", "grid", "route_iterations")

    name: str
    contexts: tuple[dict, ...]
    grid: tuple[int, int]
    n_contexts: int
    verified: bool
    share_aware: bool
    wirelength: int
    critical_path: float
    route_iterations: tuple[int, ...]
    reuse_fraction: float
    #: merged telemetry block; ``None`` unless telemetry was on
    metrics: dict | None = None
    #: the full in-memory mapped program, for downstream consumers;
    #: never serialized.
    mapped: object | None = field(default=None, compare=False,
                                  repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "contexts", tuple(self.contexts))

    @classmethod
    def from_mapped(cls, name: str, contexts_meta, mapped,
                    verified: bool) -> "ImportResult":
        """Build from a :class:`MappedProgram` plus the per-context
        metadata :func:`repro.netlist.frontend.load_program` emits."""
        from repro.route.timing import critical_path

        worst = max(
            critical_path(mapped.rrg, mapped.program.contexts[i],
                          mapped.routes[i], mapped.placements[i])
            for i in range(mapped.program.n_contexts)
        )
        return cls(
            name=name,
            contexts=tuple(dict(m) for m in contexts_meta),
            grid=(mapped.params.cols, mapped.params.rows),
            n_contexts=mapped.program.n_contexts,
            verified=verified,
            share_aware=mapped.share_aware,
            wirelength=sum(
                rr.wirelength(mapped.rrg) for rr in mapped.routes
            ),
            critical_path=worst,
            route_iterations=tuple(
                rr.iterations for rr in mapped.routes
            ),
            reuse_fraction=mapped.reuse_fraction(),
            mapped=mapped,
        )


#: Type tag -> result class, for generic deserialization.
RESULT_TYPES = {
    cls.TYPE_TAG: cls
    for cls in (MapResult, BatchResult, SweepResult, YieldResult,
                AreaResult, ReorderResult, ReportResult, SpecResult,
                ImportResult)
}


def result_from_dict(d: dict):
    """Deserialize any result payload by its ``type`` tag."""
    if not isinstance(d, dict) or "type" not in d:
        raise RequestError("result payload needs a 'type' tag")
    cls = RESULT_TYPES.get(d["type"])
    if cls is None:
        raise RequestError(
            f"unknown result type {d['type']!r} "
            f"(known: {sorted(RESULT_TYPES)})"
        )
    return cls.from_dict(d)
