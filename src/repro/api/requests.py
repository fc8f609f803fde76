"""Typed, validated, JSON-serializable requests for the public api.

One frozen dataclass per flow the system runs — :class:`MapRequest`,
:class:`BatchRequest`, :class:`SweepRequest`, :class:`YieldRequest`,
:class:`AreaRequest`, :class:`ReorderRequest` — each carrying a shared
:class:`ExecutionConfig` (backend / workers / seed / effort) and a
versioned ``to_dict()``/``from_dict()`` pair (see
:mod:`repro.api.serialize`).  Validation happens at construction and
raises :class:`~repro.errors.RequestError`, so a bad backend name or a
negative worker count fails before any work is scheduled — uniformly,
where the underlying runners used to each spell their own conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.sweep import (
    SweepJob,
    channel_width_jobs,
    double_fraction_jobs,
    fc_jobs,
)
from repro.api.serialize import check, stamp
from repro.api.workloads import WORKLOADS, check_workload
from repro.arch.params import ArchParams, paper_params
from repro.core.area_model import analytic_pattern_mix, check_contexts
from repro.errors import ArchitectureError, RequestError
from repro.utils import records

#: Backends every grid-shaped request understands.  ``sequential`` is
#: in-process and ordered; ``thread``/``process`` fan out over pools
#: (``workers=None`` = all cores on both — the facade normalizes the
#: historical drift where some runners read ``None`` as "sequential").
BACKENDS = ("sequential", "thread", "process")

#: Sweep axes (the CLI spelling; analytic axes involve no routing).
SWEEP_AXES = ("change-rate", "contexts", "channel-width",
              "double-fraction", "fc")
ANALYTIC_AXES = ("change-rate", "contexts")

#: The grid builder behind each routing sweep axis.
_JOB_BUILDERS = {
    "channel-width": channel_width_jobs,
    "double-fraction": double_fraction_jobs,
    "fc": fc_jobs,
}

#: Spatial defect models a yield campaign accepts.
YIELD_MODELS = ("uniform", "clustered")

#: Default sweep values per axis (``values=None`` resolves to these).
SWEEP_DEFAULTS = {
    "change-rate": (0.0, 0.01, 0.03, 0.05, 0.1, 0.2, 0.5),
    "contexts": (2, 4, 8, 16),
    "channel-width": (4, 6, 8, 10, 12),
    "double-fraction": (0.0, 0.25, 0.5, 0.75),
    "fc": (1.0, 0.5, 0.3),
}


@dataclass(frozen=True)
class ExecutionConfig(records.Record):
    """How a request executes: backend, pool size, seed, effort.

    ``effort=None`` means "the flow's historical default" (0.5 for
    mapping flows, 0.3 for sweep/yield points), so requests that don't
    care inherit exactly the behavior the subsystems always had.
    ``route_workers`` fans the independent contexts of one share-unaware
    mapping job out over threads (share-aware routing reuses earlier
    contexts' routes, a sequential dependency by construction); it is
    independent of ``workers``, which sizes the across-jobs pool.
    Sweep and yield requests route one context per point and ignore it.
    """

    #: names the block in codec errors (it carries no header)
    TYPE_TAG = "execution"

    backend: str = "sequential"
    workers: int | None = None
    seed: int = 0
    effort: float | None = None
    route_workers: int | None = None
    telemetry: bool = False

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise RequestError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.workers is not None and (
            not isinstance(self.workers, int) or self.workers < 1
        ):
            raise RequestError(
                f"workers must be None or a positive int, got {self.workers!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise RequestError(f"seed must be an int, got {self.seed!r}")
        if self.effort is not None and not 0.0 < self.effort <= 1.0:
            raise RequestError(
                f"effort must be in (0, 1] or None, got {self.effort!r}"
            )
        if self.route_workers is not None and (
            not isinstance(self.route_workers, int) or self.route_workers < 1
        ):
            raise RequestError(
                f"route_workers must be None or a positive int, "
                f"got {self.route_workers!r}"
            )
        if not isinstance(self.telemetry, bool):
            raise RequestError(
                f"telemetry must be a bool, got {self.telemetry!r}"
            )

    def effort_or(self, default: float) -> float:
        """The configured effort, or the calling flow's default."""
        return self.effort if self.effort is not None else default


class _Request:
    """Shared plumbing for the request types: the record codec
    (:mod:`repro.utils.records`) under the ``stamp``/``check`` header.

    Subclasses set ``TYPE_TAG``; fields named in ``_TUPLE_FIELDS`` are
    rebuilt as tuples on the way in (JSON only has lists).
    """

    TYPE_TAG = ""
    _TUPLE_FIELDS: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return stamp(self.TYPE_TAG, records.to_dict(self))

    @classmethod
    def from_dict(cls, d: dict):
        return records.from_dict(cls, check(d, cls.TYPE_TAG))


def _check_contexts(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise RequestError(f"contexts must be a positive int, got {n!r}")


def _check_fraction(name: str, v: float) -> None:
    if not 0.0 <= v <= 1.0:
        raise RequestError(f"{name} must be in [0, 1], got {v!r}")


def _model_accepts(check, name: str) -> None:
    """Run ``check()``, the architecture or area model's own validation
    of a value, reporting its :class:`ArchitectureError` as a
    :class:`RequestError` on ``name``."""
    try:
        check()
    except ArchitectureError as exc:
        raise RequestError(f"{name}: {exc}") from None


def _area_device(contexts: int) -> None:
    """Check the Section-5 device at ``contexts`` contexts: the
    architecture's own validation, then the area model's
    (:data:`~repro.core.area_model.MAX_CONTEXTS` caps the count)."""
    paper_params().with_(n_contexts=contexts)
    check_contexts(contexts)


@dataclass(frozen=True)
class MapRequest(_Request):
    """Map one named workload end to end (place + route + verify)."""

    TYPE_TAG = "map_request"

    workload: str = "adder"
    contexts: int = 4
    mutation: float = 0.05
    share_aware: bool = True
    verify: bool = True
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)

    def __post_init__(self) -> None:
        check_workload(self.workload)
        _check_contexts(self.contexts)
        _check_fraction("mutation", self.mutation)


@dataclass(frozen=True)
class BatchRequest(_Request):
    """Map several named workloads through the shared engine."""

    TYPE_TAG = "batch_request"
    _TUPLE_FIELDS = ("workloads",)

    workloads: tuple[str, ...] = ("adder", "crc")
    contexts: int = 4
    mutation: float = 0.05
    share_aware: bool = True
    verify: bool = True
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)

    def __post_init__(self) -> None:
        if not self.workloads:
            raise RequestError("workloads must name at least one workload")
        object.__setattr__(self, "workloads", tuple(self.workloads))
        bad = [w for w in self.workloads if w not in WORKLOADS]
        if bad:
            raise RequestError(
                f"unknown workloads {bad!r} "
                f"(choose from {', '.join(WORKLOADS)})"
            )
        _check_contexts(self.contexts)
        _check_fraction("mutation", self.mutation)


@dataclass(frozen=True)
class SweepRequest(_Request):
    """One design-space or sensitivity sweep.

    ``what`` in :data:`ANALYTIC_AXES` evaluates the area model (no
    routing, so ``workload``/``grid``/``width`` and the execution
    backend are ignored); the routing axes place once per
    placement-relevant configuration and route a grid of device
    variants.
    """

    TYPE_TAG = "sweep_request"
    _TUPLE_FIELDS = ("values",)

    what: str = "change-rate"
    workload: str = "adder"
    grid: int = 6
    width: int = 10
    values: tuple[float, ...] | None = None
    #: collect a per-point phase-timing ``profile`` block on each row
    #: (wall-clock; ignored by analytic axes, which run no phases)
    profile: bool = False
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)

    def __post_init__(self) -> None:
        if not isinstance(self.profile, bool):
            raise RequestError(
                f"profile must be a bool, got {self.profile!r}"
            )
        if self.what not in SWEEP_AXES:
            raise RequestError(
                f"what must be one of {SWEEP_AXES}, got {self.what!r}"
            )
        check_workload(self.workload)
        if self.grid < 1:
            raise RequestError(f"grid must be >= 1, got {self.grid!r}")
        if self.width < 1:
            raise RequestError(f"width must be >= 1, got {self.width!r}")
        if self.values is not None:
            if not self.values:
                raise RequestError("values must be None or non-empty")
            for v in self.values:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise RequestError(
                        f"sweep values must be numbers, got {v!r}"
                    )
                if self.what in ("contexts", "channel-width") \
                        and float(v) != int(v):
                    raise RequestError(
                        f"{self.what} values must be integers, got {v!r}"
                    )
            object.__setattr__(self, "values", tuple(self.values))
        _model_accepts(self._build_points,
                       f"{self.what} values {self.resolved_values()}")

    def _build_points(self) -> None:
        """Build every point's model inputs, so that the area model or
        ``ArchParams`` rejects an out-of-range value here, not mid-run."""
        if self.what == "change-rate":
            # one context: the rate's range check without enumeration
            for rate in self.resolved_values():
                analytic_pattern_mix(rate, 1)
        elif self.what == "contexts":
            for n in self.resolved_values():
                _area_device(n)
        else:
            self.jobs(None)

    @property
    def analytic(self) -> bool:
        return self.what in ANALYTIC_AXES

    def jobs(self, netlist, seed: int = 0,
             effort: float = 0.3) -> list[SweepJob]:
        """The routing grid on ``netlist``: one job per value on a
        ``grid`` x ``grid`` fabric of ``width`` tracks."""
        base = ArchParams(cols=self.grid, rows=self.grid,
                          channel_width=self.width, io_capacity=4)
        return _JOB_BUILDERS[self.what](
            netlist, base, self.resolved_values(), seed=seed, effort=effort,
        )

    def resolved_values(self) -> list:
        """The requested sweep values, or the axis defaults."""
        vals = self.values if self.values is not None \
            else SWEEP_DEFAULTS[self.what]
        cast = int if self.what in ("contexts", "channel-width") else float
        return [cast(v) for v in vals]


@dataclass(frozen=True)
class YieldRequest(_Request):
    """Monte Carlo manufacturing-yield campaign over fabric defects.

    ``spares`` switches the campaign from a defect-rate sweep to a
    yield-vs-spare-track curve at ``rates[0]``.
    """

    TYPE_TAG = "yield_request"
    _TUPLE_FIELDS = ("rates", "spares")

    workload: str = "adder"
    grid: int = 6
    width: int = 8
    rates: tuple[float, ...] = (0.0, 0.01, 0.03)
    trials: int = 8
    model: str = "uniform"
    spares: tuple[int, ...] | None = None
    #: collect a per-cell phase-timing ``profile`` block on each row
    #: (wall-clock, merged across the cell's trials)
    profile: bool = False
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)

    def __post_init__(self) -> None:
        if not isinstance(self.profile, bool):
            raise RequestError(
                f"profile must be a bool, got {self.profile!r}"
            )
        check_workload(self.workload)
        if self.grid < 1:
            raise RequestError(f"grid must be >= 1, got {self.grid!r}")
        if self.width < 1:
            raise RequestError(f"width must be >= 1, got {self.width!r}")
        if not self.rates:
            raise RequestError("rates must name at least one defect rate")
        object.__setattr__(
            self, "rates", tuple(float(r) for r in self.rates)
        )
        if any(r < 0 for r in self.rates):
            raise RequestError(f"defect rates must be >= 0, got {self.rates}")
        if self.trials < 0:
            raise RequestError(f"trials must be >= 0, got {self.trials!r}")
        if self.model not in YIELD_MODELS:
            raise RequestError(
                f"model must be one of {YIELD_MODELS}, got {self.model!r}"
            )
        if self.spares is not None:
            if not self.spares:
                raise RequestError("spares must be None or non-empty")
            object.__setattr__(
                self, "spares", tuple(int(s) for s in self.spares)
            )
            if any(s < 0 for s in self.spares):
                raise RequestError(
                    f"spare widths must be >= 0, got {self.spares}"
                )

    @property
    def campaign(self) -> str:
        return "spare-width" if self.spares is not None else "defect-rate"


@dataclass(frozen=True)
class AreaRequest(_Request):
    """Section-5 area evaluation at one operating point."""

    TYPE_TAG = "area_request"

    change_rate: float = 0.05
    contexts: int = 4
    sharing: float = 2.0
    constants: str = "paper"

    def __post_init__(self) -> None:
        _check_fraction("change_rate", self.change_rate)
        _check_contexts(self.contexts)
        _model_accepts(lambda: _area_device(self.contexts), "contexts")
        if self.sharing <= 0:
            raise RequestError(f"sharing must be > 0, got {self.sharing!r}")
        if self.constants not in ("paper", "textbook"):
            raise RequestError(
                f"constants must be 'paper' or 'textbook', "
                f"got {self.constants!r}"
            )


@dataclass(frozen=True)
class ReorderRequest(_Request):
    """Context-ID reordering optimisation for one mapped workload."""

    TYPE_TAG = "reorder_request"

    workload: str = "adder"
    contexts: int = 4
    mutation: float = 0.15
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)

    def __post_init__(self) -> None:
        check_workload(self.workload)
        _check_contexts(self.contexts)
        _check_fraction("mutation", self.mutation)


#: Source formats an :class:`ImportRequest` accepts (mirrors
#: :data:`repro.netlist.frontend.FORMATS`; duplicated literally so the
#: request layer stays import-light).
IMPORT_FORMATS = ("blif", "verilog")

#: Keys allowed in one :class:`ImportRequest` source mapping.
_SOURCE_KEYS = ("text", "format", "name")


@dataclass(frozen=True)
class ImportRequest(_Request):
    """Import external netlist sources (BLIF / structural Verilog) and
    map them as one multi-context program.

    Each entry of ``sources`` is a mapping with ``text`` (the source
    document), ``format`` (one of :data:`IMPORT_FORMATS`) and an
    optional ``name`` label used in error messages and context stats —
    one source per context.  ``grid=None`` auto-fits the architecture
    to the program; an explicit ``grid`` (plus optional channel
    ``width``) pins it, which is what the regression corpus does so
    goldens survive fit-heuristic changes.
    """

    TYPE_TAG = "import_request"
    _TUPLE_FIELDS = ("sources",)

    sources: tuple[dict, ...] = ()
    name: str | None = None
    k: int = 4
    grid: int | None = None
    width: int | None = None
    share_aware: bool = True
    verify: bool = True
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)

    def __post_init__(self) -> None:
        if not self.sources:
            raise RequestError("sources must name at least one netlist")
        cleaned = []
        for i, source in enumerate(self.sources):
            if not isinstance(source, dict):
                raise RequestError(
                    f"sources[{i}] must be a mapping with 'text' and "
                    f"'format', got {type(source).__name__}"
                )
            unknown = set(source) - set(_SOURCE_KEYS)
            if unknown:
                raise RequestError(
                    f"sources[{i}] has unknown keys {sorted(unknown)} "
                    f"(known: {', '.join(_SOURCE_KEYS)})"
                )
            text = source.get("text")
            if not isinstance(text, str) or not text.strip():
                raise RequestError(
                    f"sources[{i}] needs a non-empty 'text' string"
                )
            fmt = source.get("format")
            if fmt not in IMPORT_FORMATS:
                raise RequestError(
                    f"sources[{i}] format must be one of "
                    f"{IMPORT_FORMATS}, got {fmt!r}"
                )
            label = source.get("name")
            if label is not None and not isinstance(label, str):
                raise RequestError(
                    f"sources[{i}] name must be a string, got {label!r}"
                )
            entry = {"text": text, "format": fmt}
            if label is not None:
                entry["name"] = label
            cleaned.append(entry)
        object.__setattr__(self, "sources", tuple(cleaned))
        if self.name is not None and not isinstance(self.name, str):
            raise RequestError(
                f"name must be a string or None, got {self.name!r}"
            )
        if not isinstance(self.k, int) or isinstance(self.k, bool) \
                or not 2 <= self.k <= 8:
            raise RequestError(
                f"k must be an int in [2, 8], got {self.k!r}"
            )
        if self.grid is not None and (
            not isinstance(self.grid, int) or self.grid < 3
        ):
            raise RequestError(
                f"grid must be None or an int >= 3, got {self.grid!r}"
            )
        if self.width is not None:
            if self.grid is None:
                raise RequestError(
                    "width requires an explicit grid (auto-fit picks "
                    "its own channel width)"
                )
            if not isinstance(self.width, int) or self.width < 1:
                raise RequestError(
                    f"width must be None or a positive int, "
                    f"got {self.width!r}"
                )


def request_total_rows(request) -> int:
    """How many rows :meth:`repro.api.Session.stream` will yield for
    ``request`` — known before any work runs, so progress reporters
    (the job layer's rows-done/rows-total counters) can size their
    denominators up front.
    """
    if isinstance(request, BatchRequest):
        return len(request.workloads)
    if isinstance(request, SweepRequest):
        return len(request.resolved_values())
    if isinstance(request, YieldRequest):
        return len(request.spares) if request.spares is not None \
            else len(request.rates)
    if isinstance(request, (MapRequest, AreaRequest, ReorderRequest,
                            ImportRequest)):
        return 1
    raise RequestError(
        f"unsupported request type {type(request).__name__}"
    )


def request_stage_kind(request) -> str:
    """The stage kind a bare request folds and reports under
    (``map_request`` -> ``map``)."""
    return request.TYPE_TAG[: -len("_request")]


#: Type tag -> request class, for generic deserialization.
REQUEST_TYPES = {
    cls.TYPE_TAG: cls
    for cls in (MapRequest, BatchRequest, SweepRequest, YieldRequest,
                AreaRequest, ReorderRequest, ImportRequest)
}


def request_from_dict(d: dict):
    """Deserialize any request payload by its ``type`` tag."""
    if not isinstance(d, dict) or "type" not in d:
        raise RequestError("request payload needs a 'type' tag")
    cls = REQUEST_TYPES.get(d["type"])
    if cls is None:
        raise RequestError(
            f"unknown request type {d['type']!r} "
            f"(known: {sorted(REQUEST_TYPES)})"
        )
    return cls.from_dict(d)
