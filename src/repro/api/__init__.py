"""repro.api — the unified public surface of the reproduction.

Everything the system can do is reachable through three concepts:

- **Typed requests/results** (:mod:`repro.api.requests`,
  :mod:`repro.api.results`): frozen dataclasses with a shared
  :class:`ExecutionConfig` and one versioned JSON contract
  (``schema_version`` + ``to_dict``/``from_dict`` round trip).
- **The Session facade** (:mod:`repro.api.session`):
  ``Session.run(request)`` dispatches any request;
  ``Session.stream(request)`` yields rows incrementally (bit-identical
  to the blocking call); caches (compiled substrates, placements,
  golden mappings, netlists) are shared across everything a session
  runs.
- **Declarative specs** (:mod:`repro.api.spec`): an
  :class:`ExperimentSpec` JSON document names a workload, an
  architecture and a list of stages; ``Session.run_spec`` executes it
  with cross-stage cache sharing.

Quick taste::

    from repro.api import Session, SweepRequest, ExecutionConfig

    s = Session()
    result = s.run(SweepRequest(what="channel-width", workload="crc",
                                grid=6, values=(6, 8, 10),
                                execution=ExecutionConfig(backend="process")))
    for pt in result.points:
        print(pt.value, pt.routed, pt.wirelength)

The CLI (``python -m repro``) is a thin shell over this package, and
``repro run spec.json`` executes spec files directly.
"""

from repro.api.requests import (
    ANALYTIC_AXES,
    BACKENDS,
    SWEEP_AXES,
    SWEEP_DEFAULTS,
    YIELD_MODELS,
    AreaRequest,
    BatchRequest,
    ExecutionConfig,
    IMPORT_FORMATS,
    ImportRequest,
    MapRequest,
    ReorderRequest,
    REQUEST_TYPES,
    SweepRequest,
    YieldRequest,
    request_from_dict,
    request_total_rows,
)
from repro.api.results import (
    AreaResult,
    BatchResult,
    ImportResult,
    MapResult,
    ReorderResult,
    ReportResult,
    RESULT_TYPES,
    SpecResult,
    SweepResult,
    YieldResult,
    result_from_dict,
)
from repro.api.serialize import SCHEMA_VERSION
from repro.api.session import (
    Session,
    build_report,
    stage_rows,
)
from repro.api.spec import GRID_AXES, STAGES, ExperimentSpec
from repro.api.workloads import WORKLOADS, build_circuit, build_program

__all__ = [
    "ANALYTIC_AXES",
    "AreaRequest",
    "AreaResult",
    "BACKENDS",
    "BatchRequest",
    "BatchResult",
    "ExecutionConfig",
    "ExperimentSpec",
    "GRID_AXES",
    "IMPORT_FORMATS",
    "ImportRequest",
    "ImportResult",
    "MapRequest",
    "MapResult",
    "REQUEST_TYPES",
    "RESULT_TYPES",
    "ReorderRequest",
    "ReorderResult",
    "ReportResult",
    "SCHEMA_VERSION",
    "STAGES",
    "SWEEP_AXES",
    "SWEEP_DEFAULTS",
    "Session",
    "SpecResult",
    "SweepRequest",
    "SweepResult",
    "WORKLOADS",
    "YIELD_MODELS",
    "YieldRequest",
    "YieldResult",
    "build_circuit",
    "build_program",
    "build_report",
    "request_from_dict",
    "request_total_rows",
    "result_from_dict",
    "stage_rows",
]
