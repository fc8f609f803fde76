"""The record codec (``repro.utils.records``) every payload goes through.

Pins the JSON bytes of the job-status and artifact-retention payloads
(no golden fixture covers them), and checks over every record type that
a payload's keys follow the field order, that it round-trips through
JSON, and that an unknown key is rejected by name.
"""

import json
import os
from dataclasses import fields

import pytest

from repro.analysis.sweep import AreaPoint, SweepPoint
from repro.api import (
    AreaRequest,
    BatchRequest,
    ExecutionConfig,
    ImportRequest,
    MapRequest,
    ReorderRequest,
    SweepRequest,
    YieldRequest,
    result_from_dict,
)
from repro.errors import RequestError
from repro.fleet.gc import ArtifactEntry, GCReport
from repro.reliability.yield_runner import YieldPoint
from repro.service.jobs import JobStatus

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "api",
                          "golden")

TRACEBACK = ('Traceback (most recent call last):\n'
             '  File "jobs.py", line 1, in _execute\n'
             'repro.errors.RoutingError: unroutable even at W=24\n')

#: (record, its ``json.dumps(to_dict())`` bytes as first written by the
#: hand-spelled serializers these types had before the codec)
PINNED = [
    (JobStatus("job-000007", "request", "map_request", "failed", 0, 1,
               stage="map", error="unroutable even at W=24",
               error_type="RoutingError", traceback=TRACEBACK, priority=1,
               retries=2),
     '{"schema_version": 1, "type": "job_status", "job_id": "job-000007", '
     '"kind": "request", "name": "map_request", "state": "failed", '
     '"rows_done": 0, "rows_total": 1, "stage": "map", '
     '"error": "unroutable even at W=24", "error_type": "RoutingError", '
     '"traceback": "Traceback (most recent call last):\\n  File '
     '\\"jobs.py\\", line 1, in _execute\\nrepro.errors.RoutingError: '
     'unroutable even at W=24\\n", "children": [], "priority": 1, '
     '"retries": 2}'),
    (JobStatus("job-000003", "grid", "grid-spec", "running", 2, 6,
               children=("job-000004", "job-000005")),
     '{"schema_version": 1, "type": "job_status", "job_id": "job-000003", '
     '"kind": "grid", "name": "grid-spec", "state": "running", '
     '"rows_done": 2, "rows_total": 6, "stage": null, "error": null, '
     '"error_type": null, "traceback": null, '
     '"children": ["job-000004", "job-000005"], "priority": 0, '
     '"retries": 0}'),
    (JobStatus("job-000001", "spec", "demo", "done", 4, 4, stage="report"),
     '{"schema_version": 1, "type": "job_status", "job_id": "job-000001", '
     '"kind": "spec", "name": "demo", "state": "done", "rows_done": 4, '
     '"rows_total": 4, "stage": "report", "error": null, '
     '"error_type": null, "traceback": null, "children": [], '
     '"priority": 0, "retries": 0}'),
    (ArtifactEntry("spec", "demo", "specs/demo", 3, 2048, 1760000000.25),
     '{"kind": "spec", "name": "demo", "relpath": "specs/demo", '
     '"files": 3, "bytes": 2048, "mtime": 1760000000.25}'),
    (ArtifactEntry("request", "map_request-0a1b",
                   "requests/map_request-0a1b.json", 1, 512, 1760000100.5),
     '{"kind": "request", "name": "map_request-0a1b", '
     '"relpath": "requests/map_request-0a1b.json", "files": 1, '
     '"bytes": 512, "mtime": 1760000100.5}'),
    (GCReport(scanned=5, deleted=2, kept=3, bytes_freed=2560, dry_run=True,
              removed=["specs/old", "requests/map_request-0a1b.json"]),
     '{"scanned": 5, "deleted": 2, "kept": 3, "bytes_freed": 2560, '
     '"dry_run": true, "removed": ["specs/old", '
     '"requests/map_request-0a1b.json"]}'),
    (GCReport(),
     '{"scanned": 0, "deleted": 0, "kept": 0, "bytes_freed": 0, '
     '"dry_run": false, "removed": []}'),
]


def _golden_records():
    """Every result in the api golden fixtures, and the rows nested in
    them."""
    out = []
    for name in sorted(os.listdir(GOLDEN_DIR)):
        if name.endswith("_result.json"):
            with open(os.path.join(GOLDEN_DIR, name)) as fh:
                result = result_from_dict(json.load(fh))
            out.append(result)
            for nested in ("points", "results", "stages"):
                out.extend(getattr(result, nested, ()))
    return out


BLIF = ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"

RECORDS = [
    ExecutionConfig(),
    ExecutionConfig(backend="thread", workers=2, seed=3, effort=0.4,
                    route_workers=2, telemetry=True),
    MapRequest(workload="crc", execution=ExecutionConfig(telemetry=True)),
    BatchRequest(workloads=("adder", "cmp")),
    SweepRequest(what="fc", values=(1.0, 0.5), profile=True),
    SweepRequest(what="contexts"),
    YieldRequest(spares=(0, 2), rates=(0.05,)),
    AreaRequest(),
    ReorderRequest(),
    ImportRequest(sources=({"text": BLIF, "format": "blif", "name": "t"},),
                  grid=4, width=6),
    SweepPoint("channel_width", 8, True, 40, 3.5, 2,
               profile={"route": 0.01}, metrics={"counters": {"a": 1}}),
    SweepPoint("fc", 0.3, False),
    AreaPoint("n_contexts", 4, 0.44, 0.37),
    YieldPoint("adder", "uniform", 0.02, 8, 4, 0.75, {"none": 3},
               profile={"trial.repair": 0.2}),
    *_golden_records(),
    *(record for record, _ in PINNED),
]

#: Blocks a payload leaves out while they hold their "off" value.
OFF = {"metrics": None, "profile": None, "telemetry": False}


def _ids(record):
    return type(record).__name__


@pytest.mark.parametrize("record,pinned", PINNED,
                         ids=[_ids(r) for r, _ in PINNED])
def test_pinned_bytes(record, pinned):
    assert json.dumps(record.to_dict()) == pinned


@pytest.mark.parametrize("record", RECORDS, ids=_ids)
def test_keys_follow_field_order(record):
    keys = [k for k in record.to_dict() if k not in ("schema_version", "type")]
    assert keys == [
        f.name for f in fields(record)
        if f.compare and not (f.name in OFF
                              and getattr(record, f.name) is OFF[f.name])
    ]


@pytest.mark.parametrize("record", RECORDS, ids=_ids)
def test_json_round_trip(record):
    wire = json.loads(json.dumps(record.to_dict()))
    assert type(record).from_dict(wire) == record


@pytest.mark.parametrize("record", RECORDS, ids=_ids)
def test_unknown_key_named(record):
    payload = dict(record.to_dict(), bogus_key=1)
    with pytest.raises(RequestError, match="bogus_key"):
        type(record).from_dict(payload)


def test_null_execution_reads_as_default():
    payload = dict(MapRequest().to_dict(), execution=None)
    assert MapRequest.from_dict(payload) == MapRequest()


def test_missing_required_field_is_a_request_error():
    with pytest.raises(RequestError, match="malformed SweepPoint"):
        SweepPoint.from_dict({"axis": "fc", "value": 0.3})
