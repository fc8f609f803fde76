"""repro.fleet — distributed job execution over the serving contract.

The fleet layer turns one ``repro serve`` coordinator plus N
``repro worker`` processes into a pull-based job fleet speaking
nothing but the api's versioned JSON contract:

- :class:`Scheduler` — priority queue with per-client quotas and
  backpressure, replacing the bare thread-pool hand-off
  (:mod:`repro.fleet.scheduler`);
- :class:`LeaseTable` / :class:`Lease` — TTL-bounded job ownership
  by remote workers; a dead worker's lease expires and its job requeues
  (:mod:`repro.fleet.leases`);
- :class:`Journal` — append-only NDJSON write-ahead log making the
  coordinator crash-safe (:mod:`repro.fleet.journal`);
- :class:`TokenAuth` — static bearer tokens gating submit/lease
  (:mod:`repro.fleet.auth`);
- :class:`FleetWorker` / :func:`iter_task_events` — the worker engine,
  shared by remote HTTP workers and the child processes of the
  coordinator's ``executor="process"`` mode (which hold no lease) so
  every executor produces bit-identical rows
  (:mod:`repro.fleet.worker`);
- :func:`artifact_index` / :func:`gc_artifacts` — results-dir
  retention (:mod:`repro.fleet.gc`).
"""

from repro.fleet.auth import Client, TokenAuth
from repro.fleet.gc import (
    ArtifactEntry,
    GCReport,
    artifact_index,
    gc_artifacts,
)
from repro.fleet.journal import JOURNAL_NAME, Journal, pending_submissions
from repro.fleet.leases import Lease, LeaseTable
from repro.fleet.scheduler import Scheduler
from repro.fleet.worker import (
    FleetWorker,
    iter_task_events,
    process_job_main,
    worker_main,
)

__all__ = [
    "ArtifactEntry",
    "Client",
    "FleetWorker",
    "GCReport",
    "JOURNAL_NAME",
    "Journal",
    "Lease",
    "LeaseTable",
    "Scheduler",
    "TokenAuth",
    "artifact_index",
    "gc_artifacts",
    "iter_task_events",
    "pending_submissions",
    "process_job_main",
    "worker_main",
]
