"""Job-oriented execution: submit, observe, cancel, keep the artifacts.

The blocking facade (`Session.run`) answers "run this and wait"; this
module answers the serving-layer question — "run this *for me*, tell
me how it's going, let me walk away".  A :class:`JobManager` accepts
any typed api request or an :class:`~repro.api.ExperimentSpec`
(object or JSON payload) and returns a :class:`JobHandle`:

- :meth:`JobHandle.status` — queued/running/done/failed/cancelled plus
  progress counters (rows done / rows total, current stage), known
  up front from the request itself (`request_total_rows`);
- :meth:`JobHandle.events` — the job's event log as an iterator:
  replayed from the start, then live; one ``row`` event per streamed
  row carrying exactly the payload ``Session.stream`` yields, so a
  drained event stream is bit-identical to the blocking result;
- :meth:`JobHandle.result` — block for the typed result;
- :meth:`JobHandle.cancel` — stop between rows.

Admission goes through a :class:`~repro.fleet.Scheduler` — a priority
queue (per-submission ``priority``, FIFO within class) with
per-client quotas and a bounded depth — instead of a bare thread-pool
hand-off.  Execution is pluggable via ``executor``:

- ``"thread"`` (default): dispatcher threads run jobs on the one
  shared :class:`Session`, so concurrent jobs share every expensive
  cached artifact (compiled substrates, placements, golden mappings);
- ``"process"``: each job runs in a fresh child process that streams
  the same wire events a remote fleet worker would POST;
- ``"external"``: no local execution at all; jobs wait for remote
  ``repro worker`` processes to pull them via :meth:`lease_job` /
  :meth:`apply_worker_events` (the HTTP fleet endpoints).

All three run one engine (:func:`repro.fleet.worker.iter_job_events`;
both local executors drain it in one loop, :meth:`JobManager._execute`)
and commit its events through one method, :meth:`JobManager._commit`
— the only place the job layer dispatches on event kind — so a job's
event log, artifacts and result do not depend on the executor.  Every
state change is checked against :data:`NEXT_STATES`.  The job and
lease gauges (``jobs.queue_depth``, ``jobs.running``,
``jobs.retained``, ``fleet.leases.active``) are read from live state
when ``/v1/metrics`` is scraped (:meth:`JobManager.gauges`).

Leases make remote execution crash-safe: a worker that stops posting
events misses its TTL, the lease expires, and the job requeues with a
bounded retry budget; local jobs are watched directly and hold none.
With an artifact ``store`` attached the manager also journals every
top-level submission and state transition
(:class:`~repro.fleet.Journal`), so :meth:`recover` on a restarted
coordinator resubmits whatever was in flight — with ``resume=True``,
replaying finished stages from the store instead of recomputing.

Grid specs (:attr:`ExperimentSpec.is_grid`) fan out into one child
job per cell under a parent handle that aggregates progress and
results.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time
from dataclasses import dataclass

from repro.api import ExperimentSpec, Session
from repro.api.requests import (
    REQUEST_TYPES,
    request_stage_kind,
    request_total_rows,
)
from repro.api.serialize import stamp
from repro.errors import JobCancelled, JobError, JobNotFound, ReproError
from repro.fleet.journal import JOURNAL_NAME, Journal, pending_submissions
from repro.fleet.leases import LeaseTable
from repro.fleet.scheduler import Scheduler
from repro.fleet.worker import (
    decode_event,
    error_event,
    format_traceback,
    iter_job_events,
    process_job_main,
    task_from_dict,
)
from repro.utils import records
from repro.utils.telemetry import GLOBAL

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job never leaves.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: Which states may follow each live state (running -> queued is a
#: remote job's lease expiring).
NEXT_STATES = {
    QUEUED: (RUNNING, CANCELLED),
    RUNNING: (QUEUED, DONE, FAILED, CANCELLED),
}

#: Supported execution backends for locally-dispatched jobs.
EXECUTORS = ("thread", "process", "external")


@dataclass(frozen=True)
class JobStatus(records.Record):
    """One observable snapshot of a job."""

    TYPE_TAG = "job_status"
    _TUPLE_FIELDS = ("children",)

    job_id: str
    kind: str                      # "request" | "spec" | "grid"
    name: str                      # request type tag or spec name
    state: str
    rows_done: int
    rows_total: int
    stage: "str | None" = None     # current/last stage name
    error: "str | None" = None
    error_type: "str | None" = None    # exception class name
    traceback: "str | None" = None     # formatted traceback text
    children: tuple = ()           # child job ids (grid parents only)
    priority: int = 0
    retries: int = 0               # lease-expiry requeues so far

    def to_dict(self) -> dict:
        return stamp(self.TYPE_TAG, records.to_dict(self))


class _Job:
    """Internal mutable job record (guarded by its condition)."""

    def __init__(self, job_id: str, kind: str, name: str, payload,
                 resume: bool, rows_total: int,
                 parent: "_Job | None" = None, priority: int = 0,
                 client: "str | None" = None) -> None:
        self.job_id = job_id
        self.kind = kind
        self.name = name
        self.payload = payload
        self.resume = resume
        self.rows_total = rows_total
        self.parent = parent
        self.priority = priority
        self.client = client
        self.children: list[_Job] = []
        self.cond = threading.Condition()
        self.state = QUEUED
        self.rows_done = 0
        self.stage: str | None = None
        self.result = None
        self.error: BaseException | None = None
        self.events: list[dict] = []
        self.cancel_event = threading.Event()
        self.retries = 0
        #: rows this attempt streamed; below ``rows_done`` a retry
        #: re-streams rows the log already holds
        self.attempt_rows = 0
        self.lease = None
        self.submitted_at = time.perf_counter()
        self.finished_at: float | None = None


def _steady(row):
    """A row without its wall-clock fields, which differ by attempt."""
    if isinstance(row, dict):
        return {k: v for k, v in row.items()
                if k not in ("profile", "metrics")}
    return row


def _check_move(job: _Job, state: str) -> None:
    if state not in NEXT_STATES.get(job.state, ()):
        raise JobError(f"job {job.job_id} cannot go from {job.state} "
                       f"to {state}")


def _child_events(job_id: str, doc: dict):
    """Run the task document ``doc`` in a spawned child, yielding its
    decoded wire events (a heartbeat per idle 0.1 s poll); a child that
    ends without a result raises :class:`JobError`."""
    # spawn, not fork: a child forked while a dispatcher or HTTP
    # thread holds a lock (a module import, the metrics registry)
    # would wait on it forever
    ctx = multiprocessing.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=process_job_main, args=(send, doc),
                       name=f"repro-fleet-{job_id}", daemon=True)
    proc.start()
    send.close()
    try:
        while True:
            if recv.poll(0.1):
                try:
                    yield decode_event(recv.recv())
                except EOFError as exc:
                    raise JobError(f"worker process for {job_id} closed "
                                   f"its pipe without a result") from exc
            elif not proc.is_alive():
                raise JobError(f"worker process for {job_id} died "
                               f"(exit code {proc.exitcode})")
            else:
                yield {"event": "heartbeat"}
    finally:
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=10.0)
        recv.close()


class JobHandle:
    """The caller's view of one submitted job."""

    def __init__(self, manager: "JobManager", job: _Job) -> None:
        self._manager = manager
        self._job = job

    @property
    def job_id(self) -> str:
        return self._job.job_id

    def status(self) -> JobStatus:
        """A snapshot of the job's state and progress counters."""
        return self._manager._status_of(self._job)

    def cancel(self) -> bool:
        """Ask the job to stop; ``True`` if it was still cancellable."""
        # straight to the record: a handle outlives the manager's
        # retention window, and its job may be pruned from the table
        return self._manager._cancel_job(self._job)

    def wait(self, timeout: "float | None" = None) -> JobStatus:
        """Block until the job is terminal (or ``timeout`` elapses)."""
        job = self._job
        with job.cond:
            job.cond.wait_for(lambda: job.state in TERMINAL_STATES,
                              timeout=timeout)
        return self.status()

    def result(self, timeout: "float | None" = None):
        """The job's typed result; raises what the job raised.

        :class:`~repro.errors.JobCancelled` for a cancelled job,
        :class:`~repro.errors.JobError` on timeout, the job's own
        exception for a failed one.
        """
        job = self._job
        with job.cond:
            if not job.cond.wait_for(
                lambda: job.state in TERMINAL_STATES, timeout=timeout
            ):
                raise JobError(
                    f"job {job.job_id} still {job.state} after {timeout}s"
                )
            if job.state == CANCELLED:
                raise JobCancelled(f"job {job.job_id} was cancelled")
            if job.state == FAILED:
                raise job.error
            return job.result

    def events(self, timeout: "float | None" = None):
        """Iterate the job's event log: full replay, then live.

        Yields every event from sequence 0 and keeps following until
        the job's terminal ``done`` event — so a late subscriber sees
        exactly what an early one did.  ``timeout`` bounds the wait
        *between* events (:class:`~repro.errors.JobError` on expiry),
        not the total stream duration.
        """
        job = self._job
        seq = 0
        while True:
            with job.cond:
                if not job.cond.wait_for(
                    lambda: len(job.events) > seq
                    or job.state in TERMINAL_STATES,
                    timeout=timeout,
                ):
                    raise JobError(
                        f"no event from job {job.job_id} within {timeout}s"
                    )
                batch = job.events[seq:]
                seq = len(job.events)
                # the terminal event is appended atomically with the
                # state flip, so terminal + drained means the `done`
                # event is in `batch` (or already yielded)
                finished = job.state in TERMINAL_STATES and \
                    seq == len(job.events)
            yield from batch
            if finished:
                return


class JobManager:
    """Scheduled execution of api requests and specs as jobs.

    ``workers`` bounds local concurrency (dispatcher threads pulling
    from the scheduler); ``executor`` picks how dispatched jobs run
    (``"thread"`` on the shared ``session``, ``"process"`` in a fresh
    process per job, ``"external"`` not at all — remote workers lease
    them instead).  ``store`` (an
    :class:`~repro.service.artifacts.ArtifactStore`) enables artifact
    persistence, ``resume=True`` and — unless ``journal=False`` —
    the crash journal behind :meth:`recover`.  ``max_queue``,
    ``quotas`` and per-submission ``priority`` are scheduler policy;
    ``lease_ttl``/``max_retries`` govern fleet leases.
    """

    def __init__(self, session: "Session | None" = None, workers: int = 2,
                 store=None, retain: int = 512, executor: str = "thread",
                 lease_ttl: float = 30.0, max_retries: int = 3,
                 max_queue: int = 1024,
                 quotas: "dict[str, int] | None" = None,
                 journal: bool = True) -> None:
        if not isinstance(workers, int) or workers < 1:
            raise JobError(f"workers must be a positive int, got {workers!r}")
        if not isinstance(retain, int) or retain < 1:
            raise JobError(f"retain must be a positive int, got {retain!r}")
        if executor not in EXECUTORS:
            raise JobError(f"executor must be one of {EXECUTORS}, "
                           f"got {executor!r}")
        if not (isinstance(lease_ttl, (int, float)) and lease_ttl > 0):
            raise JobError(f"lease_ttl must be positive, got {lease_ttl!r}")
        if not isinstance(max_retries, int) or max_retries < 0:
            raise JobError(
                f"max_retries must be a non-negative int, got {max_retries!r}"
            )
        self.session = session if session is not None else Session()
        self.store = store
        self.workers = workers
        self.executor = executor
        self.lease_ttl = float(lease_ttl)
        self.max_retries = max_retries
        #: terminal jobs kept in the table (a long-lived server must
        #: not hold every finished job's event log forever); the
        #: oldest-*finished* jobs are pruned past this count.
        self.retain = retain
        self._scheduler = Scheduler(max_queue=max_queue, quotas=quotas)
        self._leases = LeaseTable()
        self._journal: "Journal | None" = None
        if store is not None and journal:
            self._journal = Journal(store.root / JOURNAL_NAME)
        self._jobs: dict[str, _Job] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False
        self._stop = threading.Event()
        self._monitor: "threading.Thread | None" = None
        self._dispatchers: list[threading.Thread] = []
        if executor != "external":
            for i in range(workers):
                thread = threading.Thread(
                    target=self._dispatch_loop,
                    name=f"repro-job-{i}", daemon=True,
                )
                thread.start()
                self._dispatchers.append(thread)

    # -- scheduler passthroughs ---------------------------------------------- #
    @property
    def scheduler(self) -> Scheduler:
        return self._scheduler

    @property
    def leases(self) -> LeaseTable:
        return self._leases

    @property
    def journal(self) -> "Journal | None":
        return self._journal

    def queue_depth(self) -> int:
        return self._scheduler.depth()

    def gauges(self) -> "dict[str, int]":
        """The job and lease gauges, read from live state: the
        scheduler's depth, the job table, the lease table (what
        ``/v1/metrics`` exposes)."""
        with self._lock:
            jobs = list(self._jobs.values())
        return {
            "jobs.queue_depth": self.queue_depth(),
            "jobs.running": sum(job.state == RUNNING for job in jobs),
            "jobs.retained": len(jobs),
            "fleet.leases.active": self._leases.active(),
        }

    # -- submission ---------------------------------------------------------- #
    def submit(self, task, *, resume: bool = False, priority: int = 0,
               client: "str | None" = None,
               _job_id: "str | None" = None) -> JobHandle:
        """Submit a request or spec for execution; returns its handle.

        ``task`` may be a typed request, an :class:`ExperimentSpec`,
        or either one's JSON payload (dispatched on the ``type`` tag /
        a ``stages`` key — what the HTTP layer posts).  Grid specs fan
        out into one child job per cell under an aggregating parent
        handle.  ``resume=True`` requires the manager's artifact store
        and replays already-completed stages from it.

        ``priority`` orders dispatch (higher first, FIFO within a
        class); ``client`` attributes the job for quota accounting.
        Raises :class:`~repro.errors.QueueFull` /
        :class:`~repro.errors.QuotaExceeded` when the scheduler
        refuses admission.
        """
        task = self._coerce(task)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise JobError(f"priority must be an int, got {priority!r}")
        if resume and self.store is None:
            raise JobError(
                "resume needs an artifact store: construct the "
                "JobManager with store=ArtifactStore(results_dir)"
            )
        with self._lock:
            if self._closed:
                raise JobError("manager is shut down")
        if isinstance(task, ExperimentSpec) and task.is_grid:
            return self._submit_grid(task, resume, priority, client,
                                     _job_id)
        return self._submit_one(task, resume, parent=None,
                                priority=priority, client=client,
                                job_id=_job_id)

    @staticmethod
    def _coerce(task):
        return task_from_dict(task) if isinstance(task, dict) else task

    def _new_id(self, job_id: "str | None" = None) -> str:
        return job_id if job_id is not None else f"job-{next(self._ids)}"

    def _register(self, job: _Job) -> None:
        with self._lock:
            self._jobs[job.job_id] = job
        GLOBAL.inc("jobs.submitted", kind=job.kind)
        self._journal_submit(job)

    def _create_job(self, task, resume: bool, parent: "_Job | None",
                    priority: int = 0, client: "str | None" = None,
                    job_id: "str | None" = None) -> _Job:
        if isinstance(task, ExperimentSpec):
            kind, name, total = "spec", task.name, task.total_rows()
        elif type(task) in REQUEST_TYPES.values():
            kind, name, total = "request", task.TYPE_TAG, \
                request_total_rows(task)
        else:
            raise JobError(f"unsupported task type {type(task).__name__}")
        job = _Job(self._new_id(job_id), kind, name, task, resume, total,
                   parent=parent, priority=priority, client=client)
        if parent is not None:
            parent.children.append(job)
        return job

    def _admit(self, job: _Job, *, force: bool) -> None:
        """Emit ``queued``, push to the scheduler, register.

        The status event precedes the push so a dispatcher that grabs
        the job instantly still logs ``queued`` before ``running``;
        on a scheduler refusal (:class:`~repro.errors.QueueFull`) the
        quota charge is returned and nothing was registered.
        """
        self._emit(job, {"event": "status", "state": QUEUED})
        try:
            self._scheduler.push(job, priority=job.priority, force=force)
        except JobError:
            self._scheduler.release(job.client)
            raise
        self._register(job)

    def _submit_one(self, task, resume: bool, parent: "_Job | None",
                    priority: int = 0, client: "str | None" = None,
                    job_id: "str | None" = None) -> JobHandle:
        job = self._create_job(task, resume, parent, priority, client,
                               job_id)
        if parent is None:
            self._scheduler.charge(client)
            self._admit(job, force=False)
        else:
            # a grid child was admitted with its parent: capacity and
            # quota were the parent's to pay
            self._admit(job, force=True)
        return JobHandle(self, job)

    def _submit_grid(self, spec: ExperimentSpec, resume: bool,
                     priority: int = 0, client: "str | None" = None,
                     job_id: "str | None" = None) -> JobHandle:
        children = spec.expand()
        self._scheduler.charge(client)
        parent = _Job(self._new_id(job_id), "grid", spec.name, spec,
                      resume, sum(c.total_rows() for c in children),
                      priority=priority, client=client)
        # every child record joins parent.children before the parent is
        # visible and before any child is pushed: neither a fast first
        # child nor an early cancel may let _maybe_finish_grid conclude
        # the whole grid is done
        jobs = [self._create_job(child_spec, resume, parent,
                                 priority=priority)
                for child_spec in children]
        self._emit(parent, {"event": "status", "state": QUEUED})
        self._register(parent)
        self._move(parent, RUNNING)
        for job in jobs:
            self._admit(job, force=True)
        if parent.cancel_event.is_set():  # cancelled mid-submission
            self._cancel_job(parent)
        return JobHandle(self, parent)

    # -- journal ------------------------------------------------------------- #
    def _journal_append(self, record: dict) -> None:
        if self._journal is None:
            return
        try:
            self._journal.append(record)
        except OSError:
            pass  # a full disk must not take the coordinator down

    def _journal_submit(self, job: _Job) -> None:
        if job.parent is not None:  # children replay via their parent
            return
        self._journal_append({
            "event": "submit", "job_id": job.job_id,
            "kind": job.kind, "name": job.name,
            "task": job.payload.to_dict(),
            "priority": job.priority, "client": job.client,
            "resume": job.resume,
        })

    def _journal_state(self, job: _Job, state: str) -> None:
        if job.parent is not None:
            return
        self._journal_append({"event": "state", "job_id": job.job_id,
                              "state": state})

    def recover(self) -> "list[JobHandle]":
        """Resubmit every journaled job that never went terminal.

        The crash-restart half of the journal: replays the results
        dir's ``journal.ndjson``, fast-forwards the id counter past
        everything ever issued, and resubmits pending top-level jobs
        under their original ids with ``resume=True`` — so finished
        stages come back from the :class:`ArtifactStore` instead of
        recomputing.  Returns the recovered handles (empty without a
        journal).  Never called implicitly: a fresh manager over an
        old results dir stays inert until the server entry point asks.
        """
        if self._journal is None:
            return []
        next_id, pending = pending_submissions(self._journal.replay())
        with self._lock:
            self._ids = itertools.count(next_id)
        handles = []
        for record in pending:
            task = record.get("task")
            if not isinstance(task, dict):
                continue
            try:
                priority = int(record.get("priority") or 0)
            except (TypeError, ValueError):
                continue  # a priority int() refuses, e.g. "high"
            try:
                handles.append(self.submit(
                    task, resume=self.store is not None,
                    priority=priority, _job_id=record.get("job_id"),
                ))
            except ReproError:
                continue  # a malformed journal entry loses one job,
                #           not the restart
        if handles:
            GLOBAL.inc("fleet.jobs.recovered", value=len(handles))
        return handles

    # -- observation --------------------------------------------------------- #
    def handle(self, job_id: str) -> JobHandle:
        """The handle for a known job id (:class:`JobNotFound`
        otherwise — including jobs already pruned by ``retain``)."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFound(f"unknown job id {job_id!r}")
        return JobHandle(self, job)

    def jobs(self, state: "str | None" = None,
             limit: "int | None" = None) -> "list[JobStatus]":
        """Status snapshots in submission order.

        ``state`` filters to one lifecycle state; ``limit`` keeps only
        the *newest* that many snapshots (after filtering) — the
        fleet-scale listing contract behind ``GET /v1/jobs``.
        """
        if state is not None and state not in (QUEUED, RUNNING,
                                               *TERMINAL_STATES):
            raise JobError(
                f"unknown state filter {state!r} (expected one of "
                f"queued/running/done/failed/cancelled)"
            )
        if limit is not None and (not isinstance(limit, int) or limit < 1):
            raise JobError(f"limit must be a positive int, got {limit!r}")
        with self._lock:
            records = list(self._jobs.values())
        snaps = [self._status_of(job) for job in records]
        if state is not None:
            snaps = [s for s in snaps if s.state == state]
        if limit is not None:
            snaps = snaps[-limit:]
        return snaps

    def result_payload(self, job_id: str) -> dict:
        """A terminal job's result as a JSON payload (``GET
        /v1/jobs/{id}/result``): the typed result's ``to_dict`` (a
        list of them for a grid parent), or the error fields for a
        failed/cancelled job.  :class:`JobError` while the job is
        still live."""
        job = self.handle(job_id)._job
        with job.cond:
            state = job.state
            result = job.result
            error = job.error
        if state not in TERMINAL_STATES:
            raise JobError(
                f"job {job_id} is still {state}; its result is not ready"
            )
        payload = None
        if result is not None:
            payload = [r.to_dict() for r in result] \
                if isinstance(result, tuple) else result.to_dict()
        return {
            "job_id": job_id,
            "state": state,
            "result": payload,
            "error": str(error) if error is not None else None,
            "error_type": type(error).__name__
            if error is not None else None,
        }

    def _status_of(self, job: _Job) -> JobStatus:
        with job.cond:
            return JobStatus(
                job_id=job.job_id,
                kind=job.kind,
                name=job.name,
                state=job.state,
                rows_done=job.rows_done,
                rows_total=job.rows_total,
                stage=job.stage,
                error=str(job.error) if job.error is not None else None,
                error_type=type(job.error).__name__
                if job.error is not None else None,
                traceback=format_traceback(job.error)
                if job.error is not None else None,
                children=tuple(c.job_id for c in job.children),
                priority=job.priority,
                retries=job.retries,
            )

    # -- cancellation -------------------------------------------------------- #
    def cancel(self, job_id: str) -> bool:
        """Cancel a job (and, for a grid parent, all its children).

        ``True`` when the job was still live: a queued job is
        cancelled before it starts, a locally-running one stops before
        its next event (a process job within one 0.1 s poll), a leased
        one is finished immediately (the worker learns on its next
        event post and abandons).
        """
        return self._cancel_job(self.handle(job_id)._job)

    def _cancel_job(self, job: _Job) -> bool:
        with job.cond:
            if job.state in TERMINAL_STATES:
                return False
        job.cancel_event.set()
        # cancel children through the records the parent already holds
        # — a finished child may have been pruned from the job table
        for child in list(job.children):
            self._cancel_job(child)
        if self._scheduler.remove(job):
            # still queued: it will never be popped; finish it ourselves
            self._finish(job, CANCELLED)
        elif job.kind == "grid":
            self._maybe_finish_grid(job)
        else:
            lease = job.lease
            if lease is not None and \
                    self._leases.release(lease.lease_id) is not None:
                # leased out: the worker discovers the cancellation on
                # its next post (410), we finish the record now
                self._finish(job, CANCELLED)
        return True

    # -- lifecycle plumbing -------------------------------------------------- #
    def _move(self, job: _Job, state: str, **fields) -> bool:
        """Move a job to the live ``state`` (and set ``fields``), log
        and journal it; ``False`` once the job is terminal,
        :class:`JobError` for a move :data:`NEXT_STATES` forbids."""
        with job.cond:
            if job.state in TERMINAL_STATES:
                return False
            _check_move(job, state)
            job.state = state
            for name, value in fields.items():
                setattr(job, name, value)
            self._emit(job, {"event": "status", "state": state})
        self._journal_state(job, state)
        return True

    def _emit(self, job: _Job, event: dict) -> None:
        with job.cond:
            if job.state in TERMINAL_STATES:
                # the `done` event is contractually last — a stale
                # commit, or a child's event racing in after its grid
                # finished, must not extend the log
                return
            event = dict(event)
            event.setdefault("job_id", job.job_id)
            event["seq"] = len(job.events)
            job.events.append(event)
            job.cond.notify_all()
        parent = job.parent
        if parent is not None and event.get("event") != "status":
            if event.get("event") == "row":
                with parent.cond:
                    parent.rows_done += 1
                    parent.stage = f"{job.job_id}:{event.get('stage')}"
            self._emit(parent, {k: v for k, v in event.items()
                                if k != "seq"})

    def _finish(self, job: _Job, state: str, result=None,
                error: "BaseException | None" = None) -> None:
        with job.cond:
            if job.state in TERMINAL_STATES:
                return
            _check_move(job, state)
            lease, job.lease = job.lease, None
            job.state = state
            job.result = result
            job.error = error
            job.finished_at = time.perf_counter()
            # the terminal event rides the same lock hold as the state
            # flip: observers never see a terminal state whose `done`
            # event is still in flight
            done = {
                "event": "done", "state": state,
                "error": str(error) if error is not None else None,
                "job_id": job.job_id, "seq": len(job.events),
            }
            if error is not None:
                done["error_type"] = type(error).__name__
                done["traceback"] = format_traceback(error)
            job.events.append(done)
            job.cond.notify_all()
        if lease is not None:  # no lease outlives its job
            self._leases.release(lease.lease_id)
        GLOBAL.inc("jobs.finished", state=state)
        GLOBAL.observe("jobs.latency_seconds",
                       time.perf_counter() - job.submitted_at)
        self._journal_state(job, state)
        if job.parent is None:
            self._scheduler.release(job.client)
        parent = job.parent
        if parent is not None:
            self._emit(parent, {"event": "child", "state": state,
                                "job_id": job.job_id})
            self._maybe_finish_grid(parent)
        self._prune()

    def _prune(self) -> None:
        """Drop the oldest-*finished* jobs past ``retain`` from the
        table (their event logs go with them; live handles keep
        working, but :meth:`handle` lookups turn into
        :class:`JobNotFound`)."""
        with self._lock:
            terminal = [(job.finished_at or 0.0, job_id)
                        for job_id, job in self._jobs.items()
                        if job.state in TERMINAL_STATES]
            excess = len(terminal) - self.retain
            if excess > 0:
                terminal.sort()
                for _, job_id in terminal[:excess]:
                    del self._jobs[job_id]

    def _maybe_finish_grid(self, parent: _Job) -> None:
        children = list(parent.children)
        states = []
        for child in children:
            with child.cond:
                states.append(child.state)
        if any(s not in TERMINAL_STATES for s in states):
            return
        if any(s == FAILED for s in states):
            errors = [c.error for c in children if c.error is not None]
            self._finish(parent, FAILED,
                         error=errors[0] if errors else
                         JobError("a grid child failed"))
        elif any(s == CANCELLED for s in states):
            self._finish(parent, CANCELLED)
        else:
            self._finish(parent, DONE,
                         result=tuple(c.result for c in children))

    def _commit(self, job: _Job, event: dict) -> bool:
        """Apply one typed job event
        (:func:`~repro.fleet.worker.iter_job_events`, or a worker's
        wire event after :func:`~repro.fleet.worker.decode_event`).

        Thread, process and remote jobs all land here: this persists
        stage and request artifacts, writes the event log and finishes
        the job on ``done``/``error``.  ``True`` once the job is
        finished.  A retry's rows and stages that the log already holds
        are checked, not logged again.
        """
        kind = event.get("event")
        if kind == "row":
            with job.cond:
                if job.state in TERMINAL_STATES:
                    return True  # a stale post must not extend the log
                index = job.attempt_rows
                job.attempt_rows += 1
                repeat = index < job.rows_done
                if repeat:
                    logged = [ev["data"] for ev in job.events
                              if ev["event"] == "row"][index]
                else:
                    job.rows_done += 1
                    job.stage = event.get("stage")
            if not repeat:
                self._emit(job, {"event": "row", "stage": event.get("stage"),
                                 "data": event.get("data")})
            elif _steady(logged) != _steady(event.get("data")):
                exc = JobError(f"job {job.job_id}: attempt {job.retries} "
                               f"streamed row {index} differently")
                return self._commit(job, {**error_event(exc),
                                          "exception": exc})
        elif kind == "stage":
            with job.cond:
                if any(ev["event"] == "stage"
                       and ev.get("index") == event["index"]
                       for ev in job.events):
                    return False  # a retry replaying a logged stage
            out = {"event": "stage", "stage": event.get("stage"),
                   "index": event["index"],
                   "skipped": bool(event.get("skipped"))}
            if self.store is not None:
                out["artifact"] = self.store.save_stage(
                    job.payload, event["index"], str(event.get("stage")),
                    str(event.get("kind")), event["data"],
                )
            self._emit(job, out)
        elif kind == "done":
            if job.kind == "request" and self.store is not None:
                # a replayed result is already stored: point at it
                request, skipped = job.payload, bool(event.get("skipped"))
                self._emit(job, {
                    "event": "stage", "stage": request_stage_kind(request),
                    "skipped": skipped,
                    "artifact": self.store.request_relpath(request)
                    if skipped else
                    self.store.save_request_result(request, event["result"]),
                })
            self._finish(job, DONE, result=event["result"])
            return True
        elif kind == "error":
            self._emit(job, {"event": "error", "error": event.get("error"),
                             "error_type": event.get("error_type"),
                             "traceback": event.get("traceback")})
            self._finish(job, FAILED, error=event["exception"])
            return True
        return False

    def _resume_material(self, job: _Job) -> "tuple[dict, object]":
        """``(completed, loaded)`` for
        :func:`~repro.fleet.worker.iter_job_events`: the stored stage
        results of a spec, or the stored result of a bare request, that
        a resumed or retried job replays instead of recomputing."""
        if self.store is None or not (job.resume or job.retries):
            return {}, None
        if job.kind == "spec":
            return self.store.completed_stages(job.payload), None
        return {}, self.store.load_request_result(job.payload)

    def _task_doc(self, job: _Job) -> dict:
        """What :func:`~repro.fleet.worker.iter_task_events` runs: the
        job's identity, attempt and task, plus stored resume material."""
        doc = {
            "job_id": job.job_id,
            "kind": job.kind,
            "name": job.name,
            "attempt": job.retries,
            "task": job.payload.to_dict(),
        }
        completed, loaded = self._resume_material(job)
        if completed:
            doc["resume_completed"] = {
                str(index): result.to_dict()
                for index, result in completed.items()
            }
        if loaded is not None:
            doc["resume_result"] = loaded.to_dict()
        return doc

    # -- local dispatch ------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        """One local worker: pull from the scheduler, execute, repeat.

        On shutdown the loop drains whatever is already queued (the
        thread-pool contract `shutdown(wait=True)` used to provide)
        before exiting — unless those jobs were cancelled away.
        """
        while True:
            job = self._scheduler.pop(timeout=0.1)
            if job is not None:
                self._execute(job)
                continue
            if self._stop.is_set():
                return

    def _execute(self, job: _Job) -> None:
        """Run one job locally: commit its events — the engine's on the
        shared session, or a child process's — until it is terminal or
        cancelled.  No lease: this process watches both directly."""
        if job.cancel_event.is_set():
            self._finish(job, CANCELLED)
            return
        if not self._move(job, RUNNING):
            return
        try:
            if self.executor == "process":
                events = _child_events(job.job_id, self._task_doc(job))
            else:
                events = iter_job_events(self.session, job.payload,
                                         *self._resume_material(job))
            try:
                for event in events:
                    if job.cancel_event.is_set() or \
                            self._commit(job, event):
                        break
            finally:
                events.close()
        except Exception as exc:  # reported via status/result, not lost
            self._commit(job, {**error_event(exc), "exception": exc})
        if job.cancel_event.is_set():
            self._finish(job, CANCELLED)

    # -- fleet leasing ------------------------------------------------------- #
    def lease_job(self, worker: str = "",
                  wait: float = 0.0) -> "dict | None":
        """Grant the next runnable job to a pulling worker.

        The remote half of the scheduler: pops the highest-priority
        pending job (blocking up to ``wait`` seconds), grants a lease,
        flips the job to ``running`` and returns the lease document —
        the task document (:meth:`_task_doc`) plus the lease id and
        TTL.  ``None`` when nothing is pending (or the manager is
        draining/paused).
        """
        wait = max(0.0, min(float(wait), 60.0))
        deadline = time.monotonic() + wait
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            job = self._scheduler.pop(timeout=remaining)
            if job is None:
                return None
            if job.cancel_event.is_set():
                self._finish(job, CANCELLED)
                continue
            lease = self._leases.grant(job, worker, self.lease_ttl)
            if not self._move(job, RUNNING, lease=lease):
                self._leases.release(lease.lease_id)
                continue
            GLOBAL.inc("fleet.leases.granted", executor="remote")
            self._journal_append({"event": "lease", "job_id": job.job_id,
                                  "lease_id": lease.lease_id,
                                  "worker": worker})
            self._ensure_monitor()
            try:
                return {"lease_id": lease.lease_id, "ttl": lease.ttl,
                        **self._task_doc(job)}
            except Exception as exc:  # corrupted resume artifact etc.
                self._commit(job, {**error_event(exc), "exception": exc})
                return None

    def apply_worker_events(self, lease_id: str, events,
                            worker: str = "") -> dict:
        """Commit a worker's posted event batch against its lease.

        Every post renews the lease (heartbeats are just empty
        renewals).  Each event goes through :meth:`_commit`, the path
        thread and process jobs take; ``done`` finishes the job with
        the restored typed result, ``error`` fails it under the
        worker's reported exception type.  Raises
        :class:`~repro.errors.LeaseExpired` for an unknown/expired
        lease (the HTTP 410) — a late worker's stale events must not
        corrupt a requeued job.  The response tells the worker whether
        to keep going (``cancelled``).
        """
        lease = self._leases.renew(lease_id)
        job = lease.job
        if job.cancel_event.is_set():
            self._finish(job, CANCELLED)
        with job.cond:
            state = job.state
        if state in TERMINAL_STATES:
            # nothing more to commit; release so expiry never requeues
            self._leases.release(lease_id)
            return {"ok": True, "cancelled": True, "state": state}
        if not isinstance(events, (list, tuple)):
            raise JobError("worker events payload must be a list")
        for event in events:
            if isinstance(event, dict) and \
                    self._commit(job, decode_event(event)):
                if job.state == DONE:
                    GLOBAL.inc("fleet.leases.completed", executor="remote")
                break
        with job.cond:
            state = job.state
        return {"ok": True, "cancelled": job.cancel_event.is_set(),
                "state": state}

    def _ensure_monitor(self) -> None:
        with self._lock:
            if self._monitor is not None or self._closed:
                return
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="repro-lease-monitor",
                daemon=True,
            )
            self._monitor.start()

    def _monitor_loop(self) -> None:
        while not self._stop.wait(0.1):
            for lease in self._leases.expired():
                self._on_lease_expired(lease)

    def _on_lease_expired(self, lease) -> None:
        """Requeue (or fail) a job whose worker went quiet."""
        job = lease.job
        GLOBAL.inc("fleet.leases.expired")
        with job.cond:
            if job.state in TERMINAL_STATES:
                return
            job.lease = None
            job.retries += 1
            retries = job.retries
        if retries > self.max_retries:
            self._finish(job, FAILED, error=JobError(
                f"lease {lease.lease_id} (worker {lease.worker!r}) "
                f"expired on attempt {retries}; retry budget of "
                f"{self.max_retries} exhausted"
            ))
            return
        self._emit(job, {"event": "requeued", "attempt": retries,
                         "reason": f"lease {lease.lease_id} expired"})
        # rows_done stays: the next attempt re-streams the logged rows,
        # and _commit checks them instead of logging them again
        if self._move(job, QUEUED, attempt_rows=0):
            GLOBAL.inc("fleet.jobs.requeued")
            # re-admission of already-accepted work bypasses the queue cap
            self._scheduler.push(job, priority=job.priority, force=True)

    # -- drain / teardown ---------------------------------------------------- #
    def live_jobs(self) -> "list[_Job]":
        """Top-level jobs not yet terminal (children ride parents)."""
        with self._lock:
            records = [job for job in self._jobs.values()
                       if job.parent is None]
        live = []
        for job in records:
            with job.cond:
                if job.state not in TERMINAL_STATES:
                    live.append(job)
        return live

    def drain(self, timeout: float = 10.0) -> "list[str]":
        """Stop handing out work and wait for running jobs to finish.

        Pauses the scheduler (local dispatchers and remote leases both
        stop pulling; queued jobs stay queued *and journaled*), then
        waits up to ``timeout`` seconds for in-flight jobs to go
        terminal.  Returns the ids of jobs still live at expiry — the
        abandoned work a graceful shutdown reports (and the journal
        records for the next start to recover).
        """
        self._scheduler.pause()
        deadline = time.monotonic() + max(0.0, timeout)
        while time.monotonic() < deadline:
            if not self.live_jobs():
                break
            time.sleep(0.05)
        abandoned = [job.job_id for job in self.live_jobs()]
        self._journal_append({"event": "shutdown",
                              "abandoned": abandoned})
        return abandoned

    def shutdown(self, wait: bool = True, cancel: bool = False) -> None:
        """Stop accepting jobs; optionally cancel everything live.

        ``wait=True`` lets dispatchers drain the already-admitted
        queue first (the thread-pool contract submissions were
        accepted under).
        """
        with self._lock:
            self._closed = True
            jobs = list(self._jobs.values())
        if cancel:
            for job in jobs:
                self._cancel_job(job)
        self._stop.set()
        self._scheduler.wake()
        if wait:
            for thread in self._dispatchers:
                thread.join()
            if self._monitor is not None:
                self._monitor.join(timeout=5.0)

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(wait=True)
