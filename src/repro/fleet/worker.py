"""Fleet workers: run a job and stream its events home.

Every executor runs one engine.  :func:`iter_job_events` runs a typed
task — a request or an :class:`~repro.api.ExperimentSpec`, plus any
resume material — and yields the job's events: ``row`` events carrying
exactly what ``Session.stream`` yields (so every executor's rows are
bit-identical to the blocking result), ``stage`` events carrying each
folded stage result, and a final ``done`` event with the typed result.
The coordinator's thread executor drains it in-thread on the submitted
task itself.  :func:`iter_task_events` is the wire encoder over it — a
task document in, JSON-ready events out — which
:func:`process_job_main` ships over a pipe to the coordinator's local
run loop and :class:`FleetWorker` POSTs over HTTP.
:func:`decode_event` turns a wire event back into a typed one, and the
coordinator commits every executor's events through one method, so
the event log a client reads does not depend on which executor ran
the job.

A :class:`FleetWorker` (the ``repro worker`` CLI) is a pull-based
client: it long-polls ``POST /v1/workers/lease``, runs the granted
job through its **own** :class:`~repro.api.Session`, posts each event
to ``POST /v1/workers/{lease}/events`` (every post renews the lease;
an idle stretch is covered by a heartbeat thread at ttl/3), and lets
the ``done`` event commit the result coordinator-side.  On a 410 the
worker abandons the attempt — the lease expired and the job already
belongs to someone else; on ``{"cancelled": true}`` it stops at the
next event boundary.  Workers never need cleanup on death: the lease
TTL is the crash protocol.
"""

from __future__ import annotations

import builtins
import json
import threading
import time
import traceback as _tb
import urllib.error
import urllib.request

import repro.errors as _errors_mod
from repro.api import ExperimentSpec, Session, request_from_dict
from repro.api.requests import request_stage_kind
from repro.api.results import SpecResult, result_from_dict
from repro.api.session import stage_rows
from repro.errors import (
    AuthError,
    JobError,
    LeaseExpired,
    ReproError,
    RequestError,
)


def task_from_dict(payload: dict):
    """A spec or request document as its typed task, dispatched on the
    ``type`` tag or a ``stages`` key."""
    if payload.get("type") == "experiment_spec" or "stages" in payload:
        return ExperimentSpec.from_dict(payload)
    return request_from_dict(payload)


def format_traceback(exc: BaseException) -> str:
    """``exc``'s traceback as text (what ``error`` events carry)."""
    return "".join(_tb.format_exception(type(exc), exc, exc.__traceback__))


def error_event(exc: BaseException) -> dict:
    """The wire ``error`` event reporting ``exc``."""
    return {"event": "error", "error": str(exc),
            "error_type": type(exc).__name__,
            "traceback": format_traceback(exc)}


def restore_error(event: dict) -> BaseException:
    """A typed exception for a wire ``error`` event.

    Re-raises under the library's own class — or a plain builtin
    ``Exception`` subclass — when the worker named one, so
    ``handle.result()`` raises what a thread-executed job would have;
    anything unrecognized comes back as :class:`JobError`.
    """
    message = str(event.get("error") or "worker reported a failure")
    name = event.get("error_type")
    cls = getattr(_errors_mod, name, None) if isinstance(name, str) \
        else None
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls = getattr(builtins, name, None) if isinstance(name, str) \
            else None
        if not (isinstance(cls, type) and issubclass(cls, Exception)):
            cls = JobError
    return cls(message)


def iter_job_events(session: Session, task,
                    completed: "dict | None" = None, loaded=None):
    """Execute a typed task, yielding its typed job events::

        {"event": "row",   "stage": name, "data": <row payload>}
        {"event": "stage", "stage": name, "index": i, "kind": k,
         "skipped": bool, "data": <stage result>}            (specs)
        {"event": "done",  "result": <result>}  (+ "skipped" for requests)

    ``completed`` (stage index -> result) lets a spec replay finished
    stages; ``loaded`` is a bare request's stored result, replayed as
    rows instead of recomputed.  Rows are ``item.to_dict()`` of exactly
    what ``Session.stream`` yields, in stream order.
    """
    if isinstance(task, ExperimentSpec):
        yield from _iter_spec_events(session, task, completed or {})
    else:
        yield from _iter_request_events(session, task, loaded)


def _close(iterator) -> None:
    close = getattr(iterator, "close", None)
    if close is not None:
        close()


def _iter_spec_events(session: Session, spec: ExperimentSpec,
                      completed: dict):
    stage_results: list = []
    events = session.iter_spec_events(spec, completed=completed)
    try:
        for kind_tag, index, name, item in events:
            if kind_tag == "row":
                yield {"event": "row", "stage": name,
                       "data": item.to_dict()}
                continue
            stage_results.append(item)
            yield {"event": "stage", "stage": name, "index": index,
                   "kind": spec.stages[index]["stage"],
                   "skipped": index in completed,
                   "data": item}
    finally:
        _close(events)
    yield {"event": "done", "result": SpecResult(
        name=spec.name, workload=spec.workload,
        stages=tuple(stage_results))}


def _iter_request_events(session: Session, request, loaded):
    stage_kind = request_stage_kind(request)
    if loaded is not None:
        for item in stage_rows(loaded):
            yield {"event": "row", "stage": stage_kind,
                   "data": item.to_dict()}
        yield {"event": "done", "result": loaded, "skipped": True}
        return
    rows = []
    stream = session.stream(request)
    try:
        for item in stream:
            rows.append(item)
            yield {"event": "row", "stage": stage_kind,
                   "data": item.to_dict()}
    finally:
        _close(stream)
    yield {"event": "done",
           "result": session.fold_stage(stage_kind, request, rows),
           "skipped": False}


def encode_event(event: dict) -> dict:
    """A typed job event as its JSON-ready wire form."""
    if event["event"] == "stage":
        return {**event, "data": event["data"].to_dict()}
    if event["event"] == "done":
        return {**event, "result": event["result"].to_dict()}
    return event


def decode_event(event: dict) -> dict:
    """The typed job event a wire event stands for (the inverse of
    :func:`encode_event`; an ``error`` event gains its restored
    ``exception``).  Raises :class:`~repro.errors.RequestError` on a
    malformed payload — wire events come from outside the process."""
    kind = event.get("event")
    if kind == "stage":
        if not isinstance(event.get("index"), int):
            raise RequestError(
                f"stage event needs an int index, got "
                f"{event.get('index')!r}"
            )
        return {**event, "data": result_from_dict(event.get("data"))}
    if kind == "done":
        return {**event, "result": result_from_dict(event.get("result"))}
    if kind == "error":
        return {**event, "exception": restore_error(event)}
    return event


def iter_task_events(session: Session, lease_doc: dict):
    """Execute a task document, yielding wire events.

    ``lease_doc`` is what ``POST /v1/workers/lease`` granted, or what
    the coordinator hands a local child process: a ``task`` payload
    (spec or request document) plus optional resume material
    (``resume_completed`` stage payloads for specs, ``resume_result``
    for requests).  Yields the events of :func:`iter_job_events` in
    their wire form (:func:`encode_event`).
    """
    task = lease_doc.get("task")
    if not isinstance(task, dict):
        raise JobError("lease has no task payload")
    resumed = lease_doc.get("resume_result")
    events = iter_job_events(
        session, task_from_dict(task),
        completed={
            int(index): result_from_dict(payload)
            for index, payload in
            (lease_doc.get("resume_completed") or {}).items()
        },
        loaded=None if resumed is None else result_from_dict(resumed),
    )
    try:
        for event in events:
            yield encode_event(event)
    finally:
        events.close()


def process_job_main(conn, lease_doc: dict) -> None:
    """Child entry point for ``JobManager(executor="process")``.

    Runs the task document in a fresh :class:`Session` and ships every
    wire event over ``conn`` (a multiprocessing pipe) — the same
    stream a remote worker would POST, applied by the same
    coordinator-side commit path.  The child holds no lease: the
    coordinator watches it through the pipe and its exit status.
    """
    session = Session()
    try:
        for event in iter_task_events(session, lease_doc):
            conn.send(event)
    except BaseException as exc:  # the parent turns this into FAILED
        try:
            conn.send(error_event(exc))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


class FleetWorker:
    """Pull-based HTTP worker against one coordinator."""

    def __init__(self, url: str, token: "str | None" = None,
                 name: "str | None" = None,
                 session: "Session | None" = None,
                 poll: float = 1.0) -> None:
        self.url = url.rstrip("/")
        self.token = token
        self.name = name or f"worker-{id(self) & 0xffff:04x}"
        self.session = session if session is not None else Session()
        self.poll = max(0.05, float(poll))
        self.jobs_done = 0
        self.jobs_failed = 0

    # -- HTTP plumbing -------------------------------------------------------- #
    def _request(self, method: str, path: str,
                 payload: "dict | None" = None,
                 timeout: float = 60.0) -> dict:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        req = urllib.request.Request(self.url + path, data=data,
                                     headers=headers, method=method)
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return json.loads(resp.read().decode("utf-8") or "{}")
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8"))
                message = detail.get("error", str(exc))
            except Exception:
                message = str(exc)
            if exc.code == 401:
                raise AuthError(message) from exc
            if exc.code == 410:
                raise LeaseExpired(message) from exc
            raise JobError(
                f"coordinator rejected {method} {path}: "
                f"{exc.code} {message}"
            ) from exc

    # -- lease loop ----------------------------------------------------------- #
    def lease(self, wait: float = 0.0) -> "dict | None":
        """One lease attempt; the granted lease doc or ``None``."""
        doc = self._request(
            "POST", "/v1/workers/lease",
            {"worker": self.name, "wait": wait},
            timeout=max(60.0, wait + 30.0),
        )
        return doc.get("lease")

    def run_once(self, wait: "float | None" = None) -> bool:
        """Lease and run one job; ``True`` if one was granted."""
        lease = self.lease(self.poll if wait is None else wait)
        if lease is None:
            return False
        self._run_lease(lease)
        return True

    def run_forever(self, stop: "threading.Event | None" = None,
                    max_jobs: "int | None" = None,
                    max_errors: int = 10) -> int:
        """Pull-run until ``stop``/``max_jobs``; jobs completed.

        ``max_errors`` consecutive transport failures (coordinator
        gone) end the loop with :class:`~repro.errors.JobError` —
        a dead coordinator must not leave silent zombie workers.
        """
        errors = 0
        while not (stop is not None and stop.is_set()):
            if max_jobs is not None and self.jobs_done >= max_jobs:
                break
            try:
                self.run_once()
            except AuthError:
                raise  # a bad token never fixes itself
            except (urllib.error.URLError, OSError, JobError) as exc:
                errors += 1
                if errors >= max_errors:
                    raise JobError(
                        f"coordinator unreachable after {errors} "
                        f"attempts: {exc}"
                    ) from exc
                time.sleep(self.poll)
            else:
                errors = 0
        return self.jobs_done

    def _run_lease(self, lease: dict) -> None:
        lease_id = lease["lease_id"]
        ttl = float(lease.get("ttl", 30.0))
        cancelled = threading.Event()
        stop_heartbeat = threading.Event()

        def post(events: "list[dict]") -> None:
            doc = self._request(
                "POST", f"/v1/workers/{lease_id}/events",
                {"worker": self.name, "events": events},
            )
            if doc.get("cancelled"):
                cancelled.set()

        def heartbeat() -> None:
            interval = max(0.1, ttl / 3.0)
            while not stop_heartbeat.wait(interval):
                try:
                    post([{"event": "heartbeat"}])
                except LeaseExpired:
                    cancelled.set()
                    return
                except Exception:
                    pass  # transient; the next event post renews too

        pump = threading.Thread(target=heartbeat, daemon=True,
                                name=f"{self.name}-heartbeat")
        pump.start()
        events = iter_task_events(self.session, lease)
        try:
            for event in events:
                if cancelled.is_set():
                    return  # coordinator told us to stop; abandon
                post([event])
            self.jobs_done += 1
        except LeaseExpired:
            return  # the job was requeued out from under us
        except Exception as exc:
            self.jobs_failed += 1
            try:
                post([error_event(exc)])
            except (LeaseExpired, urllib.error.URLError, OSError,
                    JobError):
                pass
        finally:
            stop_heartbeat.set()
            events.close()
            pump.join(timeout=ttl)


def worker_main(url: str, token: "str | None" = None,
                name: "str | None" = None, poll: float = 1.0,
                max_jobs: "int | None" = None, out=print) -> int:
    """Blocking entry point behind ``repro worker``; exit code."""
    worker = FleetWorker(url, token=token, name=name, poll=poll)
    out(f"repro worker {worker.name} pulling from {worker.url}")
    try:
        done = worker.run_forever(max_jobs=max_jobs)
    except KeyboardInterrupt:
        done = worker.jobs_done
    out(f"repro worker {worker.name}: {done} job(s) completed, "
        f"{worker.jobs_failed} failed")
    return 0 if worker.jobs_failed == 0 else 1
