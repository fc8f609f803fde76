"""Asyncio HTTP service over the job layer — stdlib only.

A tiny, dependency-free HTTP/1.1 server exposing the
:class:`~repro.service.jobs.JobManager` lifecycle.  The wire protocol
speaks **nothing but the api's request/result contract**: submissions
are typed-request / spec payloads, every response body is versioned
JSON, and the event stream's ``row`` payloads are exactly what
``Session.stream`` yields — bit-identical to the blocking result.

Endpoints::

    GET    /healthz                  liveness: {"ok": true}
    POST   /v1/jobs                  submit {"request": {...}} or
                                     {"spec": {...}} (+ "resume": true,
                                     "priority": N)
                                     -> 202 {"job": <job_status>}
    GET    /v1/jobs?state=&limit=    -> {"jobs": [<job_status>, ...]}
    GET    /v1/jobs/{id}             -> {"job": <job_status>}
    GET    /v1/jobs/{id}/result      terminal job's typed result payload
    GET    /v1/jobs/{id}/events      NDJSON stream: replay + live, one
                                     event per line, ends after `done`
    DELETE /v1/jobs/{id}             cancel -> {"job": ..., "cancelled": b}
    POST   /v1/workers/lease         fleet pull: {"worker": w, "wait": s}
                                     -> {"lease": <lease doc> | null}
    POST   /v1/workers/{id}/events   worker event batch -> {"ok": true,
                                     "cancelled": b, "state": s}
    GET    /v1/artifacts             retention index of the results dir
    GET    /v1/artifacts/{path}      a stored artifact (results dir)
    GET    /v1/metrics               Prometheus text exposition of the
                                     process-wide metrics registry plus
                                     the manager's live job/lease gauges

Status codes carry the scheduler's policy: ``401`` (missing/bad
bearer token when ``--auth`` is configured — submit, cancel and
worker endpoints are gated; reads stay open), ``429 + Retry-After``
(queue full or client quota exhausted), ``410`` (posting against an
expired lease — the job was requeued).

Connections are ``Connection: close`` (one request per connection);
the event stream is length-less NDJSON delimited by the close.  Job
event iterators block, so each events subscriber gets a pump thread
feeding an ``asyncio.Queue`` — the asyncio side only ever awaits.

:class:`ReproService` runs the loop in a daemon thread
(:meth:`ReproService.start` returns the bound address, so ``port=0``
works for tests); the CLI's ``repro serve`` blocks on it, drains on
SIGTERM (bounded by ``--drain-timeout``) and exits nonzero when jobs
had to be abandoned.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from urllib.parse import parse_qs, unquote, urlsplit

from repro.errors import (
    AuthError,
    JobError,
    JobNotFound,
    LeaseExpired,
    QueueFull,
    QuotaExceeded,
    ReproError,
    RequestError,
)
from repro.service.jobs import JobManager
from repro.service.metrics import CONTENT_TYPE as _METRICS_CONTENT_TYPE
from repro.service.metrics import render_prometheus
from repro.utils.telemetry import MetricsRegistry

#: Largest accepted request body (a spec is a few KB; 8 MiB is ample).
MAX_BODY = 8 << 20

#: Seconds a 429 tells the client to back off before retrying.
RETRY_AFTER = 1

_SENTINEL = object()


class ReproService:
    """One JobManager behind an asyncio HTTP front end."""

    def __init__(self, manager: JobManager, host: str = "127.0.0.1",
                 port: int = 8321, auth=None) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        #: a :class:`~repro.fleet.TokenAuth` (or None for open access)
        self.auth = auth
        self.address: "tuple[str, int] | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._stop: "asyncio.Event | None" = None
        self._thread: "threading.Thread | None" = None
        self._started = threading.Event()
        self._startup_error: "BaseException | None" = None

    # -- lifecycle ----------------------------------------------------------- #
    def start(self) -> "tuple[str, int]":
        """Serve on a daemon thread; returns the bound ``(host, port)``."""
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        assert self.address is not None
        return self.address

    def stop(self) -> None:
        """Stop serving (leaves the manager and its jobs alone)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
        finally:
            self._started.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._handle, self.host,
                                            self.port)
        self.address = server.sockets[0].getsockname()[:2]
        self._started.set()
        async with server:
            await self._stop.wait()

    # -- connection handling ------------------------------------------------- #
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            method, path, query, headers, body = \
                await self._read_request(reader)
            if method is not None:
                await self._route(method, path, query, headers, body,
                                  writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request/mid-stream
        except Exception as exc:  # a handler bug must not kill the loop
            try:
                await self._respond_json(writer, 500, {"error": str(exc)})
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = await reader.readline()
        if not request_line.strip():
            return None, None, {}, {}, b""
        try:
            method, target, _version = \
                request_line.decode("latin-1").split(None, 2)
        except ValueError:
            return None, None, {}, {}, b""
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        body = b""
        if length:
            if length > MAX_BODY:
                raise RequestError(f"request body over {MAX_BODY} bytes")
            body = await reader.readexactly(length)
        split = urlsplit(target)
        path = unquote(split.path)
        query = {name: values[-1]
                 for name, values in parse_qs(split.query).items()}
        return method.upper(), path, query, headers, body

    # -- auth ---------------------------------------------------------------- #
    def _authenticate(self, headers: dict):
        """The submitting client, or ``None`` when auth is off.

        Raises :class:`~repro.errors.AuthError` (the 401) when a token
        file is configured and the request lacks a valid bearer token.
        """
        if self.auth is None:
            return None
        return self.auth.authenticate(headers.get("authorization"))

    # -- routing ------------------------------------------------------------- #
    async def _route(self, method: str, path: str, query: dict,
                     headers: dict, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        try:
            if path == "/healthz" and method == "GET":
                await self._respond_json(writer, 200, {"ok": True})
            elif path == "/v1/jobs" and method == "POST":
                await self._post_job(body, headers, writer)
            elif path == "/v1/jobs" and method == "GET":
                await self._list_jobs(query, writer)
            elif path == "/v1/metrics" and method == "GET":
                live = MetricsRegistry()
                for name, value in self.manager.gauges().items():
                    live.gauge_set(name, value)
                text = render_prometheus() + render_prometheus(live)
                await self._respond(writer, 200, text.encode("utf-8"),
                                    _METRICS_CONTENT_TYPE)
            elif path == "/v1/workers/lease" and method == "POST":
                self._authenticate(headers)
                await self._lease(body, writer)
            elif path.startswith("/v1/workers/") and \
                    path.endswith("/events") and method == "POST":
                self._authenticate(headers)
                lease_id = path[len("/v1/workers/"):-len("/events")]
                await self._worker_events(lease_id, body, writer)
            elif path.startswith("/v1/jobs/"):
                await self._job_route(method, path, headers, writer)
            elif path == "/v1/artifacts" and method == "GET":
                await self._artifact_index(writer)
            elif path.startswith("/v1/artifacts/") and method == "GET":
                await self._get_artifact(path[len("/v1/artifacts/"):],
                                         writer)
            else:
                await self._respond_json(writer, 404,
                                         {"error": f"no route {path!r}"})
        except AuthError as exc:
            await self._respond_json(
                writer, 401, {"error": str(exc)},
                extra_headers={"WWW-Authenticate": "Bearer"})
        except JobNotFound as exc:
            await self._respond_json(writer, 404, {"error": str(exc)})
        except LeaseExpired as exc:
            await self._respond_json(writer, 410, {"error": str(exc)})
        except (QueueFull, QuotaExceeded) as exc:
            await self._respond_json(
                writer, 429, {"error": str(exc),
                              "retry_after": RETRY_AFTER},
                extra_headers={"Retry-After": str(RETRY_AFTER)})
        except ReproError as exc:  # RequestError, SpecError, JobError...
            await self._respond_json(writer, 400, {"error": str(exc)})

    @staticmethod
    def _parse_body(body: bytes) -> dict:
        try:
            doc = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(f"request body is not JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise RequestError("request body must be a JSON object")
        return doc

    async def _post_job(self, body: bytes, headers: dict,
                        writer: asyncio.StreamWriter) -> None:
        client = self._authenticate(headers)
        doc = self._parse_body(body)
        task = doc.get("spec") if "spec" in doc else doc.get("request")
        if task is None:
            raise RequestError(
                "submission needs a 'request' or 'spec' payload"
            )
        resume = bool(doc.get("resume", False))
        priority = doc.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise RequestError(
                f"priority must be an integer, got {priority!r}"
            )
        # submission validates the payload (spec validation builds every
        # stage request) — keep it off the event loop
        handle = await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.manager.submit(
                task, resume=resume, priority=priority,
                client=client.name if client is not None else None,
            )
        )
        await self._respond_json(writer, 202,
                                 {"job": handle.status().to_dict()})

    async def _list_jobs(self, query: dict,
                         writer: asyncio.StreamWriter) -> None:
        state = query.get("state")
        limit = None
        if "limit" in query:
            try:
                limit = int(query["limit"])
            except ValueError:
                raise RequestError(
                    f"limit must be an integer, got {query['limit']!r}"
                ) from None
        snaps = self.manager.jobs(state=state, limit=limit)
        await self._respond_json(writer, 200, {
            "jobs": [s.to_dict() for s in snaps]
        })

    async def _lease(self, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        doc = self._parse_body(body)
        worker = str(doc.get("worker") or "")
        wait = doc.get("wait", 0.0)
        if not isinstance(wait, (int, float)) or isinstance(wait, bool):
            raise RequestError(f"wait must be a number, got {wait!r}")
        lease = await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.manager.lease_job(worker=worker,
                                                 wait=float(wait))
        )
        await self._respond_json(writer, 200, {"lease": lease})

    async def _worker_events(self, lease_id: str, body: bytes,
                             writer: asyncio.StreamWriter) -> None:
        doc = self._parse_body(body)
        events = doc.get("events")
        if events is None:
            raise RequestError("worker post needs an 'events' list")
        worker = str(doc.get("worker") or "")
        outcome = await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.manager.apply_worker_events(
                lease_id, events, worker=worker)
        )
        await self._respond_json(writer, 200, outcome)

    async def _job_route(self, method: str, path: str, headers: dict,
                         writer: asyncio.StreamWriter) -> None:
        parts = path.split("/")  # ['', 'v1', 'jobs', id, (events|result)]
        job_id = parts[3] if len(parts) > 3 else ""
        tail = parts[4] if len(parts) > 4 else None
        handle = self.manager.handle(job_id)
        if tail is None and method == "GET":
            await self._respond_json(writer, 200,
                                     {"job": handle.status().to_dict()})
        elif tail is None and method == "DELETE":
            self._authenticate(headers)
            cancelled = handle.cancel()
            await self._respond_json(writer, 200, {
                "job": handle.status().to_dict(),
                "cancelled": cancelled,
            })
        elif tail == "result" and method == "GET":
            payload = self.manager.result_payload(job_id)
            await self._respond_json(writer, 200, payload)
        elif tail == "events" and method == "GET":
            await self._stream_events(handle, writer)
        else:
            await self._respond_json(
                writer, 405 if tail in (None, "events", "result") else 404,
                {"error": f"unsupported {method} on {path!r}"})

    async def _stream_events(self, handle,
                             writer: asyncio.StreamWriter) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        gone = threading.Event()  # set when the client stops reading

        def pump() -> None:
            # a blocking iterator feeding the async side; ends at the
            # job's terminal event, or at the next event after the
            # client disconnects (a long campaign must not keep one
            # thread + queue alive per abandoned subscriber)
            try:
                for event in handle.events():
                    if gone.is_set():
                        return
                    loop.call_soon_threadsafe(queue.put_nowait, event)
            except Exception as exc:
                loop.call_soon_threadsafe(
                    queue.put_nowait, {"event": "error", "error": str(exc)}
                )
            finally:
                loop.call_soon_threadsafe(queue.put_nowait, _SENTINEL)

        threading.Thread(target=pump, name="repro-events",
                         daemon=True).start()
        try:
            while True:
                event = await queue.get()
                if event is _SENTINEL:
                    break
                writer.write(json.dumps(event).encode("utf-8") + b"\n")
                await writer.drain()
        finally:
            gone.set()

    def _store_or_raise(self):
        store = self.manager.store
        if store is None:
            raise JobError("this server has no artifact store "
                           "(start it with --results-dir)")
        return store

    async def _artifact_index(self,
                              writer: asyncio.StreamWriter) -> None:
        from repro.fleet.gc import artifact_index

        store = self._store_or_raise()
        entries = await asyncio.get_running_loop().run_in_executor(
            None, lambda: artifact_index(store)
        )
        await self._respond_json(writer, 200, {
            "artifacts": [entry.to_dict() for entry in entries],
            "count": len(entries),
            "bytes": sum(entry.bytes for entry in entries),
        })

    async def _get_artifact(self, relpath: str,
                            writer: asyncio.StreamWriter) -> None:
        store = self._store_or_raise()
        data = await asyncio.get_running_loop().run_in_executor(
            None, lambda: store.read_bytes(relpath)
        )
        await self._respond(writer, 200, data, "application/json")

    # -- responses ----------------------------------------------------------- #
    async def _respond_json(self, writer: asyncio.StreamWriter, status: int,
                            payload: dict,
                            extra_headers: "dict | None" = None) -> None:
        await self._respond(writer, status,
                            json.dumps(payload, indent=2).encode("utf-8"),
                            "application/json",
                            extra_headers=extra_headers)

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       body: bytes, content_type: str,
                       extra_headers: "dict | None" = None) -> None:
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  401: "Unauthorized", 404: "Not Found",
                  405: "Method Not Allowed", 410: "Gone",
                  429: "Too Many Requests",
                  500: "Internal Server Error"}.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        for name, value in (extra_headers or {}).items():
            head += f"{name}: {value}\r\n"
        head += "Connection: close\r\n\r\n"
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


def run_server(host: str = "127.0.0.1", port: int = 8321,
               results_dir: "str | None" = None, workers: int = 2,
               executor: str = "thread", auth: "str | None" = None,
               max_queue: int = 1024, lease_ttl: float = 30.0,
               max_retries: int = 3, drain_timeout: float = 10.0,
               ready=print) -> int:
    """Blocking entry point behind ``repro serve``; exit code.

    Builds a fresh :class:`~repro.api.Session`-backed
    :class:`JobManager` (with an artifact store when ``results_dir``
    is given), recovers whatever the results dir's journal says was
    in flight, announces the bound address via ``ready`` and serves
    until SIGTERM/SIGINT.  Shutdown is graceful: leasing stops, running
    jobs get ``drain_timeout`` seconds to finish, state is journaled —
    and the exit code is nonzero when jobs had to be abandoned.
    """
    from repro.fleet.auth import TokenAuth
    from repro.service.artifacts import ArtifactStore

    store = ArtifactStore(results_dir) if results_dir is not None else None
    auth_cfg = TokenAuth.load(auth) if auth is not None else None
    manager = JobManager(
        workers=workers, store=store, executor=executor,
        max_queue=max_queue, lease_ttl=lease_ttl,
        max_retries=max_retries,
        quotas=auth_cfg.quotas() if auth_cfg is not None else None,
    )
    recovered = manager.recover() if store is not None else []
    service = ReproService(manager, host=host, port=port, auth=auth_cfg)
    bound_host, bound_port = service.start()
    ready(f"repro service listening on http://{bound_host}:{bound_port} "
          f"(workers={workers}, executor={executor}"
          + (f", results={results_dir}" if results_dir else "")
          + (", auth=on" if auth_cfg is not None else "") + ")")
    if recovered:
        ready(f"recovered {len(recovered)} journaled job(s): "
              + ", ".join(h.job_id for h in recovered))
    stop = threading.Event()

    def _on_signal(signum, _frame) -> None:
        ready(f"received signal {signum}; draining")
        stop.set()

    try:
        signal.signal(signal.SIGTERM, _on_signal)
    except ValueError:
        pass  # not the main thread (embedded/test use); stop() only
    try:
        stop.wait()
    except KeyboardInterrupt:
        ready("interrupted; draining")
    abandoned = manager.drain(timeout=drain_timeout)
    service.stop()
    manager.shutdown(wait=False, cancel=True)
    if abandoned:
        ready(f"abandoned {len(abandoned)} unfinished job(s): "
              + ", ".join(abandoned)
              + " (journaled; a restart with the same --results-dir "
                "resumes them)")
        return 1
    ready("drained clean")
    return 0
