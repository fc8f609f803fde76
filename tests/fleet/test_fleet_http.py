"""The fleet over the wire: lease protocol, auth, backpressure,
expiry requeue, and the executor bit-identity contract."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import ExecutionConfig, ExperimentSpec, Session, SweepRequest
from repro.api.session import stage_rows
from repro.errors import AuthError, LeaseExpired
from repro.fleet import FleetWorker, TokenAuth
from repro.service import ArtifactStore, JobManager, ReproService

EXEC = ExecutionConfig(effort=0.2)

SWEEP = SweepRequest(what="channel-width", grid=5, values=(6, 7),
                     execution=EXEC)

SPEC = ExperimentSpec(
    name="fleet-spec",
    workload="adder",
    arch={"grid": 5, "width": 7},
    execution=EXEC,
    stages=(
        {"stage": "map", "contexts": 2},
        {"stage": "sweep", "what": "channel-width", "values": [6, 7]},
        {"stage": "report"},
    ),
)

ALICE = "s3cret-alice"
WORKER_TOKEN = "s3cret-fleet"


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.fixture
def auth(tmp_path):
    path = tmp_path / "tokens.json"
    path.write_text(json.dumps({"tokens": [
        {"token": ALICE, "client": "alice"},
        {"token": WORKER_TOKEN, "client": "fleet-workers"},
    ]}))
    return TokenAuth.load(path)


@pytest.fixture
def fleet(session, auth, tmp_path):
    """An authenticated coordinator with no local execution: every
    job waits for a worker to lease it."""
    store = ArtifactStore(tmp_path / "results")
    manager = JobManager(session=session, workers=1, store=store,
                         executor="external", lease_ttl=30.0)
    svc = ReproService(manager, port=0, auth=auth)
    svc.start()
    yield svc, manager
    svc.stop()
    manager.shutdown(wait=False, cancel=True)


def _call(service, method, path, payload=None, token=None):
    host, port = service.address
    data = json.dumps(payload).encode() if payload is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", data=data, method=method,
        headers=headers,
    )
    with urllib.request.urlopen(request) as resp:
        return resp.status, json.loads(resp.read() or b"{}")


def _events(service, job_id):
    host, port = service.address
    url = f"http://{host}:{port}/v1/jobs/{job_id}/events"
    with urllib.request.urlopen(url) as resp:
        return [json.loads(line) for line in resp]


def _url(service):
    host, port = service.address
    return f"http://{host}:{port}"


def _http_error(service, method, path, payload=None, token=None):
    try:
        _call(service, method, path, payload, token)
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())
    raise AssertionError("expected an HTTP error")


class TestRemoteWorker:
    def test_spec_rows_bit_identical_to_blocking(self, fleet, session):
        svc, _manager = fleet
        _, doc = _call(svc, "POST", "/v1/jobs", {"spec": SPEC.to_dict()},
                       token=ALICE)
        job_id = doc["job"]["job_id"]
        worker = FleetWorker(_url(svc), token=WORKER_TOKEN,
                             name="w1", session=session)
        assert worker.run_once(wait=5.0) is True
        events = _events(svc, job_id)
        assert events[-1]["event"] == "done"
        assert events[-1]["state"] == "done"
        rows = [ev["data"] for ev in events if ev["event"] == "row"]
        expected = []
        for stage_result in session.run_spec(SPEC).stages:
            expected.extend(r.to_dict() for r in stage_rows(stage_result))
        assert rows == expected
        # the typed result is retrievable over HTTP
        _, result_doc = _call(svc, "GET", f"/v1/jobs/{job_id}/result")
        assert result_doc["state"] == "done"
        assert result_doc["result"]["type"] == "spec_result"
        # ... and the worker's stage artifacts were persisted
        _, index = _call(svc, "GET", "/v1/artifacts")
        assert any(e["name"] == "fleet-spec" for e in index["artifacts"])

    def test_request_rows_bit_identical_to_blocking(self, fleet, session):
        svc, _manager = fleet
        _, doc = _call(svc, "POST", "/v1/jobs",
                       {"request": SWEEP.to_dict()}, token=ALICE)
        job_id = doc["job"]["job_id"]
        worker = FleetWorker(_url(svc), token=WORKER_TOKEN,
                             session=session)
        assert worker.run_once(wait=5.0) is True
        events = _events(svc, job_id)
        rows = [ev["data"] for ev in events if ev["event"] == "row"]
        assert rows == [pt.to_dict() for pt in session.run(SWEEP).points]
        assert worker.jobs_done == 1 and worker.jobs_failed == 0

    def test_lease_doc_carries_the_wire_contract(self, fleet):
        svc, manager = fleet
        _call(svc, "POST", "/v1/jobs", {"request": SWEEP.to_dict()},
              token=ALICE, )
        _, doc = _call(svc, "POST", "/v1/workers/lease",
                       {"worker": "w-probe", "wait": 2.0},
                       token=WORKER_TOKEN)
        lease = doc["lease"]
        assert lease["lease_id"].startswith("lease-")
        assert lease["kind"] == "request"
        assert lease["ttl"] == manager.lease_ttl
        assert lease["task"]["type"] == "sweep_request"
        assert lease["attempt"] == 0

    def test_empty_queue_leases_null(self, fleet):
        svc, _manager = fleet
        _, doc = _call(svc, "POST", "/v1/workers/lease",
                       {"worker": "w-idle", "wait": 0.0},
                       token=WORKER_TOKEN)
        assert doc["lease"] is None

    def test_worker_failure_reports_the_typed_error(self, fleet):
        svc, _manager = fleet

        class ExplodingSession(Session):
            def stream(self, request):
                raise RuntimeError("boom on the worker")

        _, doc = _call(svc, "POST", "/v1/jobs",
                       {"request": SWEEP.to_dict()}, token=ALICE)
        job_id = doc["job"]["job_id"]
        worker = FleetWorker(_url(svc), token=WORKER_TOKEN,
                             session=ExplodingSession())
        assert worker.run_once(wait=5.0) is True
        assert worker.jobs_failed == 1
        _, status = _call(svc, "GET", f"/v1/jobs/{job_id}")
        assert status["job"]["state"] == "failed"
        assert status["job"]["error_type"] == "RuntimeError"
        assert "boom on the worker" in status["job"]["error"]


class TestAuth:
    def test_submit_without_token_is_401(self, fleet):
        svc, _manager = fleet
        code, headers, doc = _http_error(
            svc, "POST", "/v1/jobs", {"request": SWEEP.to_dict()})
        assert code == 401
        assert headers.get("WWW-Authenticate") == "Bearer"
        assert "Authorization" in doc["error"]

    def test_lease_with_bad_token_is_401(self, fleet):
        svc, _manager = fleet
        code, _headers, _doc = _http_error(
            svc, "POST", "/v1/workers/lease",
            {"worker": "w", "wait": 0.0}, token="wrong-token")
        assert code == 401

    def test_worker_surfaces_401_as_auth_error(self, fleet):
        svc, _manager = fleet
        worker = FleetWorker(_url(svc), token="wrong-token")
        with pytest.raises(AuthError):
            worker.lease()

    def test_reads_stay_open(self, fleet):
        svc, _manager = fleet
        status, _doc = _call(svc, "GET", "/v1/jobs")
        assert status == 200
        status, _doc = _call(svc, "GET", "/healthz")
        assert status == 200


class TestBackpressure:
    def test_queue_full_is_429_with_retry_after(self, session):
        manager = JobManager(session=session, workers=1,
                             executor="external", max_queue=1)
        svc = ReproService(manager, port=0)
        svc.start()
        try:
            _call(svc, "POST", "/v1/jobs", {"request": SWEEP.to_dict()})
            code, headers, doc = _http_error(
                svc, "POST", "/v1/jobs", {"request": SWEEP.to_dict()})
            assert code == 429
            assert headers.get("Retry-After") == "1"
            assert doc["retry_after"] == 1
            assert "full" in doc["error"]
        finally:
            svc.stop()
            manager.shutdown(wait=False, cancel=True)

    def test_quota_exhausted_is_429(self, session, auth):
        manager = JobManager(session=session, workers=1,
                             executor="external",
                             quotas={"alice": 1})
        svc = ReproService(manager, port=0, auth=auth)
        svc.start()
        try:
            _call(svc, "POST", "/v1/jobs", {"request": SWEEP.to_dict()},
                  token=ALICE)
            code, _headers, doc = _http_error(
                svc, "POST", "/v1/jobs", {"request": SWEEP.to_dict()},
                token=ALICE)
            assert code == 429
            assert "quota" in doc["error"]
            # cancelling the in-flight job frees the slot
            _, listing = _call(svc, "GET", "/v1/jobs?state=queued")
            job_id = listing["jobs"][0]["job_id"]
            _call(svc, "DELETE", f"/v1/jobs/{job_id}", token=ALICE)
            status, _doc = _call(svc, "POST", "/v1/jobs",
                                 {"request": SWEEP.to_dict()}, token=ALICE)
            assert status == 202
        finally:
            svc.stop()
            manager.shutdown(wait=False, cancel=True)


class TestLeaseExpiry:
    def test_dead_worker_requeues_then_completes(self, session, auth,
                                                 tmp_path):
        store = ArtifactStore(tmp_path / "results")
        manager = JobManager(session=session, workers=1, store=store,
                             executor="external", lease_ttl=0.3,
                             max_retries=3)
        svc = ReproService(manager, port=0, auth=auth)
        svc.start()
        try:
            _, doc = _call(svc, "POST", "/v1/jobs",
                           {"request": SWEEP.to_dict()}, token=ALICE)
            job_id = doc["job"]["job_id"]
            # a worker leases the job, then dies without posting a thing
            lease = manager.lease_job(worker="w-dead")
            assert lease is not None and lease["job_id"] == job_id
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                _, status = _call(svc, "GET", f"/v1/jobs/{job_id}")
                if status["job"]["retries"] >= 1:
                    break
                time.sleep(0.05)
            assert status["job"]["retries"] == 1
            assert status["job"]["state"] == "queued"
            # the late worker's post answers 410: it must abandon
            code, _headers, _doc = _http_error(
                svc, "POST", f"/v1/workers/{lease['lease_id']}/events",
                {"worker": "w-dead", "events": [{"event": "heartbeat"}]},
                token=WORKER_TOKEN)
            assert code == 410
            # a live worker picks the requeued job up and finishes it
            worker = FleetWorker(_url(svc), token=WORKER_TOKEN,
                                 session=session)
            assert worker.run_once(wait=5.0) is True
            events = _events(svc, job_id)
            assert events[-1]["state"] == "done"
            requeues = [ev for ev in events if ev["event"] == "requeued"]
            assert len(requeues) == 1 and requeues[0]["attempt"] == 1
            rows = [ev["data"] for ev in events if ev["event"] == "row"]
            assert rows == [pt.to_dict()
                            for pt in session.run(SWEEP).points]
        finally:
            svc.stop()
            manager.shutdown(wait=False, cancel=True)

    def test_retry_budget_exhaustion_fails_the_job(self, session):
        manager = JobManager(session=session, workers=1,
                             executor="external", lease_ttl=0.2,
                             max_retries=0)
        svc = ReproService(manager, port=0)
        svc.start()
        try:
            _, doc = _call(svc, "POST", "/v1/jobs",
                           {"request": SWEEP.to_dict()})
            job_id = doc["job"]["job_id"]
            assert manager.lease_job(worker="w-dead") is not None
            events = _events(svc, job_id)  # blocks until terminal
            assert events[-1]["state"] == "failed"
            _, status = _call(svc, "GET", f"/v1/jobs/{job_id}")
            assert "retry budget" in status["job"]["error"]
        finally:
            svc.stop()
            manager.shutdown(wait=False, cancel=True)

    def test_stale_renewal_raises_for_local_callers(self, session):
        manager = JobManager(session=session, workers=1,
                             executor="external", lease_ttl=0.2,
                             max_retries=2)
        try:
            manager.submit(SWEEP)
            lease = manager.lease_job(worker="w-dead")
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    manager.apply_worker_events(
                        lease["lease_id"], [{"event": "heartbeat"}])
                except LeaseExpired:
                    break
                # keep NOT renewing: stop posting entirely
                time.sleep(0.4)
            else:
                raise AssertionError("stale lease never expired")
        finally:
            manager.shutdown(wait=False, cancel=True)


class TestListingFilters:
    def test_state_and_limit_over_http(self, fleet, session):
        svc, _manager = fleet
        for _ in range(3):
            _call(svc, "POST", "/v1/jobs", {"request": SWEEP.to_dict()},
                  token=ALICE)
        worker = FleetWorker(_url(svc), token=WORKER_TOKEN,
                             session=session)
        worker.run_once(wait=5.0)  # finish exactly one
        _, done = _call(svc, "GET", "/v1/jobs?state=done")
        assert len(done["jobs"]) == 1
        _, queued = _call(svc, "GET", "/v1/jobs?state=queued")
        assert len(queued["jobs"]) == 2
        _, limited = _call(svc, "GET", "/v1/jobs?state=queued&limit=1")
        assert len(limited["jobs"]) == 1
        # the newest snapshot wins the limit cut
        assert limited["jobs"][0]["job_id"] == queued["jobs"][-1]["job_id"]

    def test_bad_filters_are_400(self, fleet):
        svc, _manager = fleet
        code, _headers, doc = _http_error(svc, "GET",
                                          "/v1/jobs?state=zombie")
        assert code == 400 and "zombie" in doc["error"]
        code, _headers, _doc = _http_error(svc, "GET",
                                           "/v1/jobs?limit=minus-one")
        assert code == 400


class TestProcessExecutor:
    def test_rows_and_result_bit_identical_to_thread(self, session):
        thread_mgr = JobManager(session=session, workers=1)
        proc_mgr = JobManager(workers=1, executor="process")
        try:
            t_handle = thread_mgr.submit(SWEEP)
            p_handle = proc_mgr.submit(SWEEP)
            t_result = t_handle.result(timeout=120)
            p_result = p_handle.result(timeout=300)
            assert p_result.to_dict() == t_result.to_dict()
            t_rows = [ev["data"] for ev in t_handle.events()
                      if ev["event"] == "row"]
            p_rows = [ev["data"] for ev in p_handle.events()
                      if ev["event"] == "row"]
            assert p_rows == t_rows
        finally:
            proc_mgr.shutdown(wait=False, cancel=True)
            thread_mgr.shutdown(wait=False, cancel=True)

    def test_spec_through_a_process_matches_blocking(self, session):
        proc_mgr = JobManager(workers=1, executor="process")
        try:
            handle = proc_mgr.submit(SPEC)
            result = handle.result(timeout=300)
            blocking = session.run_spec(SPEC)
            assert result.to_dict() == blocking.to_dict()
            rows = [ev["data"] for ev in handle.events()
                    if ev["event"] == "row"]
            expected = []
            for stage_result in blocking.stages:
                expected.extend(r.to_dict()
                                for r in stage_rows(stage_result))
            assert rows == expected
        finally:
            proc_mgr.shutdown(wait=False, cancel=True)


    def test_resumed_request_is_not_saved_again(self, session, tmp_path):
        store = ArtifactStore(tmp_path / "results")
        with JobManager(session=session, workers=1, store=store) as m:
            m.submit(SWEEP).result(timeout=120)
        saves = []
        real_save = store.save_request_result

        def counting_save(request, result):
            saves.append(request)
            return real_save(request, result)

        store.save_request_result = counting_save
        proc_mgr = JobManager(session=session, workers=1, store=store,
                              executor="process")
        try:
            handle = proc_mgr.submit(SWEEP, resume=True)
            handle.result(timeout=300)
            stages = [ev for ev in handle.events() if ev["event"] == "stage"]
        finally:
            proc_mgr.shutdown(wait=False, cancel=True)
        # the replayed result is already stored: no artifact or
        # manifest rewrite, just a pointer to it
        assert saves == []
        assert [(ev["skipped"], ev["artifact"]) for ev in stages] == \
            [(True, store.request_relpath(SWEEP))]

    def test_event_logs_identical_across_executors(self, session,
                                                   tmp_path):
        """Every executor commits through one path: each event of a
        request, a spec and a resumed request serializes to the same
        JSON (job id aside, key order included)."""
        logs = {}
        for executor in ("thread", "process", "external"):
            manager = JobManager(session=session, workers=1,
                                 store=ArtifactStore(tmp_path / executor),
                                 executor=executor)
            svc = ReproService(manager, port=0)
            svc.start()
            worker = FleetWorker(_url(svc), session=session)
            logs[executor] = []
            try:
                for task, resume in ((SWEEP, False), (SPEC, False),
                                     (SWEEP, True)):
                    handle = manager.submit(task, resume=resume)
                    if executor == "external":
                        assert worker.run_once(wait=5.0) is True
                    assert handle.wait(timeout=300).state == "done"
                    logs[executor].append([
                        json.dumps({k: v for k, v in ev.items()
                                    if k != "job_id"})
                        for ev in handle.events()
                    ])
            finally:
                svc.stop()
                manager.shutdown(wait=False, cancel=True)
        assert logs["process"] == logs["thread"]
        assert logs["external"] == logs["thread"]


class TestTwoWorkers:
    def test_two_workers_split_the_queue(self, fleet, session):
        svc, _manager = fleet
        job_ids = []
        for _ in range(4):
            _, doc = _call(svc, "POST", "/v1/jobs",
                           {"request": SWEEP.to_dict()}, token=ALICE)
            job_ids.append(doc["job"]["job_id"])
        workers = [FleetWorker(_url(svc), token=WORKER_TOKEN,
                               name=f"w{i}", session=session)
                   for i in range(2)]
        stop = threading.Event()
        threads = [threading.Thread(
            target=lambda w=w: w.run_forever(stop=stop, max_jobs=2))
            for w in workers]
        for thread in threads:
            thread.start()
        expected = [pt.to_dict() for pt in session.run(SWEEP).points]
        for job_id in job_ids:
            events = _events(svc, job_id)  # blocks until terminal
            assert events[-1]["state"] == "done"
            rows = [ev["data"] for ev in events if ev["event"] == "row"]
            assert rows == expected
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
        assert sum(w.jobs_done for w in workers) == 4
