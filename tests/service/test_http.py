"""The asyncio HTTP service: submit/poll/cancel/events/artifacts."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import ExecutionConfig, ExperimentSpec, Session, SweepRequest
from repro.service import ArtifactStore, JobManager, ReproService

EXEC = ExecutionConfig(effort=0.2)

SWEEP = SweepRequest(what="channel-width", grid=5, values=(6, 7),
                     execution=EXEC)

SPEC = ExperimentSpec(
    name="http-spec",
    workload="adder",
    arch={"grid": 5, "width": 7},
    execution=EXEC,
    stages=(
        {"stage": "map", "contexts": 2},
        {"stage": "sweep", "what": "channel-width", "values": [6, 7]},
        {"stage": "report"},
    ),
)


class GatedSession(Session):
    """See tests/service/test_jobs.py — deterministic mid-stream holds."""

    def __init__(self):
        super().__init__()
        self.first_row = threading.Event()
        self.release = threading.Event()

    def stream(self, request):
        inner = super().stream(request)

        def gated():
            for i, item in enumerate(inner):
                if i >= 1:
                    assert self.release.wait(timeout=60)
                yield item
                if i == 0:
                    self.first_row.set()

        return gated()


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.fixture(scope="module")
def service(session, tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("results"))
    manager = JobManager(session=session, workers=2, store=store)
    svc = ReproService(manager, port=0)  # port 0: bind a free one
    svc.start()
    yield svc
    svc.stop()
    manager.shutdown(wait=False, cancel=True)


def _call(service, method, path, payload=None):
    host, port = service.address
    data = json.dumps(payload).encode() if payload is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
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
        assert resp.headers["Content-Type"] == "application/x-ndjson"
        return [json.loads(line) for line in resp]


class TestEndpoints:
    def test_healthz(self, service):
        assert _call(service, "GET", "/healthz") == (200, {"ok": True})

    def test_submit_poll_result(self, service, session):
        status, doc = _call(service, "POST", "/v1/jobs",
                            {"request": SWEEP.to_dict()})
        assert status == 202
        job = doc["job"]
        assert job["state"] in ("queued", "running", "done")
        assert job["rows_total"] == 2
        job_id = job["job_id"]
        events = _events(service, job_id)  # blocks until terminal
        _, doc = _call(service, "GET", f"/v1/jobs/{job_id}")
        assert doc["job"]["state"] == "done"
        assert doc["job"]["rows_done"] == 2
        rows = [ev["data"] for ev in events if ev["event"] == "row"]
        assert rows == [pt.to_dict() for pt in session.run(SWEEP).points]

    def test_spec_events_match_blocking_rows(self, service, session):
        _, doc = _call(service, "POST", "/v1/jobs",
                       {"spec": SPEC.to_dict()})
        job_id = doc["job"]["job_id"]
        events = _events(service, job_id)
        assert events[-1]["event"] == "done"
        assert events[-1]["state"] == "done"
        rows = [ev["data"] for ev in events if ev["event"] == "row"]
        blocking = session.run_spec(SPEC)
        expected = []
        from repro.api import stage_rows
        for stage_result in blocking.stages:
            expected.extend(r.to_dict() for r in stage_rows(stage_result))
        assert rows == expected

    def test_jobs_listing(self, service):
        _, doc = _call(service, "GET", "/v1/jobs")
        assert isinstance(doc["jobs"], list)
        assert all(j["type"] == "job_status" for j in doc["jobs"])

    def test_artifacts_served(self, service):
        _, doc = _call(service, "POST", "/v1/jobs",
                       {"spec": SPEC.to_dict()})
        _events(service, doc["job"]["job_id"])  # wait for completion
        status, manifest = _call(
            service, "GET", "/v1/artifacts/specs/http-spec/manifest.json"
        )
        assert status == 200
        assert manifest["type"] == "artifact_manifest"
        stage_path = manifest["stages"]["0"]["path"]
        status, artifact = _call(service, "GET", f"/v1/artifacts/{stage_path}")
        assert status == 200
        assert artifact["type"] == "map_result"


class TestErrors:
    def _status_of_error(self, service, method, path, payload=None):
        try:
            _call(service, method, path, payload)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())
        raise AssertionError("expected an HTTP error")

    def test_unknown_route(self, service):
        code, doc = self._status_of_error(service, "GET", "/nope")
        assert code == 404 and "error" in doc

    def test_unknown_job(self, service):
        code, doc = self._status_of_error(service, "GET",
                                          "/v1/jobs/job-424242")
        assert code == 404
        assert "unknown job id" in doc["error"]

    def test_bad_submission_payload(self, service):
        code, doc = self._status_of_error(service, "POST", "/v1/jobs",
                                          {"nonsense": 1})
        assert code == 400
        assert "request" in doc["error"]

    def test_invalid_request_values(self, service):
        code, doc = self._status_of_error(
            service, "POST", "/v1/jobs",
            {"request": {"schema_version": 1, "type": "sweep_request",
                         "what": "bogus-axis"}})
        assert code == 400
        assert "bogus-axis" in doc["error"]

    def test_value_the_model_rejects(self, service):
        code, doc = self._status_of_error(
            service, "POST", "/v1/jobs",
            {"request": {"schema_version": 1, "type": "sweep_request",
                         "what": "contexts", "values": [3]}})
        assert code == 400
        assert "power of two" in doc["error"]

    def test_area_contexts_the_model_rejects(self, service):
        code, doc = self._status_of_error(
            service, "POST", "/v1/jobs",
            {"request": {"schema_version": 1, "type": "area_request",
                         "contexts": 32}})
        assert code == 400
        assert "at most 16 contexts" in doc["error"]

    def test_unknown_request_key(self, service):
        code, doc = self._status_of_error(
            service, "POST", "/v1/jobs",
            {"request": {"schema_version": 1, "type": "map_request",
                         "workloda": "crc"}})
        assert code == 400
        assert "workloda" in doc["error"]

    def test_invalid_spec(self, service):
        code, doc = self._status_of_error(
            service, "POST", "/v1/jobs",
            {"spec": {"schema_version": 1, "name": "x",
                      "stages": [{"stage": "teleport"}]}})
        assert code == 400
        assert "teleport" in doc["error"]

    def test_artifact_traversal_rejected(self, service):
        code, doc = self._status_of_error(
            service, "GET", "/v1/artifacts/../../etc/passwd")
        # a malformed (escaping) path is a client error, not a miss
        assert code == 400
        assert "escapes" in doc["error"]

    def test_missing_artifact_is_404(self, service):
        code, doc = self._status_of_error(
            service, "GET", "/v1/artifacts/specs/nope/manifest.json")
        assert code == 404
        assert "no artifact" in doc["error"]

    def test_method_not_allowed(self, service):
        code, _doc = self._status_of_error(service, "PUT", "/v1/jobs/x")
        assert code in (404, 405)


class TestErrorPaths:
    """Every error path answers structured JSON with the right code."""

    def test_malformed_json_body_is_400(self, service):
        host, port = service.address
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/jobs", data=b"{not json",
            method="POST", headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        assert "not JSON" in json.loads(err.value.read())["error"]

    def test_unknown_job_events_is_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _events(service, "job-424242")
        assert err.value.code == 404
        assert "unknown job id" in json.loads(err.value.read())["error"]

    def test_unsupported_method_on_known_job_is_405(self, service):
        # a real job id: method dispatch happens after the id lookup
        _, doc = _call(service, "POST", "/v1/jobs",
                       {"request": SWEEP.to_dict()})
        job_id = doc["job"]["job_id"]
        _events(service, job_id)  # wait for completion
        for method, path in [("PUT", f"/v1/jobs/{job_id}"),
                             ("DELETE", f"/v1/jobs/{job_id}/events")]:
            with pytest.raises(urllib.error.HTTPError) as err:
                _call(service, method, path)
            assert err.value.code == 405
            assert "unsupported" in json.loads(err.value.read())["error"]


class ExplodingSession(Session):
    """Streams nothing: every request detonates at run time."""

    def stream(self, request):
        raise RuntimeError("boom at runtime")


class TestFailedJobEvents:
    def test_failed_job_stream_carries_typed_error(self):
        manager = JobManager(session=ExplodingSession(), workers=1)
        svc = ReproService(manager, port=0)
        svc.start()
        try:
            _, doc = _call(svc, "POST", "/v1/jobs",
                           {"request": SWEEP.to_dict()})
            job_id = doc["job"]["job_id"]
            events = _events(svc, job_id)
            errors = [ev for ev in events if ev["event"] == "error"]
            assert errors and errors[0]["error"] == "boom at runtime"
            assert errors[0]["error_type"] == "RuntimeError"
            assert "RuntimeError: boom at runtime" in errors[0]["traceback"]
            done = events[-1]
            assert done["event"] == "done" and done["state"] == "failed"
            assert done["error_type"] == "RuntimeError"
            assert "Traceback" in done["traceback"]
            _, doc = _call(svc, "GET", f"/v1/jobs/{job_id}")
            assert doc["job"]["state"] == "failed"
            assert doc["job"]["error_type"] == "RuntimeError"
            assert "boom at runtime" in doc["job"]["traceback"]
        finally:
            svc.stop()
            manager.shutdown(wait=False, cancel=True)


class TestMetricsEndpoint:
    def test_prometheus_exposition(self, service):
        # run a job through the service so the job counters exist
        _, doc = _call(service, "POST", "/v1/jobs",
                       {"request": SWEEP.to_dict()})
        _events(service, doc["job"]["job_id"])
        host, port = service.address
        with urllib.request.urlopen(
            f"http://{host}:{port}/v1/metrics"
        ) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            body = resp.read().decode("utf-8")
        assert "# TYPE repro_jobs_submitted counter" in body
        assert "repro_jobs_submitted" in body

    def test_job_gauges_read_live_state(self, session):
        manager = JobManager(session=session, workers=1)
        svc = ReproService(manager, port=0)
        svc.start()
        host, port = svc.address

        def gauges():
            with urllib.request.urlopen(
                f"http://{host}:{port}/v1/metrics"
            ) as resp:
                lines = resp.read().decode("utf-8").splitlines()
            return {name: line.split()[1] for line in lines
                    for name in ("repro_jobs_queue_depth",
                                 "repro_jobs_running", "repro_jobs_retained",
                                 "repro_fleet_leases_active")
                    if line.startswith(name + " ")}

        try:
            # rendered at 0 before any job ran, not absent
            assert gauges() == {"repro_jobs_queue_depth": "0",
                                "repro_jobs_running": "0",
                                "repro_jobs_retained": "0",
                                "repro_fleet_leases_active": "0"}
            _, doc = _call(svc, "POST", "/v1/jobs",
                           {"request": SWEEP.to_dict()})
            _events(svc, doc["job"]["job_id"])
            assert gauges() == {"repro_jobs_queue_depth": "0",
                                "repro_jobs_running": "0",
                                "repro_jobs_retained": "1",
                                "repro_fleet_leases_active": "0"}
        finally:
            svc.stop()
            manager.shutdown(wait=False, cancel=True)


class TestCancelOverHttp:
    def test_delete_cancels_mid_stream_without_leaking_workers(self):
        gated = GatedSession()
        manager = JobManager(session=gated, workers=1)
        svc = ReproService(manager, port=0)
        svc.start()
        try:
            sweep = SweepRequest(what="channel-width", grid=5,
                                 values=(6, 7, 8), execution=EXEC)
            _, doc = _call(svc, "POST", "/v1/jobs",
                           {"request": sweep.to_dict()})
            job_id = doc["job"]["job_id"]
            assert gated.first_row.wait(timeout=120)
            status, doc = _call(svc, "DELETE", f"/v1/jobs/{job_id}")
            assert status == 200 and doc["cancelled"] is True
            gated.release.set()
            events = _events(svc, job_id)  # runs until the terminal event
            assert events[-1] == {
                "event": "done", "state": "cancelled", "error": None,
                "job_id": job_id, "seq": events[-1]["seq"],
            }
            rows = [ev for ev in events if ev["event"] == "row"]
            assert 0 < len(rows) < 3  # stopped mid-sweep
            # no leaked workers: the single-slot pool takes new work
            gated.first_row.clear()
            _, doc = _call(svc, "POST", "/v1/jobs",
                           {"request": SWEEP.to_dict()})
            follow_id = doc["job"]["job_id"]
            follow_events = _events(svc, follow_id)
            assert follow_events[-1]["state"] == "done"
        finally:
            svc.stop()
            manager.shutdown(wait=False, cancel=True)


class TestJobErrorStatusCodes:
    def test_resume_without_store_is_400_not_404(self):
        manager = JobManager(session=Session(), workers=1)  # no store
        svc = ReproService(manager, port=0)
        svc.start()
        try:
            try:
                _call(svc, "POST", "/v1/jobs",
                      {"spec": SPEC.to_dict(), "resume": True})
                raise AssertionError("expected an HTTP error")
            except urllib.error.HTTPError as exc:
                # a configuration problem, not a missing resource
                assert exc.code == 400
                assert "artifact store" in json.loads(exc.read())["error"]
        finally:
            svc.stop()
            manager.shutdown(wait=False, cancel=True)


class TestArtifactsWithoutStore:
    def test_no_store_is_an_actionable_400(self):
        manager = JobManager(session=Session(), workers=1)  # no store
        svc = ReproService(manager, port=0)
        svc.start()
        try:
            try:
                _call(svc, "GET", "/v1/artifacts/anything.json")
                raise AssertionError("expected an HTTP error")
            except urllib.error.HTTPError as exc:
                assert exc.code == 400
                assert "--results-dir" in json.loads(exc.read())["error"]
        finally:
            svc.stop()
            manager.shutdown(wait=False, cancel=True)
