"""Crash-safe coordinator: journal recovery, in-process and for real.

The in-process tests drive :meth:`JobManager.recover` directly; the
integration test SIGKILLs a live ``repro serve`` mid-spec and asserts
the restarted coordinator resumes the journaled job, replays the
finished stages from the artifact store instead of recomputing, and
streams rows bit-identical to a clean run.
"""

import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.api import ExecutionConfig, ExperimentSpec, MapRequest, Session
from repro.service import ArtifactStore, JobManager

REPO_ROOT = Path(__file__).resolve().parents[2]

EXEC = ExecutionConfig(effort=0.2)

SPEC = ExperimentSpec(
    name="resume-spec",
    workload="adder",
    arch={"grid": 5, "width": 7},
    execution=EXEC,
    stages=(
        {"stage": "map", "contexts": 2},
        {"stage": "sweep", "what": "channel-width", "values": [6, 7]},
        {"stage": "report"},
    ),
)


class CountingSession(Session):
    """Counts ``stream`` calls: a replayed stage must never stream."""

    def __init__(self):
        super().__init__()
        self.stream_calls = 0

    def stream(self, request):
        self.stream_calls += 1
        return super().stream(request)


@pytest.fixture(scope="module")
def session():
    return Session()


class TestRecover:
    def test_pending_job_resumes_under_its_original_id(self, session,
                                                       tmp_path):
        store = ArtifactStore(tmp_path / "results")
        # a clean run populates the artifacts (and the journal)
        first = JobManager(session=session, workers=1, store=store)
        handle = first.submit(SPEC)
        handle.result(timeout=120)
        clean_rows = [ev["data"] for ev in handle.events()
                      if ev["event"] == "row"]
        first.shutdown(wait=True)
        # a second coordinator accepts the same spec again but
        # "crashes" (external executor: nothing ever runs it)
        crashed = JobManager(session=session, workers=1, store=store,
                             executor="external")
        assert crashed.recover() == []  # job-1 went terminal
        resubmitted = crashed.submit(SPEC.to_dict())
        job_id = resubmitted.job_id
        assert job_id == "job-2"  # the id counter cleared the journal
        crashed.shutdown(wait=False)
        # the restarted coordinator owes exactly that job
        counting = CountingSession()
        restarted = JobManager(session=counting, workers=1, store=store)
        recovered = restarted.recover()
        try:
            assert [h.job_id for h in recovered] == [job_id]
            result = recovered[0].result(timeout=120)
            assert result.to_dict() == \
                session.run_spec(SPEC).to_dict()
            events = list(recovered[0].events())
            skipped = {ev["index"]: ev["skipped"] for ev in events
                       if ev["event"] == "stage"}
            # map + sweep replay from artifacts; reports always rebuild
            assert skipped == {0: True, 1: True, 2: False}
            assert counting.stream_calls == 0
            rows = [ev["data"] for ev in events if ev["event"] == "row"]
            assert rows == clean_rows
            # fresh ids keep counting past everything ever journaled
            follow = restarted.submit(SPEC, resume=True)
            assert int(follow.job_id.split("-")[1]) > 2
            follow.result(timeout=120)
        finally:
            restarted.shutdown(wait=True)

    def test_truncated_journal_tail_is_survivable(self, session,
                                                  tmp_path):
        store = ArtifactStore(tmp_path / "results")
        crashed = JobManager(session=session, workers=1, store=store,
                             executor="external")
        job_id = crashed.submit(SPEC).job_id
        crashed.shutdown(wait=False)
        # what a crash mid-append leaves behind
        with open(crashed.journal.path, "a") as fh:
            fh.write('{"event": "state", "job_id": "jo')
        restarted = JobManager(session=session, workers=1, store=store)
        try:
            recovered = restarted.recover()
            assert [h.job_id for h in recovered] == [job_id]
            recovered[0].result(timeout=120)
        finally:
            restarted.shutdown(wait=True)

    def test_malformed_priority_loses_one_job(self, session, tmp_path):
        """A journaled priority ``int()`` refuses skips that record;
        the valid submission after it is still resubmitted."""
        from repro.fleet.journal import JOURNAL_NAME, Journal

        store = ArtifactStore(tmp_path / "results")
        request = MapRequest(workload="adder", contexts=2, execution=EXEC)
        journal = Journal(tmp_path / "results" / JOURNAL_NAME)
        journal.append({"event": "submit", "job_id": "job-1",
                        "task": request.to_dict(), "priority": "high"})
        journal.append({"event": "submit", "job_id": "job-2",
                        "task": request.to_dict(), "priority": 0})
        restarted = JobManager(session=session, workers=1, store=store)
        try:
            recovered = restarted.recover()
            assert [h.job_id for h in recovered] == ["job-2"]
            recovered[0].result(timeout=120)
        finally:
            restarted.shutdown(wait=True)

    def test_recover_without_a_journal_is_empty(self, session):
        manager = JobManager(session=session, workers=1)  # no store
        try:
            assert manager.recover() == []
        finally:
            manager.shutdown(wait=False)

    def test_recovery_is_metered(self, session, tmp_path):
        from repro.utils.telemetry import GLOBAL

        store = ArtifactStore(tmp_path / "results")
        crashed = JobManager(session=session, workers=1, store=store,
                             executor="external")
        crashed.submit(SPEC)
        crashed.shutdown(wait=False)
        restarted = JobManager(session=session, workers=1, store=store)
        try:
            before = GLOBAL.counter("fleet.jobs.recovered")
            handles = restarted.recover()
            assert len(handles) == 1
            assert GLOBAL.counter("fleet.jobs.recovered") == before + 1
            handles[0].result(timeout=120)
        finally:
            restarted.shutdown(wait=True)


# -- the real thing: SIGKILL a live coordinator ---------------------------- #

CRASH_SPEC = {
    "schema_version": 1,
    "name": "crash-spec",
    "workload": "adder",
    "arch": {"grid": 6, "width": 8},
    "execution": {"backend": "sequential", "seed": 0, "effort": 0.3},
    "stages": [
        {"stage": "map", "contexts": 2},
        {"stage": "sweep", "what": "channel-width",
         "values": [6, 7, 8, 9, 10, 11]},
        {"stage": "yield", "rates": [0.0, 0.02, 0.04, 0.06],
         "trials": 24},
        {"stage": "report"},
    ],
}


class Coordinator:
    """One ``repro serve`` subprocess with a line-watching stdout."""

    READY = re.compile(r"listening on http://([\d.]+):(\d+)")

    def __init__(self, results_dir):
        env = dict(os.environ,
                   PYTHONPATH=str(REPO_ROOT / "src"),
                   PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--results-dir", str(results_dir), "--workers", "1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines = []
        self._queue = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()
        match = self.wait_line(self.READY)
        self.base = f"http://{match.group(1)}:{match.group(2)}"

    def _pump(self):
        for line in self.proc.stdout:
            self._queue.put(line)
        self._queue.put(None)

    def wait_line(self, pattern, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                line = self._queue.get(timeout=0.25)
            except queue.Empty:
                continue
            if line is None:
                break
            self.lines.append(line)
            match = pattern.search(line)
            if match:
                return match
        raise AssertionError(
            f"never saw {pattern.pattern!r} in server output:\n"
            + "".join(self.lines))

    def get(self, path):
        with urllib.request.urlopen(self.base + path, timeout=30) as resp:
            return json.loads(resp.read())

    def post(self, path, payload):
        request = urllib.request.Request(
            self.base + path, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as resp:
            return json.loads(resp.read())

    def kill(self):
        self.proc.kill()
        self.proc.wait(timeout=30)

    def terminate(self):
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=60)


class TestCoordinatorCrash:
    def test_sigkill_mid_spec_resumes_bit_identically(self, tmp_path):
        results = tmp_path / "results"
        manifest = results / "specs" / "crash-spec" / "manifest.json"

        first = Coordinator(results)
        try:
            job = first.post("/v1/jobs", {"spec": CRASH_SPEC})["job"]
            job_id = job["job_id"]
            # wait for the map stage's artifact, then pull the plug
            # mid-sweep — the crash this subsystem exists to survive
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if manifest.is_file() and \
                        "0" in json.loads(manifest.read_text())["stages"]:
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("stage-0 artifact never appeared")
            state = first.get(f"/v1/jobs/{job_id}")["job"]["state"]
            assert state == "running", \
                f"job already {state}; no crash window left"
        finally:
            first.kill()

        second = Coordinator(results)
        try:
            match = second.wait_line(
                re.compile(r"recovered (\d+) journaled job\(s\): (\S+)"))
            assert match.group(1) == "1" and match.group(2) == job_id
            deadline = time.monotonic() + 180.0
            while time.monotonic() < deadline:
                status = second.get(f"/v1/jobs/{job_id}")["job"]
                if status["state"] in ("done", "failed", "cancelled"):
                    break
                time.sleep(0.2)
            assert status["state"] == "done", status
            events = []
            with urllib.request.urlopen(
                    f"{second.base}/v1/jobs/{job_id}/events",
                    timeout=60) as resp:
                for line in resp:
                    events.append(json.loads(line))
            # the pre-crash map stage replayed from its artifact
            stage_events = {ev["index"]: ev for ev in events
                            if ev["event"] == "stage"}
            assert stage_events[0]["skipped"] is True
            assert stage_events[3]["skipped"] is False  # report rebuilt
            rows = [ev["data"] for ev in events if ev["event"] == "row"]
            # bit-identical to a clean single-process run of the spec
            spec = ExperimentSpec.from_dict(CRASH_SPEC)
            clean = Session()
            expected = [item.to_dict()
                        for kind, _i, _n, item
                        in clean.iter_spec_events(spec)
                        if kind == "row"]
            assert rows == expected
            # graceful exit: nothing live, so SIGTERM drains clean
            assert second.terminate() == 0
        finally:
            if second.proc.poll() is None:
                second.kill()
