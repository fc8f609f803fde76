"""JobManager: lifecycle, progress, cancellation, resume, grid fan-out."""

import multiprocessing
import os
import signal
import threading
from contextlib import contextmanager

import pytest

from repro.api import (
    ExecutionConfig,
    ExperimentSpec,
    MapRequest,
    Session,
    SweepRequest,
)
from repro.errors import JobCancelled, JobError, SpecError
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    ArtifactStore,
    JobManager,
    TERMINAL_STATES,
)
from repro.service.jobs import QUEUED, RUNNING

EXEC = ExecutionConfig(effort=0.2)

SWEEP = SweepRequest(what="channel-width", grid=5, values=(6, 7, 8),
                     execution=EXEC)

SPEC = ExperimentSpec(
    name="job-spec",
    workload="adder",
    arch={"grid": 5, "width": 7},
    execution=EXEC,
    stages=(
        {"stage": "map", "contexts": 2},
        {"stage": "sweep", "what": "channel-width", "values": [6, 7]},
        {"stage": "report"},
    ),
)


@pytest.fixture(scope="module")
def session():
    return Session()


@contextmanager
def counting_work():
    """Count the map handler's ``map_program`` calls and the sweep
    point evaluations while the block runs."""
    import repro.analysis.sweep as sweep_mod
    import repro.api.session as session_mod

    calls = {"map": 0, "point": 0}
    real_map, real_point = session_mod.map_program, sweep_mod.evaluate_point

    def counting_map(*a, **k):
        calls["map"] += 1
        return real_map(*a, **k)

    def counting_point(*a, **k):
        calls["point"] += 1
        return real_point(*a, **k)

    session_mod.map_program = counting_map
    sweep_mod.evaluate_point = counting_point
    try:
        yield calls
    finally:
        session_mod.map_program = real_map
        sweep_mod.evaluate_point = real_point


@pytest.fixture(scope="module")
def manager(session):
    with JobManager(session=session, workers=2) as m:
        yield m


class GatedSession(Session):
    """Streams normally, but waits for :attr:`release` before every row
    after the first — so tests can deterministically cancel mid-stream."""

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


class TestRequestJobs:
    def test_result_matches_blocking_run(self, manager, session):
        handle = manager.submit(SWEEP)
        assert handle.result(timeout=120) == session.run(SWEEP)

    def test_status_counters(self, manager):
        handle = manager.submit(SWEEP)
        status = handle.status()
        assert status.rows_total == 3  # known before any work runs
        handle.wait(timeout=120)
        status = handle.status()
        assert status.state == DONE
        assert (status.rows_done, status.rows_total) == (3, 3)
        assert status.stage == "sweep"

    def test_events_bit_identical_to_blocking(self, manager, session):
        handle = manager.submit(SWEEP)
        handle.wait(timeout=120)
        rows = [ev["data"] for ev in handle.events() if ev["event"] == "row"]
        assert rows == [pt.to_dict() for pt in session.run(SWEEP).points]

    def test_events_replay_for_late_subscriber(self, manager):
        handle = manager.submit(MapRequest(workload="adder", contexts=2,
                                           execution=EXEC))
        first = list(handle.events())
        second = list(handle.events())
        assert first == second
        assert first[0]["seq"] == 0
        assert first[-1]["event"] == "done"

    def test_submit_json_payload(self, manager, session):
        handle = manager.submit(SWEEP.to_dict())
        assert handle.result(timeout=120) == session.run(SWEEP)

    def test_failed_job_reports_its_error(self, session):
        with JobManager(session=session, workers=1) as m:
            bad = SweepRequest(what="channel-width", grid=5, values=(6,),
                               execution=EXEC)
            object.__setattr__(bad, "workload", "no-such-workload")
            handle = m.submit(bad)
            status = handle.wait(timeout=120)
            assert status.state == FAILED
            assert status.error
            with pytest.raises(Exception, match="no-such-workload"):
                handle.result(timeout=1)

    def test_failed_job_carries_type_and_traceback(self, session):
        with JobManager(session=session, workers=1) as m:
            bad = SweepRequest(what="channel-width", grid=5, values=(6,),
                               execution=EXEC)
            object.__setattr__(bad, "workload", "no-such-workload")
            handle = m.submit(bad)
            status = handle.wait(timeout=120)
            assert status.state == FAILED
            assert status.error_type  # the exception's class name
            assert "no-such-workload" in status.traceback
            assert "Traceback (most recent call last):" in status.traceback
            doc = status.to_dict()
            assert doc["error_type"] == status.error_type
            assert doc["traceback"] == status.traceback
            events = list(handle.events())
            errs = [ev for ev in events if ev["event"] == "error"]
            assert errs and errs[0]["error_type"] == status.error_type
            assert "no-such-workload" in errs[0]["traceback"]
            done = events[-1]
            assert done["event"] == "done" and done["state"] == FAILED
            assert done["error_type"] == status.error_type
            assert "no-such-workload" in done["traceback"]

    def test_successful_job_status_has_no_error_fields(self, manager):
        handle = manager.submit(MapRequest(workload="adder", contexts=2,
                                           execution=EXEC))
        status = handle.wait(timeout=120)
        assert status.state == DONE
        assert status.error is None
        assert status.error_type is None and status.traceback is None
        done = list(handle.events())[-1]
        assert done["error"] is None
        assert "error_type" not in done and "traceback" not in done

    def test_unknown_job_id(self, manager):
        with pytest.raises(JobError, match="unknown job id"):
            manager.handle("job-999999")


class TestSpecJobs:
    def test_result_matches_run_spec(self, manager, session):
        handle = manager.submit(SPEC)
        assert handle.result(timeout=300) == session.run_spec(SPEC)

    def test_rows_total_spans_stages(self, manager):
        handle = manager.submit(SPEC)
        assert handle.status().rows_total == 1 + 2 + 1  # map+sweep+report
        status = handle.wait(timeout=300)
        assert status.rows_done == status.rows_total == 4

    def test_stage_events_in_order(self, manager):
        handle = manager.submit(SPEC)
        handle.wait(timeout=300)
        stages = [ev["stage"] for ev in handle.events()
                  if ev["event"] == "stage"]
        assert stages == ["map", "sweep", "report"]


class TestCancellation:
    def test_cancel_queued_job(self, session):
        gated = GatedSession()
        with JobManager(session=gated, workers=1) as m:
            running = m.submit(SWEEP)   # occupies the only worker
            queued = m.submit(SWEEP)
            assert gated.first_row.wait(timeout=60)
            assert queued.cancel()
            assert queued.wait(timeout=10).state == CANCELLED
            assert queued.status().rows_done == 0
            gated.release.set()
            assert running.wait(timeout=120).state == DONE

    def test_cancel_running_job_stops_at_row_boundary(self):
        gated = GatedSession()
        with JobManager(session=gated, workers=1) as m:
            handle = m.submit(SWEEP)
            assert gated.first_row.wait(timeout=60)
            assert handle.cancel()
            gated.release.set()
            status = handle.wait(timeout=60)
            assert status.state == CANCELLED
            assert 0 < status.rows_done < status.rows_total
            with pytest.raises(JobCancelled):
                handle.result(timeout=1)
            # the worker slot is free again: a follow-up job completes
            gated.first_row.clear()
            follow_up = m.submit(MapRequest(workload="adder", contexts=2,
                                            execution=EXEC))
            assert follow_up.wait(timeout=120).state == DONE

    def test_cancel_terminal_job_is_a_noop(self, manager):
        handle = manager.submit(MapRequest(workload="adder", contexts=2,
                                           execution=EXEC))
        handle.wait(timeout=120)
        assert handle.cancel() is False

    def test_cancelled_events_end_with_done(self):
        gated = GatedSession()
        with JobManager(session=gated, workers=1) as m:
            handle = m.submit(SWEEP)
            assert gated.first_row.wait(timeout=60)
            handle.cancel()
            gated.release.set()
            handle.wait(timeout=60)
            events = list(handle.events())
            assert events[-1] == {
                "event": "done", "state": CANCELLED, "error": None,
                "job_id": handle.job_id, "seq": events[-1]["seq"],
            }


class TestResume:
    def test_resume_requires_store(self, manager):
        with pytest.raises(JobError, match="artifact store"):
            manager.submit(SPEC, resume=True)

    def test_resume_replays_without_recomputing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with counting_work() as fresh, \
                JobManager(session=Session(), workers=1, store=store) as m:
            first = m.submit(SPEC)
            first_result = first.result(timeout=300)
            first_rows = [ev["data"] for ev in first.events()
                          if ev["event"] == "row"]
        # the spies sit on what a fresh run calls
        assert fresh["map"] >= 1 and fresh["point"] >= 1, fresh

        # a *fresh* manager and session: nothing cached in memory, so
        # any recomputation would have to rebuild substrates and route
        with counting_work() as calls, \
                JobManager(session=Session(), workers=1, store=store) as m:
            second = m.submit(SPEC, resume=True)
            second_result = second.result(timeout=300)
            second_rows = [ev["data"] for ev in second.events()
                           if ev["event"] == "row"]

        assert calls == {"map": 0, "point": 0}, (
            "resume must load completed stages from artifacts, "
            f"not recompute them: {calls}"
        )
        assert second_rows == first_rows  # replayed streams bit-identical
        assert second_result.to_dict() == first_result.to_dict()
        skipped = [ev for ev in second.events() if ev["event"] == "stage"
                   and ev.get("skipped")]
        assert len(skipped) == 2  # map + sweep; report recomputes

    def test_resume_with_corrupted_artifact_fails_actionably(self,
                                                             tmp_path):
        store = ArtifactStore(tmp_path)
        with JobManager(session=Session(), workers=1, store=store) as m:
            m.submit(SPEC).result(timeout=300)
            manifest = store.load_manifest(SPEC)
            store.path_for(manifest["stages"]["1"]["path"]) \
                .write_text("{broken")
            handle = m.submit(SPEC, resume=True)
            status = handle.wait(timeout=60)
            assert status.state == FAILED
            with pytest.raises(SpecError, match="delete the file"):
                handle.result(timeout=1)


class TestGridFanOut:
    GRID_SPEC = ExperimentSpec(
        name="grid-spec",
        workload="adder",
        arch={"grid": 5, "width": 7},
        execution=EXEC,
        stages=({"stage": "map", "contexts": 2},),
        grid={"workloads": ["adder", "cmp"]},
    )

    def test_children_and_aggregation(self, session):
        with JobManager(session=session, workers=2) as m:
            handle = m.submit(self.GRID_SPEC)
            results = handle.result(timeout=300)
            status = handle.status()
            assert status.kind == "grid"
            assert len(status.children) == 2
            assert [r.name for r in results] == [
                "grid-spec[adder.g5w7]", "grid-spec[cmp.g5w7]",
            ]
            assert [r.workload for r in results] == ["adder", "cmp"]
            assert status.rows_done == status.rows_total == 2

    def test_children_share_the_session_caches(self):
        from repro.api import workloads as workloads_mod

        builds = []
        real = workloads_mod.build_circuit

        def counting(name):
            builds.append(name)
            return real(name)

        workloads_mod.build_circuit = counting
        # Session.circuit calls the module function via its import —
        # patch the symbol Session actually uses
        import repro.api.session as session_mod
        session_mod.build_circuit = counting
        try:
            spec = ExperimentSpec.from_dict(dict(
                self.GRID_SPEC.to_dict(),
                name="grid-cache-spec",
                grid={"workloads": ["adder"],
                      "archs": [{"grid": 5, "width": 6},
                                {"grid": 5, "width": 8}]},
            ))
            with JobManager(session=Session(), workers=2) as m:
                m.submit(spec).result(timeout=300)
        finally:
            workloads_mod.build_circuit = real
            session_mod.build_circuit = real
        # two children, one workload: the shared session built it once
        assert builds.count("adder") == 1

    def test_cancel_grid_cancels_children(self):
        gated = GatedSession()
        # a multi-row stage, so the gate reliably holds the first child
        # mid-stream while the second is still queued
        spec = ExperimentSpec(
            name="grid-cancel",
            workload="adder",
            arch={"grid": 5, "width": 7},
            execution=EXEC,
            stages=({"stage": "sweep", "what": "channel-width",
                     "values": [6, 7, 8]},),
            grid={"workloads": ["adder", "cmp"]},
        )
        with JobManager(session=gated, workers=1) as m:
            handle = m.submit(spec)
            assert gated.first_row.wait(timeout=120)
            assert handle.cancel()
            gated.release.set()
            status = handle.wait(timeout=60)
            assert status.state == CANCELLED
            for child_id in status.children:
                assert m.handle(child_id).status().state in TERMINAL_STATES


    def test_cancel_during_grid_submission(self, session):
        m = JobManager(session=session, executor="external")
        register = m._register

        def register_then_cancel(job):
            # the parent's id is visible from here on (GET /v1/jobs)
            register(job)
            if job.kind == "grid":
                assert m.cancel(job.job_id)

        m._register = register_then_cancel
        try:
            status = m.submit(self.GRID_SPEC).wait(timeout=10)
            assert status.state == CANCELLED
            assert [m.handle(c).status().state for c in status.children] \
                == [CANCELLED, CANCELLED]
        finally:
            m.shutdown(wait=False, cancel=True)


class TestManagerLifecycle:
    def test_submit_after_shutdown(self, session):
        m = JobManager(session=session, workers=1)
        m.shutdown()
        with pytest.raises(JobError, match="shut down"):
            m.submit(SWEEP)

    def test_bad_workers(self, session):
        with pytest.raises(JobError):
            JobManager(session=session, workers=0)

    def test_jobs_listing(self, session):
        with JobManager(session=session, workers=1) as m:
            a = m.submit(MapRequest(workload="adder", contexts=2,
                                    execution=EXEC))
            a.wait(timeout=120)
            listed = m.jobs()
            assert [s.job_id for s in listed] == [a.job_id]
            assert listed[0].to_dict()["type"] == "job_status"


class TestCancelThenResume:
    """The acceptance loop: cancel a spec mid-stream, resubmit with
    resume — stages that finished before the cancel load from the
    artifact store (zero recompute, counter-asserted), the interrupted
    stage recomputes, and the final result equals a clean run."""

    SPEC = ExperimentSpec(
        name="cancel-resume",
        workload="adder",
        arch={"grid": 5, "width": 7},
        execution=EXEC,
        stages=(
            {"stage": "map", "contexts": 2},
            {"stage": "sweep", "what": "channel-width",
             "values": [6, 7, 8]},
        ),
    )

    def test_lifecycle(self, tmp_path):
        store = ArtifactStore(tmp_path)
        gated = GatedSession()
        with counting_work() as fresh, \
                JobManager(session=gated, workers=1, store=store) as m:
            handle = m.submit(self.SPEC)
            # follow live events until the sweep stage starts rowing,
            # then cancel: map is already persisted, sweep is mid-grid
            for ev in handle.events():
                if ev["event"] == "row" and ev["stage"] == "sweep":
                    handle.cancel()
                    gated.release.set()
                    break
            assert handle.wait(timeout=120).state == CANCELLED
        completed = store.completed_stages(self.SPEC)
        assert list(completed) == [0]  # map survived, sweep didn't
        # the spies sit on what the interrupted run called
        assert fresh["map"] >= 1 and fresh["point"] >= 1, fresh

        with counting_work() as calls, \
                JobManager(session=Session(), workers=1, store=store) as m:
            resumed = m.submit(self.SPEC, resume=True).result(timeout=300)

        # the completed map stage loaded from the store; only the
        # interrupted sweep recomputed (one routing call per value)
        assert calls == {"map": 0, "point": 3}, calls
        clean = Session().run_spec(self.SPEC)
        assert resumed.to_dict() == clean.to_dict()


class TestRetention:
    def test_oldest_terminal_jobs_pruned(self, session):
        with JobManager(session=session, workers=1, retain=2) as m:
            handles = [m.submit(MapRequest(workload="adder", contexts=2,
                                           execution=EXEC))
                       for _ in range(4)]
            for h in handles:
                h.wait(timeout=120)
            m.submit(MapRequest(workload="cmp", contexts=2,
                                execution=EXEC)).wait(timeout=120)
            listed = [s.job_id for s in m.jobs()]
            assert len(listed) == 2  # oldest three pruned
            assert handles[0].job_id not in listed
            # a live handle to a pruned job still answers
            assert handles[0].status().state == DONE
            with pytest.raises(JobError, match="unknown job id"):
                m.handle(handles[0].job_id)

    def test_bad_retain(self, session):
        with pytest.raises(JobError, match="retain"):
            JobManager(session=session, workers=1, retain=0)


class TestGridFastChildren:
    def test_instant_children_all_aggregate(self, tmp_path):
        """A child finishing while later siblings are still being
        submitted must not conclude the grid early — resume-replayed
        children complete in milliseconds, making this a real path."""
        spec = ExperimentSpec(
            name="fast-grid",
            workload="adder",
            arch={"grid": 5, "width": 7},
            execution=EXEC,
            stages=({"stage": "map", "contexts": 2},),
            grid={"workloads": ["adder", "cmp"]},
        )
        store = ArtifactStore(tmp_path)
        with JobManager(session=Session(), workers=2, store=store) as m:
            m.submit(spec).result(timeout=300)  # populate artifacts
            for _ in range(3):  # replayed children are near-instant
                handle = m.submit(spec, resume=True)
                results = handle.result(timeout=300)
                assert len(results) == 2, "grid finished before all " \
                    "children were aggregated"
                status = handle.status()
                assert status.rows_done == status.rows_total == 2


class TestProcessLoop:
    """Process jobs run in the local loop, watched through their child:
    no lease, a cancel within one poll, a dead child a typed failure."""

    #: one quick analytic row, then seconds of yield campaign: the
    #: child is still busy whenever a test acts on the first row
    SLOW_SPEC = ExperimentSpec(
        name="process-loop",
        workload="adder",
        arch={"grid": 5, "width": 7},
        execution=EXEC,
        stages=(
            {"stage": "sweep", "what": "change-rate", "values": [0.1]},
            {"stage": "yield", "rates": [0.02, 0.04, 0.06],
             "trials": 500},
        ),
    )

    @staticmethod
    def _children(job_id):
        return [p for p in multiprocessing.active_children()
                if p.name == f"repro-fleet-{job_id}"]

    def _first_row(self, manager):
        handle = manager.submit(self.SLOW_SPEC)
        for event in handle.events(timeout=120):
            if event["event"] == "row":
                return handle
        raise AssertionError("the job finished without a row")

    def test_cancel_running_process_job(self):
        with JobManager(workers=1, executor="process") as m:
            handle = self._first_row(m)
            assert m.leases.active() == 0  # local jobs hold no lease
            assert handle.cancel()
            assert handle.wait(timeout=30).state == CANCELLED
            events = list(handle.events())
            assert [ev["event"] for ev in events].count("done") == 1
            assert (events[-1]["event"], events[-1]["state"]) == \
                ("done", CANCELLED)
            assert self._children(handle.job_id) == []

    def test_killed_child_fails_the_job(self):
        with JobManager(workers=1, executor="process") as m:
            handle = self._first_row(m)
            (child,) = self._children(handle.job_id)
            os.kill(child.pid, signal.SIGKILL)
            status = handle.wait(timeout=30)
            assert (status.state, status.error_type) == (FAILED, "JobError")
            assert handle.job_id in status.error


class TestLifecycleTable:
    def test_move_follows_the_table(self, session):
        m = JobManager(session=session, executor="external")
        try:
            handle = m.submit(SWEEP)
            job = handle._job
            with pytest.raises(JobError, match="from queued to done"):
                m._move(job, DONE)
            with pytest.raises(JobError, match="from queued to done"):
                m._finish(job, DONE)
            assert handle.status().state == QUEUED
            assert handle.cancel()
            log = list(handle.events())
            # a terminal job stays put, and its log ends with `done`
            assert m._move(job, RUNNING) is False
            assert handle.status().state == CANCELLED
            assert list(handle.events()) == log
        finally:
            m.shutdown(wait=False, cancel=True)
