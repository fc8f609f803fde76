"""Seeded interleavings of the job lifecycle on an external manager.

Each walk takes random steps — submit (request, spec or grid), cancel,
lease, post ``row``/``done``/``error`` events, crash a worker
mid-stream (post part of its events, then expire its lease), expire a
lease, abandon the manager and recover a new one on the same results
dir — and after every step checks that the live gauges match the job
table, that every terminal job's log ends in exactly one ``done`` event
(a finished one holding exactly its ``rows_total`` rows), and that no
lease outlives its job.  The walks record whether a job finished after
a lease expiry cut an attempt that had posted rows, and at least one
seed must reach that retry path.  Fixed cases pin what a retry logs
after a lease expiry.
"""

import random
import time
from collections import Counter

import pytest

from repro.api import (
    AreaRequest,
    ExecutionConfig,
    ExperimentSpec,
    Session,
    SweepRequest,
)
from repro.errors import JobError, LeaseExpired
from repro.fleet.worker import error_event, iter_task_events
from repro.service import ArtifactStore, JobManager
from repro.service.jobs import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
)

# analytic tasks: each computes in about a millisecond
TASKS = (
    AreaRequest(contexts=4),
    SweepRequest(what="change-rate", values=(0.05, 0.1, 0.2)),
    ExperimentSpec(
        name="walk-spec", workload="adder",
        stages=({"stage": "sweep", "what": "contexts", "values": [2, 4]},
                {"stage": "sweep", "what": "change-rate",
                 "values": [0.1, 0.2]},
                {"stage": "report"}),
    ),
    ExperimentSpec(
        name="walk-grid", workload="adder",
        stages=({"stage": "sweep", "what": "contexts", "values": [2, 4]},),
        grid={"workloads": ["adder", "cmp"]},
    ),
)

STEPS = 80
WAIT_S = 10.0


def _wait_until(predicate, what: str) -> None:
    deadline = time.monotonic() + WAIT_S
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.01)


class Walk:
    """One seeded random walk over a results dir."""

    def __init__(self, seed: int, root) -> None:
        self.rng = random.Random(seed)
        self.root = root
        self.session = Session()  # computes the workers' events
        self.manager = self._new_manager()
        # lease id -> wire events not yet posted; steps pick leases in
        # insertion order, as the ids themselves are random
        self.held: dict = {}
        #: leases whose attempt has posted a row and holds more events
        self.partial: set = set()
        #: jobs whose attempt was cut by a lease expiry after a partial
        #: post, and those of them that went on to finish
        self.cut: set = set()
        self.finished_after_cut: set = set()

    def _new_manager(self) -> JobManager:
        # a TTL no step outlives: leases expire only when a step says so
        return JobManager(session=Session(), store=ArtifactStore(self.root),
                          executor="external", lease_ttl=3600.0,
                          max_retries=1)

    def close(self) -> None:
        self.manager.shutdown(wait=False, cancel=True)

    # -- steps ------------------------------------------------------------ #
    def submit(self) -> None:
        self.manager.submit(self.rng.choice(TASKS),
                            resume=self.rng.random() < 0.3)

    def cancel(self) -> None:
        ids = [s.job_id for s in self.manager.jobs()]
        if ids:
            self.manager.cancel(self.rng.choice(ids))

    def lease(self) -> None:
        doc = self.manager.lease_job(worker="walker")
        if doc is not None:
            self.held[doc["lease_id"]] = list(
                iter_task_events(self.session, doc))

    def post(self) -> None:
        if not self.held:
            return
        lease_id = self.rng.choice(list(self.held))
        events = self.held.pop(lease_id)
        roll = self.rng.random()
        if roll < 0.2:
            batch, rest = [error_event(RuntimeError("walker failed"))], []
        elif roll < 0.6:
            batch, rest = events[:1], events[1:]
        else:
            batch, rest = events, []
        self._post(lease_id, batch, rest)

    def crash(self) -> None:
        """A worker posts part of its stream and dies: its lease
        expires with the rest unposted."""
        if not self.held:
            return
        lease_id = self.rng.choice(list(self.held))
        events = self.held.pop(lease_id)
        cut = self.rng.randrange(1, len(events)) if len(events) > 1 else 0
        self._post(lease_id, events[:cut], events[cut:])
        if lease_id in self.held:
            self._expire(lease_id)

    def expire(self) -> None:
        if self.held:
            self._expire(self.rng.choice(list(self.held)))

    def _post(self, lease_id: str, batch: list, rest: list) -> None:
        try:
            reply = self.manager.apply_worker_events(lease_id, batch)
        except LeaseExpired:
            return
        if rest and not reply["cancelled"]:
            self.held[lease_id] = rest
            if any(ev["event"] == "row" for ev in batch):
                self.partial.add(lease_id)

    def _expire(self, lease_id: str) -> None:
        del self.held[lease_id]
        try:
            lease = self.manager.leases.renew(lease_id)
        except LeaseExpired:
            return
        handle = self.manager.handle(lease.job.job_id)
        depth = self.manager.queue_depth()
        lease.deadline = time.monotonic() - 1.0
        # the monitor requeues the job, or fails it past its retries
        _wait_until(
            lambda: handle.status().state in TERMINAL_STATES
            or self.manager.queue_depth() == depth + 1,
            f"the expiry of {lease_id}",
        )
        if lease_id in self.partial:
            self.cut.add(handle.job_id)

    def recover(self) -> None:
        # abandon: no terminal records are journaled for live jobs
        self.manager.shutdown(wait=False)
        self.manager = self._new_manager()
        self.held.clear()
        self.partial.clear()
        self.cut.clear()  # a recovered job's log starts afresh
        self.manager.recover()

    ACTIONS = ((submit, 0.25), (cancel, 0.1), (lease, 0.2), (post, 0.3),
               (crash, 0.05), (expire, 0.1), (recover, 0.03))

    def step(self) -> None:
        actions, weights = zip(*self.ACTIONS)
        self.rng.choices(actions, weights)[0](self)

    # -- invariants ------------------------------------------------------- #
    def check(self) -> None:
        manager = self.manager
        gauges = manager.gauges()
        snaps = manager.jobs()
        states = Counter(s.state for s in snaps)
        assert gauges["jobs.queue_depth"] == states[QUEUED]
        assert gauges["jobs.running"] == states[RUNNING]
        assert gauges["jobs.retained"] == len(snaps)
        assert gauges["fleet.leases.active"] == manager.leases.active()
        # every running request/spec job holds exactly one lease, and
        # no lease outlives its job (grid parents run without one)
        leased = sorted(lease["job_id"]
                        for lease in manager.leases.snapshot())
        assert leased == sorted(s.job_id for s in snaps
                                if s.state == RUNNING and s.kind != "grid")
        for snap in snaps:
            if snap.state in TERMINAL_STATES:
                kinds = [ev["event"] for ev in
                         manager.handle(snap.job_id).events(timeout=WAIT_S)]
                assert kinds[-1] == "done" and kinds.count("done") == 1, \
                    (snap.job_id, kinds)
                if snap.state == DONE:
                    assert kinds.count("row") == snap.rows_total, \
                        (snap.job_id, kinds)
                    if snap.job_id in self.cut:
                        assert "requeued" in kinds, (snap.job_id, kinds)
                        self.finished_after_cut.add(snap.job_id)

    def finish(self) -> None:
        """Lease and complete everything still live."""
        deadline = time.monotonic() + WAIT_S
        while self.manager.live_jobs():
            assert time.monotonic() < deadline, "jobs never drained"
            for lease_id in list(self.held):
                try:
                    self.manager.apply_worker_events(
                        lease_id, self.held.pop(lease_id))
                except LeaseExpired:
                    pass  # its job was cancelled under the lease
            self.lease()
            self.check()


class RetryWalk(Walk):
    """A walk that reaches the retry path: workers crash mid-stream, and
    no cancel or recover ends the requeued job before it finishes."""

    ACTIONS = ((Walk.submit, 0.2), (Walk.lease, 0.25), (Walk.post, 0.35),
               (Walk.crash, 0.2))


def _walk(walk: Walk) -> Walk:
    try:
        for _ in range(STEPS):
            walk.step()
            walk.check()
        walk.finish()
        assert walk.manager.gauges() == {
            "jobs.queue_depth": 0, "jobs.running": 0,
            "jobs.retained": len(walk.manager.jobs()),
            "fleet.leases.active": 0,
        }
    finally:
        walk.close()
    return walk


@pytest.mark.parametrize("seed", range(6))
def test_seeded_lifecycle_walk(seed, tmp_path):
    _walk(Walk(seed, tmp_path / "results"))


@pytest.mark.parametrize("seed", range(2))
def test_retry_walk_finishes_a_job_cut_after_a_partial_post(seed, tmp_path):
    """An attempt posts rows, its lease expires, and the requeued job
    still finishes with each row logged once."""
    walk = _walk(RetryWalk(seed, tmp_path / "results"))
    assert walk.finished_after_cut, walk.cut


def _expire(manager: JobManager, lease_id: str) -> None:
    """Expire one lease now and wait for the monitor to requeue its job."""
    manager.leases.renew(lease_id).deadline = time.monotonic() - 1.0
    _wait_until(lambda: manager.queue_depth() == 1,
                f"the requeue after {lease_id}")


class TestRetryLog:
    """A retry streams from the start again; the log keeps each row and
    stage once, and a re-streamed row must match the logged one."""

    REQUEST = SweepRequest(what="change-rate", values=(0.05, 0.1, 0.2))

    @pytest.fixture
    def manager(self):
        manager = JobManager(session=Session(), executor="external",
                             lease_ttl=3600.0)
        yield manager
        manager.shutdown(wait=False, cancel=True)

    def test_requeued_request_logs_each_row_once(self, manager):
        session = Session()
        handle = manager.submit(self.REQUEST)
        doc = manager.lease_job(worker="dies")
        rows = [ev for ev in iter_task_events(session, doc)
                if ev["event"] == "row"]
        manager.apply_worker_events(doc["lease_id"], rows[:2])
        _expire(manager, doc["lease_id"])
        doc = manager.lease_job(worker="finishes")
        manager.apply_worker_events(doc["lease_id"],
                                    list(iter_task_events(session, doc)))
        log = list(handle.events(timeout=WAIT_S))
        assert [ev["event"] for ev in log] == [
            "status", "status", "row", "row", "requeued", "status",
            "status", "row", "done",
        ]
        assert [ev["data"] for ev in log if ev["event"] == "row"] == \
            [pt.to_dict() for pt in session.run(self.REQUEST).points]
        status = handle.status()
        assert (status.state, status.rows_done) == (DONE, 3)

    def test_retried_spec_logs_each_stage_once(self, tmp_path):
        spec = TASKS[2]
        session = Session()
        manager = JobManager(session=Session(),
                             store=ArtifactStore(tmp_path / "results"),
                             executor="external", lease_ttl=3600.0)
        try:
            handle = manager.submit(spec)
            doc = manager.lease_job(worker="dies")
            events = list(iter_task_events(session, doc))
            # the first stage's rows and stage event, one row past it
            cut = [ev["event"] for ev in events].index("stage") + 2
            manager.apply_worker_events(doc["lease_id"], events[:cut])
            _expire(manager, doc["lease_id"])
            doc = manager.lease_job(worker="finishes")
            assert "resume_completed" in doc  # the retry replays stage 0
            manager.apply_worker_events(doc["lease_id"],
                                        list(iter_task_events(session, doc)))
            log = list(handle.events(timeout=WAIT_S))
        finally:
            manager.shutdown(wait=False, cancel=True)
        assert log[-1]["state"] == DONE
        assert [ev["index"] for ev in log if ev["event"] == "stage"] == \
            [0, 1, 2]
        assert [ev["data"] for ev in log if ev["event"] == "row"] == [
            item.to_dict() for kind, _i, _n, item in
            session.iter_spec_events(spec) if kind == "row"
        ]

    def test_retry_may_differ_in_wall_clock_fields(self, manager):
        # a profiled row carries span times, which no two attempts share
        request = SweepRequest(what="channel-width", grid=5, values=(6, 7),
                               execution=ExecutionConfig(effort=0.2),
                               profile=True)
        handle = manager.submit(request)
        doc = manager.lease_job(worker="dies")
        first = list(iter_task_events(Session(), doc))
        manager.apply_worker_events(doc["lease_id"], first[:1])
        _expire(manager, doc["lease_id"])
        doc = manager.lease_job(worker="finishes")
        retry = list(iter_task_events(Session(), doc))
        assert retry[0]["data"]["profile"] != first[0]["data"]["profile"]
        manager.apply_worker_events(doc["lease_id"], retry)
        assert handle.wait(timeout=WAIT_S).state == DONE
        rows = [ev["data"] for ev in handle.events() if ev["event"] == "row"]
        assert rows == [first[0]["data"], retry[1]["data"]]

    def test_retry_streaming_a_different_row_fails_the_job(self, manager):
        session = Session()
        handle = manager.submit(self.REQUEST)
        doc = manager.lease_job(worker="dies")
        rows = [ev for ev in iter_task_events(session, doc)
                if ev["event"] == "row"]
        manager.apply_worker_events(doc["lease_id"], rows[:2])
        _expire(manager, doc["lease_id"])
        doc = manager.lease_job(worker="diverges")
        first = rows[0]
        manager.apply_worker_events(doc["lease_id"], [
            {**first, "data": {**first["data"], "cmos_ratio": -1.0}},
        ])
        status = handle.wait(timeout=WAIT_S)
        assert (status.state, status.error_type) == (FAILED, "JobError")
        assert handle.job_id in status.error
        with pytest.raises(JobError, match="differently"):
            handle.result(timeout=1)
