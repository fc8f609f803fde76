"""The crash journal: append, replay, and what a restart owes."""

import json
import warnings

import pytest

from repro.fleet import Journal, pending_submissions
from repro.utils.telemetry import GLOBAL


def _skipped() -> int:
    return GLOBAL.snapshot()["counters"].get("fleet.journal.skipped", 0)


def _submit(job_id, task=None, **extra):
    record = {"event": "submit", "job_id": job_id,
              "task": task or {"type": "sweep_request"}}
    record.update(extra)
    return record


def _state(job_id, state):
    return {"event": "state", "job_id": job_id, "state": state}


class TestAppendReplay:
    def test_round_trip_in_order(self, tmp_path):
        journal = Journal(tmp_path / "journal.ndjson")
        records = [_submit("job-1"), _state("job-1", "running"),
                   _state("job-1", "done")]
        for record in records:
            journal.append(record)
        assert journal.replay() == records

    def test_missing_file_replays_empty(self, tmp_path):
        assert Journal(tmp_path / "never-written.ndjson").replay() == []

    def test_truncated_tail_is_skipped(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        journal = Journal(path)
        journal.append(_submit("job-1"))
        journal.append(_state("job-1", "running"))
        # exactly what a crash mid-append leaves behind
        with open(path, "a") as fh:
            fh.write('{"event": "state", "job_id": "jo')
        before = _skipped()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # crash tail must stay silent
            records = journal.replay()
        assert len(records) == 2
        assert records[-1] == _state("job-1", "running")
        assert _skipped() == before  # tail truncation is not "corruption"

    def test_append_after_crash_tail_starts_a_new_line(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        journal = Journal(path)
        journal.append(_submit("job-1"))
        journal.append(_submit("job-2"))
        crashed = path.read_bytes()[:-10]  # job-2 cut short mid-append
        path.write_bytes(crashed)
        restarted = Journal(path)
        restarted.append(_submit("job-3"))
        restarted.append(_submit("job-4"))
        data = path.read_bytes()
        assert data.startswith(crashed)  # nothing cut or rewritten
        assert data.count(b"\n\n") == 0  # the tail is sealed only once
        with pytest.warns(RuntimeWarning, match=r":2: .*mid-file"):
            records = restarted.replay()
        assert [r["job_id"] for r in records] == ["job-1", "job-3", "job-4"]

    def test_terminated_tail_is_not_sealed_again(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        Journal(path).append(_submit("job-1"))
        Journal(path).append(_submit("job-2"))
        assert path.read_text().splitlines() == [
            json.dumps(_submit(j), sort_keys=True, separators=(",", ":"))
            for j in ("job-1", "job-2")]

    def test_blank_and_non_object_lines_are_skipped(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        journal = Journal(path)
        journal.append(_submit("job-1"))
        with open(path, "a") as fh:
            fh.write("\n[1, 2, 3]\n\"just a string\"\n")
        journal.append(_state("job-1", "done"))
        with pytest.warns(RuntimeWarning):
            assert journal.replay() == [_submit("job-1"),
                                        _state("job-1", "done")]

    def test_mid_file_corruption_warns_and_counts(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        journal = Journal(path)
        journal.append(_submit("job-1"))
        with open(path, "a") as fh:
            fh.write('{"event": "state", "job_id": "job-1", "sta\n')
        journal.append(_state("job-1", "running"))
        before = _skipped()
        with pytest.warns(RuntimeWarning, match=r":2: .*mid-file"):
            records = journal.replay()
        # the good records on either side of the damage both survive
        assert records == [_submit("job-1"), _state("job-1", "running")]
        assert _skipped() == before + 1

    def test_recovery_spans_mid_file_damage(self, tmp_path):
        # the headline property: a corrupt line must not cost us the
        # pending jobs recorded after it
        path = tmp_path / "journal.ndjson"
        journal = Journal(path)
        journal.append(_submit("job-1"))
        journal.append(_state("job-1", "done"))
        with open(path, "a") as fh:
            fh.write("%% not json at all %%\n")
        journal.append(_submit("job-2"))
        with pytest.warns(RuntimeWarning):
            next_id, pending = pending_submissions(journal.replay())
        assert next_id == 3
        assert [r["job_id"] for r in pending] == ["job-2"]

    def test_append_writes_one_compact_line(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        Journal(path).append(_submit("job-1"))
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["job_id"] == "job-1"
        assert ": " not in line  # compact separators, one line per record


class TestPendingSubmissions:
    def test_terminal_jobs_are_not_owed(self, tmp_path):
        records = [
            _submit("job-1"), _state("job-1", "running"),
            _state("job-1", "done"),
            _submit("job-2"), _state("job-2", "running"),
            _state("job-2", "failed"),
            _submit("job-3"), _state("job-3", "cancelled"),
        ]
        next_id, pending = pending_submissions(records)
        assert pending == []
        assert next_id == 4

    def test_inflight_jobs_come_back_in_order(self):
        records = [
            _submit("job-1"), _state("job-1", "running"),  # crashed mid-run
            _submit("job-2"),                              # never started
            _submit("job-3"), _state("job-3", "done"),
        ]
        next_id, pending = pending_submissions(records)
        assert [r["job_id"] for r in pending] == ["job-1", "job-2"]
        assert next_id == 4

    def test_next_id_clears_every_ordinal_ever_seen(self):
        records = [_submit("job-17"), _state("job-17", "done"),
                   {"event": "lease", "job_id": "job-41",
                    "lease_id": "lease-x", "worker": "w"}]
        next_id, _ = pending_submissions(records)
        assert next_id == 42

    def test_empty_journal_starts_at_one(self):
        assert pending_submissions([]) == (1, [])

    def test_requeue_after_running_still_pending(self):
        # lease expired, coordinator journaled the flip back to queued
        records = [_submit("job-1"), _state("job-1", "running"),
                   _state("job-1", "queued")]
        _, pending = pending_submissions(records)
        assert [r["job_id"] for r in pending] == ["job-1"]

    def test_malformed_ids_do_not_break_the_counter(self):
        records = [_submit("job-oops"), _submit("job-2")]
        next_id, pending = pending_submissions(records)
        assert next_id == 3
        assert len(pending) == 2
