"""Artifact retention: the index and age/count collection."""

import json
import os

import pytest

from repro.fleet import Journal, artifact_index, gc_artifacts
from repro.service import ArtifactStore
from repro.service.artifacts import REQUEST_LOG

DAY = 86400.0
NOW = 1_700_000_000.0  # a fixed "current time" for age math


def _spec_unit(store, name, age_days, files=2, payload=b"x" * 100):
    """Fabricate one spec-run directory aged ``age_days``."""
    spec_dir = store.root / "specs" / name
    spec_dir.mkdir(parents=True)
    mtime = NOW - age_days * DAY
    for i in range(files):
        path = spec_dir / f"{i:02d}-stage.json"
        path.write_bytes(payload)
        os.utime(path, (mtime, mtime))
    return f"specs/{name}"


def _request_unit(store, stem, age_days, payload=b"y" * 50):
    """Fabricate one bare-request artifact aged ``age_days``."""
    requests_dir = store.root / "requests"
    requests_dir.mkdir(parents=True, exist_ok=True)
    path = requests_dir / f"{stem}.json"
    path.write_bytes(payload)
    mtime = NOW - age_days * DAY
    os.utime(path, (mtime, mtime))
    return f"requests/{stem}.json"


def _log_requests(store, *relpaths):
    """Append one request-log record per relpath."""
    log = Journal(store.path_for(REQUEST_LOG))
    for relpath in relpaths:
        log.append({"request": {"type": relpath}, "path": relpath,
                    "status": "done"})


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "results")


class TestIndex:
    def test_empty_store(self, store):
        assert artifact_index(store) == []

    def test_units_newest_first_with_sizes(self, store):
        _spec_unit(store, "old-run", age_days=10, files=3)
        _spec_unit(store, "new-run", age_days=1, files=2)
        _request_unit(store, "sweep_request-abc", age_days=5)
        entries = artifact_index(store)
        assert [e.name for e in entries] == \
            ["new-run", "sweep_request-abc", "old-run"]
        by_name = {e.name: e for e in entries}
        assert by_name["old-run"].kind == "spec"
        assert by_name["old-run"].files == 3
        assert by_name["old-run"].bytes == 300
        assert by_name["sweep_request-abc"].kind == "request"
        assert by_name["sweep_request-abc"].files == 1

    def test_request_manifest_is_not_a_unit(self, store):
        _request_unit(store, "manifest", age_days=1)
        assert artifact_index(store) == []

    def test_request_log_is_not_a_unit(self, store):
        _log_requests(store, "requests/sweep_request-abc.json")
        assert artifact_index(store) == []

    def test_journal_is_never_indexed(self, store):
        (store.root / "journal.ndjson").write_text('{"event":"submit"}\n')
        assert artifact_index(store) == []

    def test_entry_to_dict_round_trips(self, store):
        _spec_unit(store, "run", age_days=2)
        (entry,) = artifact_index(store)
        doc = entry.to_dict()
        assert doc["kind"] == "spec" and doc["relpath"] == "specs/run"


class TestAgeRetention:
    def test_old_units_collected(self, store):
        old = _spec_unit(store, "ancient", age_days=30)
        _spec_unit(store, "fresh", age_days=1)
        report = gc_artifacts(store, max_age_days=7, now=NOW)
        assert report.deleted == 1 and report.kept == 1
        assert report.removed == [old]
        assert not (store.root / "specs" / "ancient").exists()
        assert (store.root / "specs" / "fresh").exists()

    def test_bytes_freed_accounted(self, store):
        _spec_unit(store, "ancient", age_days=30, files=2,
                   payload=b"z" * 100)
        report = gc_artifacts(store, max_age_days=7, now=NOW)
        assert report.bytes_freed == 200


class TestCountRetention:
    def test_keeps_the_newest_n(self, store):
        for i, age in enumerate([1, 3, 5, 7]):
            _spec_unit(store, f"run-{i}", age_days=age)
        report = gc_artifacts(store, max_count=2, now=NOW)
        assert report.deleted == 2 and report.kept == 2
        assert set(report.removed) == {"specs/run-2", "specs/run-3"}
        assert (store.root / "specs" / "run-0").exists()
        assert (store.root / "specs" / "run-1").exists()

    def test_age_applies_before_count(self, store):
        _spec_unit(store, "ancient", age_days=30)
        _spec_unit(store, "fresh", age_days=1)
        # ancient dies of age; count=2 then keeps the lone survivor
        report = gc_artifacts(store, max_age_days=7, max_count=2, now=NOW)
        assert report.deleted == 1 and report.kept == 1


class TestSafety:
    def test_no_bounds_is_a_no_op(self, store):
        _spec_unit(store, "run", age_days=1000)
        report = gc_artifacts(store, now=NOW)
        assert report.deleted == 0 and report.kept == 1
        assert (store.root / "specs" / "run").exists()

    def test_dry_run_reports_without_removing(self, store):
        doomed = _spec_unit(store, "ancient", age_days=30)
        report = gc_artifacts(store, max_age_days=7, dry_run=True, now=NOW)
        assert report.dry_run is True
        assert report.deleted == 1 and report.removed == [doomed]
        assert (store.root / "specs" / "ancient").exists()

    def test_removed_request_leaves_the_manifest(self, store):
        relpath = _request_unit(store, "sweep_request-abc", age_days=30)
        _request_unit(store, "sweep_request-def", age_days=1)
        _log_requests(store, relpath, "requests/sweep_request-def.json")
        gc_artifacts(store, max_age_days=7, now=NOW)
        manifest = store.request_manifest()
        assert relpath not in manifest
        assert "requests/sweep_request-def.json" in manifest

    def test_one_pass_rewrites_the_log_once(self, store, monkeypatch):
        doomed = [_request_unit(store, f"map_request-{i}", age_days=30)
                  for i in range(3)]
        fresh = _request_unit(store, "map_request-new", age_days=1)
        _log_requests(store, *doomed, fresh, fresh)
        writes = []
        real_write = store._write_text

        def write_text(relpath, text):
            writes.append(relpath)
            return real_write(relpath, text)

        monkeypatch.setattr(store, "_write_text", write_text)
        report = gc_artifacts(store, max_age_days=7, now=NOW)
        assert sorted(report.removed) == sorted(doomed)
        assert writes == [REQUEST_LOG]
        lines = store.read_bytes(REQUEST_LOG).decode().splitlines()
        assert [json.loads(line)["path"] for line in lines] == [fresh]

    def test_dry_run_leaves_the_log(self, store):
        relpath = _request_unit(store, "map_request-old", age_days=30)
        _log_requests(store, relpath)
        before = store.read_bytes(REQUEST_LOG)
        gc_artifacts(store, max_age_days=7, dry_run=True, now=NOW)
        assert store.read_bytes(REQUEST_LOG) == before

    def test_legacy_manifest_is_folded_then_pruned(self, store):
        old = _request_unit(store, "map_request-old", age_days=30)
        new = _request_unit(store, "map_request-new", age_days=1)
        legacy = store.root / "requests" / "manifest.json"
        legacy.write_text(json.dumps({"requests": {
            relpath: {"path": relpath, "status": "done"}
            for relpath in (old, new)}}))
        assert [e.relpath for e in artifact_index(store)] == [new, old]
        gc_artifacts(store, max_age_days=7, now=NOW)
        assert not legacy.exists()
        assert list(store.request_manifest()) == [new]

    def test_damaged_legacy_manifest_does_not_stop_gc(self, store):
        old = _request_unit(store, "map_request-old", age_days=30)
        legacy = store.root / "requests" / "manifest.json"
        legacy.write_text("]]")
        report = gc_artifacts(store, max_age_days=7, now=NOW)
        assert report.removed == [old]
        assert not store.exists(old)
        assert legacy.read_text() == "]]"

    def test_report_to_dict(self, store):
        _spec_unit(store, "ancient", age_days=30)
        doc = gc_artifacts(store, max_age_days=7, now=NOW).to_dict()
        assert doc["scanned"] == 1 and doc["deleted"] == 1
        assert doc["removed"] == ["specs/ancient"]
