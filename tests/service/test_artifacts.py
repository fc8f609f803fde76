"""ArtifactStore: schema-contract persistence, resume keys, corruption."""

import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import ExecutionConfig, ExperimentSpec, MapRequest, Session
from repro.errors import JobError, SpecError
from repro.service import ArtifactStore
from repro.service.artifacts import (
    LEGACY_REQUEST_MANIFEST,
    REQUEST_LOG,
    _safe_name,
)


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.fixture(scope="module")
def spec():
    return ExperimentSpec(
        name="store-spec",
        workload="adder",
        arch={"grid": 5, "width": 7},
        execution=ExecutionConfig(effort=0.2),
        stages=(
            {"stage": "map", "contexts": 2},
            {"stage": "sweep", "what": "channel-width", "values": [6, 7]},
            {"stage": "report"},
        ),
    )


@pytest.fixture(scope="module")
def executed(session, spec):
    return session.run_spec(spec)


class TestPaths:
    def test_escape_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(JobError):
            store.path_for("../outside.json")

    def test_missing_artifact(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(JobError):
            store.read_bytes("specs/nope/manifest.json")

    def test_safe_name_keeps_grid_children_distinct(self):
        a = _safe_name("demo[adder.g5w7]")
        b = _safe_name("demo[crc.g5w7]")
        assert a != b
        assert "/" not in a and "[" not in a

    def test_safe_name_plain_names_unchanged(self):
        assert _safe_name("ci-smoke") == "ci-smoke"


class TestRequestArtifacts:
    def test_round_trip(self, tmp_path, session):
        store = ArtifactStore(tmp_path)
        request = MapRequest(workload="adder", contexts=2,
                             execution=ExecutionConfig(effort=0.2))
        result = session.run(request)
        relpath = store.save_request_result(request, result)
        assert store.exists(relpath)
        loaded = store.load_request_result(request)
        assert loaded == result

    def test_absent_is_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load_request_result(MapRequest()) is None

    def test_corrupted_raises_spec_error(self, tmp_path, session):
        store = ArtifactStore(tmp_path)
        request = MapRequest(workload="adder", contexts=2,
                             execution=ExecutionConfig(effort=0.2))
        result = session.run(request)
        relpath = store.save_request_result(request, result)
        store.path_for(relpath).write_text("{not json")
        with pytest.raises(SpecError, match="delete the file"):
            store.load_request_result(request)

    def test_concurrent_saves_of_one_request(self, tmp_path, session,
                                             monkeypatch):
        """Two writers saving one request's result never share a temp
        file.  Every round holds both writers between writing their
        temp file and renaming it over the result, so with a shared
        temp name the second rename finds the file already moved."""
        store = ArtifactStore(tmp_path)
        request = MapRequest(workload="adder", contexts=2,
                             execution=ExecutionConfig(effort=0.2))
        result = session.run(request)
        target = store.path_for(store.request_relpath(request))
        both_written = threading.Barrier(2, timeout=30)
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst) == target:
                both_written.wait()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        errors: list[Exception] = []

        def writer():
            try:
                for _ in range(50):
                    store.save_request_result(request, result)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)
                both_written.abort()  # release the other writer

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]
        assert store.load_request_result(request) == result
        assert not list(tmp_path.rglob("*.tmp"))


def _small_request(seed: int = 0) -> MapRequest:
    return MapRequest(workload="adder", contexts=2,
                      execution=ExecutionConfig(effort=0.2, seed=seed))


@pytest.fixture(scope="module")
def small_result(session):
    return session.run(_small_request())


class TestRequestLog:
    """The bare-request manifest: an append-only log, replayed by
    ``request_manifest`` with the last record per path winning."""

    def test_every_save_appends_one_record(self, tmp_path, small_result):
        store = ArtifactStore(tmp_path)
        paths = [store.save_request_result(_small_request(seed), small_result)
                 for seed in (1, 2, 1)]
        lines = store.read_bytes(REQUEST_LOG).decode().splitlines()
        assert [json.loads(line)["path"] for line in lines] == paths
        manifest = store.request_manifest()
        assert list(manifest) == paths[:2]
        entry = manifest[paths[0]]
        assert entry["status"] == "done"
        assert entry["request"] == _small_request(1).to_dict()
        assert store.exists(entry["path"])

    def test_artifacts_are_compact_json(self, tmp_path, small_result):
        store = ArtifactStore(tmp_path)
        relpath = store.save_request_result(_small_request(), small_result)
        text = store.read_bytes(relpath).decode()
        assert text == json.dumps(small_result.to_dict(), sort_keys=True,
                                  separators=(",", ":"))

    def test_crash_truncated_last_line_is_ignored(self, tmp_path,
                                                  small_result):
        store = ArtifactStore(tmp_path)
        kept = store.save_request_result(_small_request(1), small_result)
        store.save_request_result(_small_request(2), small_result)
        log = store.path_for(REQUEST_LOG)
        text = log.read_text()
        # a crash mid-append leaves the last record cut short
        log.write_text(text[:len(text) - len(text.splitlines()[-1]) // 2 - 1])
        assert list(ArtifactStore(tmp_path).request_manifest()) == [kept]

    def test_legacy_manifest_is_migrated_once(self, tmp_path, small_result):
        store = ArtifactStore(tmp_path)
        old = [store.request_relpath(_small_request(seed)) for seed in (1, 2)]
        legacy = {
            "schema_version": 1, "type": "artifact_manifest",
            "spec_name": None,
            "requests": {
                relpath: {"request": {"seed": seed}, "path": relpath,
                          "status": "done"}
                for seed, relpath in enumerate(old)
            },
        }
        (tmp_path / "requests").mkdir()
        (tmp_path / LEGACY_REQUEST_MANIFEST).write_text(json.dumps(legacy))
        new = store.save_request_result(_small_request(3), small_result)
        assert not (tmp_path / LEGACY_REQUEST_MANIFEST).exists()
        manifest = store.request_manifest()
        assert list(manifest) == old + [new]
        for relpath in old:
            assert manifest[relpath] == legacy["requests"][relpath]
        # a second store over the same dir finds nothing left to migrate
        log_bytes = store.read_bytes(REQUEST_LOG)
        assert ArtifactStore(tmp_path).request_manifest() == manifest
        assert store.read_bytes(REQUEST_LOG) == log_bytes

    def test_corrupted_legacy_manifest_raises_and_stays(self, tmp_path):
        (tmp_path / "requests").mkdir()
        legacy = tmp_path / LEGACY_REQUEST_MANIFEST
        legacy.write_text("{not json")
        with pytest.raises(SpecError, match="corrupted manifest"):
            ArtifactStore(tmp_path).request_manifest()
        assert legacy.read_text() == "{not json"

    def test_concurrent_saves_of_one_request_log_one_entry(
            self, tmp_path, small_result):
        store = ArtifactStore(tmp_path)
        request = _small_request()
        writers, saves = 4, 20  # more writers than a small host's cores
        start = threading.Barrier(writers, timeout=30)
        errors: list[Exception] = []

        def writer():
            try:
                start.wait()
                for _ in range(saves):
                    store.save_request_result(request, small_result)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer)
                       for _ in range(writers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]
        lines = store.read_bytes(REQUEST_LOG).decode().splitlines()
        # whole records, none interleaved or lost
        assert len(lines) == writers * saves
        assert all(json.loads(line)["status"] == "done" for line in lines)
        assert list(store.request_manifest()) == \
            [store.request_relpath(request)]
        assert store.load_request_result(request) == small_result

    def test_save_cost_is_flat_in_history(self, tmp_path, small_result):
        store = ArtifactStore(tmp_path)
        costs = []
        for seed in range(2000):
            request = _small_request(seed)
            t0 = time.perf_counter()
            store.save_request_result(request, small_result)
            costs.append(time.perf_counter() - t0)
        first, last = statistics.median(costs[:50]), \
            statistics.median(costs[-50:])
        assert last <= 2 * first, (first, last)
        assert len(store.request_manifest()) == 2000


class TestSpecArtifacts:
    def _populate(self, tmp_path, spec, executed):
        store = ArtifactStore(tmp_path)
        names = spec.stage_names()
        for index, result in enumerate(executed.stages):
            store.save_stage(spec, index, names[index],
                             spec.stages[index]["stage"], result)
        return store

    def test_manifest_records_every_stage(self, tmp_path, spec, executed):
        store = self._populate(tmp_path, spec, executed)
        manifest = store.load_manifest(spec)
        assert manifest["spec_name"] == spec.name
        assert sorted(manifest["stages"]) == ["0", "1", "2"]
        for entry in manifest["stages"].values():
            assert entry["status"] == "done"
            assert store.exists(entry["path"])

    def test_completed_restores_typed_results(self, tmp_path, spec,
                                              executed):
        store = self._populate(tmp_path, spec, executed)
        completed = store.completed_stages(spec)
        # reports always recompute, so only map + sweep are restorable
        assert sorted(completed) == [0, 1]
        assert completed[0] == executed.stages[0]
        assert completed[1] == executed.stages[1]

    def test_no_manifest_means_nothing_completed(self, tmp_path, spec):
        assert ArtifactStore(tmp_path).completed_stages(spec) == {}

    def test_stale_key_recomputes(self, tmp_path, spec, executed):
        store = self._populate(tmp_path, spec, executed)
        edited = ExperimentSpec.from_dict(dict(
            spec.to_dict(),
            stages=[
                dict(spec.stages[0], contexts=4),  # map stage changed
                dict(spec.stages[1]),
                dict(spec.stages[2]),
            ],
        ))
        completed = store.completed_stages(edited)
        assert 0 not in completed  # edited stage must recompute
        assert 1 in completed      # untouched stage still resumes

    def test_corrupted_stage_raises_spec_error(self, tmp_path, spec,
                                               executed):
        store = self._populate(tmp_path, spec, executed)
        manifest = store.load_manifest(spec)
        path = store.path_for(manifest["stages"]["1"]["path"])
        doc = json.loads(path.read_text())
        del doc["points"]  # schema violation, not just bad JSON
        path.write_text(json.dumps(doc))
        with pytest.raises(SpecError, match="corrupted artifact"):
            store.completed_stages(spec)

    def test_corrupted_manifest_raises_spec_error(self, tmp_path, spec,
                                                  executed):
        store = self._populate(tmp_path, spec, executed)
        store.path_for(store._manifest_relpath(spec)).write_text("]]")
        with pytest.raises(SpecError, match="corrupted manifest"):
            store.completed_stages(spec)

    def test_missing_stage_file_recomputes(self, tmp_path, spec, executed):
        store = self._populate(tmp_path, spec, executed)
        manifest = store.load_manifest(spec)
        store.path_for(manifest["stages"]["0"]["path"]).unlink()
        completed = store.completed_stages(spec)
        assert 0 not in completed
        assert 1 in completed
