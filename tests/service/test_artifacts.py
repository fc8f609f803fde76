"""ArtifactStore: schema-contract persistence, resume keys, corruption."""

import json
import os
import threading
from pathlib import Path

import pytest

from repro.api import ExecutionConfig, ExperimentSpec, MapRequest, Session
from repro.errors import JobError, SpecError
from repro.service import ArtifactStore
from repro.service.artifacts import _safe_name


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
