"""Artifact persistence for the job layer: one results dir, one contract.

An :class:`ArtifactStore` owns a results directory and persists every
finished stage of every job as plain JSON **under the api's versioned
schema contract** — a stored artifact is exactly
``result.to_dict()``, so anything that can read the api's payloads can
read the store, and ``result_from_dict`` restores the typed object.

Layout (everything addressable through ``GET /v1/artifacts/...``)::

    results/
      specs/<spec-name>/
        manifest.json          # spec document + per-stage index
        00-map.json            # one file per completed stage, by name
        01-sweep.json
      requests/
        manifest.json          # request payload index
        map_request-1a2b3c4d.json

Resume contract: a stage artifact is reused only when its recorded
*stage key* — a hash of the stage's fully-resolved request payload
(which captures the spec header's workload/arch/execution inheritance)
— matches the resubmitted spec, and the stored payload still
deserializes under the schema contract.  A missing or stale artifact
is silently recomputed; a *corrupted* one (unreadable JSON, schema
violation) raises :class:`~repro.errors.SpecError` naming the file —
silently recomputing would hide data loss in the results dir.
``report`` stages are always recomputed: they summarize whatever the
other stages produced, and cost nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from pathlib import Path

from repro.api.results import result_from_dict
from repro.api.serialize import SCHEMA_VERSION, check, stamp
from repro.errors import JobError, JobNotFound, RequestError, SpecError

_SAFE_RE = re.compile(r"[^A-Za-z0-9._-]+")


def _safe_name(name: str) -> str:
    """A filesystem-safe directory name for ``name``.

    Unsafe characters collapse to ``_``; when anything was rewritten,
    a short hash of the original keeps distinct names distinct (grid
    children like ``demo[adder.g5w7]`` and ``demo[crc.g5w7]`` must not
    share a directory).
    """
    safe = _SAFE_RE.sub("_", name).strip("._") or "spec"
    if safe != name:
        safe += "-" + hashlib.sha256(name.encode()).hexdigest()[:8]
    return safe


def _payload_key(payload) -> str:
    """Stable content hash of a JSON-serializable payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class ArtifactStore:
    """Persists job results as schema-contract JSON under one root."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # manifests are read-modify-write; concurrent job workers
        # serialize through the store lock
        self._lock = threading.RLock()

    # -- paths -------------------------------------------------------------- #
    def path_for(self, relpath: str) -> Path:
        """The absolute path for a store-relative one; rejects escapes."""
        path = (self.root / relpath).resolve()
        root = self.root.resolve()
        if root != path and root not in path.parents:
            raise JobError(f"artifact path {relpath!r} escapes the results dir")
        return path

    def exists(self, relpath: str) -> bool:
        return self.path_for(relpath).is_file()

    def read_bytes(self, relpath: str) -> bytes:
        path = self.path_for(relpath)
        if not path.is_file():
            raise JobNotFound(f"no artifact at {relpath!r}")
        return path.read_bytes()

    def _write_json(self, relpath: str, payload: dict) -> str:
        path = self.path_for(relpath)
        path.parent.mkdir(parents=True, exist_ok=True)
        # one temp file per writer (process and thread): concurrent saves
        # of one relpath must never rename each other's half-written file
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
            os.replace(tmp, path)  # atomic: readers never see partial JSON
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return relpath

    def _read_json(self, relpath: str):
        return json.loads(self.read_bytes(relpath))

    # -- spec runs ----------------------------------------------------------- #
    def spec_reldir(self, spec) -> str:
        return f"specs/{_safe_name(spec.name)}"

    def _manifest_relpath(self, spec) -> str:
        return f"{self.spec_reldir(spec)}/manifest.json"

    def load_manifest(self, spec) -> "dict | None":
        """The spec's manifest, or ``None`` when no run was recorded."""
        relpath = self._manifest_relpath(spec)
        if not self.exists(relpath):
            return None
        try:
            manifest = self._read_json(relpath)
            check(manifest, "artifact_manifest")
        except (json.JSONDecodeError, OSError, RequestError) as exc:
            raise SpecError(
                f"corrupted manifest {self.path_for(relpath)}: {exc} — "
                f"delete it (or the spec's results dir) to start fresh, "
                f"or resubmit without resume"
            ) from exc
        return manifest

    def stage_key(self, spec, stage: dict, request) -> str:
        """Content key one stage resumes under.

        Hashes the stage's *resolved* request payload (header
        inheritance applied), so editing the spec header or the stage
        options invalidates exactly the stages whose work changed.
        """
        return _payload_key({
            "stage": stage.get("stage"),
            "request": None if request is None else request.to_dict(),
        })

    def _stage_relpath(self, spec, index: int, name: str) -> str:
        return f"{self.spec_reldir(spec)}/{index:02d}-{_safe_name(name)}.json"

    def save_stage(self, spec, index: int, name: str, kind: str,
                   result) -> str:
        """Persist one completed stage; returns the artifact relpath."""
        stage = spec.stages[index]
        relpath = self._stage_relpath(spec, index, name)
        self._write_json(relpath, result.to_dict())
        with self._lock:
            manifest = self.load_manifest(spec) or stamp(
                "artifact_manifest",
                {"spec_name": spec.name, "spec": spec.to_dict(),
                 "stages": {}},
            )
            manifest["spec"] = spec.to_dict()
            manifest["stages"][str(index)] = {
                "index": index,
                "name": name,
                "kind": kind,
                "key": self.stage_key(spec, stage,
                                      spec.request_for(stage)),
                "path": relpath,
                "status": "done",
            }
            self._write_json(self._manifest_relpath(spec), manifest)
        return relpath

    def completed_stages(self, spec) -> dict:
        """Stage index -> restored typed result, for every stage of
        ``spec`` whose artifact is present, key-matched and valid.

        This is what resume feeds to
        :meth:`repro.api.Session.iter_spec_events` as ``completed``.
        Missing/stale artifacts are simply absent (those stages
        recompute); corrupted ones raise :class:`SpecError`.
        """
        manifest = self.load_manifest(spec)
        if manifest is None:
            return {}
        completed: dict = {}
        names = spec.stage_names()
        for index, stage in enumerate(spec.stages):
            kind = stage.get("stage")
            if kind == "report":
                continue  # reports always recompute (they summarize)
            entry = manifest.get("stages", {}).get(str(index))
            if not entry or entry.get("status") != "done":
                continue
            key = self.stage_key(spec, stage, spec.request_for(stage))
            if entry.get("key") != key or entry.get("kind") != kind:
                continue  # stale: the stage's work changed, recompute
            relpath = entry.get("path") or \
                self._stage_relpath(spec, index, names[index])
            if not self.exists(relpath):
                continue
            try:
                completed[index] = result_from_dict(self._read_json(relpath))
            except Exception as exc:
                # unreadable JSON, schema violation, malformed payload:
                # never silently recompute over a damaged results dir
                raise SpecError(
                    f"corrupted artifact {self.path_for(relpath)} for "
                    f"stage {names[index]!r} of spec {spec.name!r}: {exc} "
                    f"— delete the file to recompute that stage, or "
                    f"resubmit without resume"
                ) from exc
        return completed

    # -- bare request jobs --------------------------------------------------- #
    def request_relpath(self, request) -> str:
        payload = request.to_dict()
        return f"requests/{payload['type']}-{_payload_key(payload)}.json"

    def save_request_result(self, request, result) -> str:
        """Persist a bare request job's result; returns the relpath."""
        relpath = self.request_relpath(request)
        self._write_json(relpath, result.to_dict())
        with self._lock:
            manifest_rel = "requests/manifest.json"
            if self.exists(manifest_rel):
                manifest = self._read_json(manifest_rel)
            else:
                manifest = stamp("artifact_manifest",
                                 {"spec_name": None, "requests": {}})
            manifest.setdefault("requests", {})[relpath] = {
                "request": request.to_dict(),
                "path": relpath,
                "status": "done",
            }
            self._write_json(manifest_rel, manifest)
        return relpath

    def load_request_result(self, request):
        """The stored result for ``request``, or ``None``; corrupted
        payloads raise :class:`SpecError` (same contract as stages)."""
        relpath = self.request_relpath(request)
        if not self.exists(relpath):
            return None
        try:
            return result_from_dict(self._read_json(relpath))
        except Exception as exc:
            raise SpecError(
                f"corrupted artifact {self.path_for(relpath)} for request "
                f"{request.TYPE_TAG}: {exc} — delete the file to "
                f"recompute, or resubmit without resume"
            ) from exc


#: Schema version artifacts are written under (the api contract's).
ARTIFACT_SCHEMA_VERSION = SCHEMA_VERSION
