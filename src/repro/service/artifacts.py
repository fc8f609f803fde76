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
        manifest.ndjson        # append-only request log, one line a save
        map_request-1a2b3c4d.json

Every file is compact JSON (sorted keys, no whitespace), written to a
per-writer temp file and renamed into place, so readers never see a
partial document.  The request manifest is a
:class:`~repro.fleet.journal.Journal`: a save appends one
``{"request", "path", "status"}`` record instead of rewriting an index
of every earlier request, so a save costs the same at any history.
:meth:`ArtifactStore.request_manifest` replays it (the last record for
a path wins); ``repro artifacts gc`` rewrites it once a pass without
the records of the artifacts it removed.  A ``requests/manifest.json``
left by an older store is folded into the log on first use, then
deleted.

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
from repro.fleet.journal import Journal

_SAFE_RE = re.compile(r"[^A-Za-z0-9._-]+")

#: The bare-request manifest: an append-only NDJSON log.
REQUEST_LOG = "requests/manifest.ndjson"
#: The whole-index manifest older stores rewrote on every save.
LEGACY_REQUEST_MANIFEST = "requests/manifest.json"


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


def _dumps(payload) -> str:
    """Compact canonical JSON (json's C encoder; ``indent`` is not)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _payload_key(payload) -> str:
    """Stable content hash of a JSON-serializable payload."""
    return hashlib.sha256(_dumps(payload).encode()).hexdigest()[:16]


class ArtifactStore:
    """Persists job results as schema-contract JSON under one root."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._resolved = self.root.resolve()
        # spec manifests are read-modify-write and the request log is
        # rewritten by GC; concurrent job workers serialize through the
        # store lock
        self._lock = threading.RLock()
        self._request_journal: "Journal | None" = None

    # -- paths -------------------------------------------------------------- #
    def path_for(self, relpath: str) -> Path:
        """The absolute path for a store-relative one; rejects escapes."""
        path = (self._resolved / relpath).resolve()
        if not path.is_relative_to(self._resolved):
            raise JobError(f"artifact path {relpath!r} escapes the results dir")
        return path

    def exists(self, relpath: str) -> bool:
        return self.path_for(relpath).is_file()

    def read_bytes(self, relpath: str) -> bytes:
        path = self.path_for(relpath)
        if not path.is_file():
            raise JobNotFound(f"no artifact at {relpath!r}")
        return path.read_bytes()

    def _write_text(self, relpath: str, text: str) -> str:
        path = self.path_for(relpath)
        path.parent.mkdir(parents=True, exist_ok=True)
        # one temp file per writer (process and thread): concurrent saves
        # of one relpath must never rename each other's half-written file
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, path)  # atomic: readers never see partial JSON
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return relpath

    def _write_json(self, relpath: str, payload: dict) -> str:
        return self._write_text(relpath, _dumps(payload))

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
    @staticmethod
    def _request_relpath(payload: dict) -> str:
        return f"requests/{payload['type']}-{_payload_key(payload)}.json"

    def request_relpath(self, request) -> str:
        return self._request_relpath(request.to_dict())

    def save_request_result(self, request, result) -> str:
        """Persist a bare request job's result; returns the relpath.

        The result file is rewritten atomically and the request log
        gains one record, so the cost does not grow with history.
        """
        payload = request.to_dict()
        relpath = self._request_relpath(payload)
        self._write_json(relpath, result.to_dict())
        with self._lock:
            self._request_log().append(
                {"request": payload, "path": relpath, "status": "done"})
        return relpath

    def _request_log(self) -> Journal:
        """The request log, opened on first use (under the store lock).

        Opening it migrates a legacy ``requests/manifest.json``: its
        entries are appended in their stored order, then the file is
        deleted.  An unreadable legacy manifest raises
        :class:`SpecError` and stays where it is.
        """
        if self._request_journal is not None:
            return self._request_journal
        log = Journal(self.path_for(REQUEST_LOG))
        legacy = self.path_for(LEGACY_REQUEST_MANIFEST)
        if legacy.is_file():
            try:
                entries = json.loads(legacy.read_bytes())["requests"]
                records = [dict(entry, path=relpath)
                           for relpath, entry in entries.items()]
            except (ValueError, OSError, KeyError, TypeError,
                    AttributeError) as exc:
                raise SpecError(
                    f"corrupted manifest {legacy}: {exc} — delete it to "
                    f"start a fresh request log"
                ) from exc
            for record in records:
                log.append(record)
            legacy.unlink(missing_ok=True)
        self._request_journal = log
        return log

    def request_manifest(self) -> dict:
        """Relpath -> latest log record of every saved bare request.

        Replays ``requests/manifest.ndjson`` (a crash-truncated last
        line is skipped); when a relpath was saved more than once, its
        last record wins.
        """
        with self._lock:
            records = self._request_log().replay()
        return {record["path"]: record for record in records
                if isinstance(record.get("path"), str)}

    def drop_request_records(self, relpaths) -> None:
        """Rewrite the request log without the records of ``relpaths``,
        one record per surviving relpath, atomically."""
        drop = set(relpaths)
        if not drop:
            return
        with self._lock:
            manifest = self.request_manifest()
            if drop.isdisjoint(manifest):
                return
            self._write_text(REQUEST_LOG, "".join(
                _dumps(record) + "\n"
                for relpath, record in manifest.items()
                if relpath not in drop))

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
