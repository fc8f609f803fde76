"""Artifact retention: index and garbage-collect the results dir.

The :class:`~repro.service.artifacts.ArtifactStore` is a memo table —
every finished stage lands there forever, which is exactly right for
resume and exactly wrong for disk.  This module adds the missing
retention half:

- :func:`artifact_index` — one entry per retention *unit* (a spec run
  directory or a bare request artifact), newest first, with sizes and
  ages; served as ``GET /v1/artifacts``;
- :func:`gc_artifacts` — age- and count-based collection
  (``repro artifacts gc``): drop units older than ``max_age_days``,
  then keep at most ``max_count`` of the newest survivors.

Units, not files: a spec run's stage artifacts and manifest live or
die together (deleting one stage of a run would poison resume with a
half-run that key-matches).  The request log
(``requests/manifest.ndjson``) is not a unit: a pass that removes
request artifacts rewrites it once without their records.  The
journal is never touched — it is the coordinator's crash log, not an
artifact.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field

from repro.errors import SpecError
from repro.utils.records import Record


@dataclass(frozen=True)
class ArtifactEntry(Record):
    """One retention unit in the results dir."""

    kind: str          # "spec" | "request"
    name: str          # spec dir name or request artifact stem
    relpath: str       # store-relative path (dir for specs)
    files: int
    bytes: int
    mtime: float       # newest file's mtime (epoch seconds)


@dataclass
class GCReport(Record):
    """What one collection pass scanned and removed."""

    scanned: int = 0
    deleted: int = 0
    kept: int = 0
    bytes_freed: int = 0
    dry_run: bool = False
    removed: list = field(default_factory=list)  # relpaths


def _dir_entry(path, relpath: str, kind: str, name: str) -> ArtifactEntry:
    files = [p for p in path.rglob("*") if p.is_file()]
    size = sum(p.stat().st_size for p in files)
    mtime = max((p.stat().st_mtime for p in files), default=0.0)
    return ArtifactEntry(kind=kind, name=name, relpath=relpath,
                         files=len(files), bytes=size, mtime=mtime)


def artifact_index(store) -> "list[ArtifactEntry]":
    """Every retention unit under the store's root, newest first."""
    entries: list[ArtifactEntry] = []
    specs_root = store.root / "specs"
    if specs_root.is_dir():
        for spec_dir in sorted(specs_root.iterdir()):
            if spec_dir.is_dir():
                entries.append(_dir_entry(
                    spec_dir, f"specs/{spec_dir.name}", "spec",
                    spec_dir.name,
                ))
    requests_root = store.root / "requests"
    if requests_root.is_dir():
        # ``*.json`` leaves out the request log (``manifest.ndjson``);
        # a legacy ``manifest.json`` is an index, not a unit either
        for artifact in sorted(requests_root.glob("*.json")):
            if artifact.name == "manifest.json":
                continue
            stat = artifact.stat()
            entries.append(ArtifactEntry(
                kind="request", name=artifact.stem,
                relpath=f"requests/{artifact.name}", files=1,
                bytes=stat.st_size, mtime=stat.st_mtime,
            ))
    entries.sort(key=lambda e: e.mtime, reverse=True)
    return entries


def gc_artifacts(store, max_age_days: "float | None" = None,
                 max_count: "int | None" = None, dry_run: bool = False,
                 now: "float | None" = None) -> GCReport:
    """Collect stale retention units; what survives stays resumable.

    ``max_age_days`` drops every unit whose newest file is older;
    ``max_count`` then keeps only that many of the newest survivors.
    With neither bound this is a no-op report (never "delete
    everything by default").  ``dry_run`` reports without removing.
    """
    entries = artifact_index(store)
    report = GCReport(scanned=len(entries), dry_run=dry_run)
    now = time.time() if now is None else now
    doomed: list[ArtifactEntry] = []
    survivors: list[ArtifactEntry] = []
    for entry in entries:
        if max_age_days is not None and \
                entry.mtime < now - max_age_days * 86400.0:
            doomed.append(entry)
        else:
            survivors.append(entry)
    if max_count is not None and len(survivors) > max_count:
        # entries are newest-first, so the tail is the oldest
        doomed.extend(survivors[max_count:])
        survivors = survivors[:max_count]
    for entry in doomed:
        if not dry_run:
            _remove(store, entry)
        report.deleted += 1
        report.bytes_freed += entry.bytes
        report.removed.append(entry.relpath)
    report.kept = len(survivors)
    if not dry_run:
        try:
            store.drop_request_records(
                e.relpath for e in doomed if e.kind == "request")
        except SpecError:
            pass  # a damaged legacy manifest is resume's problem, not GC's
    return report


def _remove(store, entry: ArtifactEntry) -> None:
    path = store.path_for(entry.relpath)
    if entry.kind == "spec":
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink(missing_ok=True)


__all__ = ["ArtifactEntry", "GCReport", "artifact_index", "gc_artifacts"]
