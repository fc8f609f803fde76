"""Crash-safe job journal: an append-only NDJSON write-ahead log.

The coordinator journals every job-defining moment — submission
(payload included), state transitions, lease grants — to one
``journal.ndjson`` in the results dir.  A restarted
``repro serve --results-dir`` replays the journal, resubmits every
top-level job whose last recorded state is not terminal (with
``resume=True``, so finished stages come straight back from the
:class:`~repro.service.artifacts.ArtifactStore` instead of
recomputing), and keeps issuing fresh job ids past the highest one
ever journaled.

Records are one JSON object per line::

    {"event": "submit", "job_id": "job-3", "task": {...},
     "priority": 0, "client": "alice", "resume": false}
    {"event": "state", "job_id": "job-3", "state": "running"}
    {"event": "lease", "job_id": "job-3", "lease_id": "lease-...",
     "worker": "w1"}
    {"event": "shutdown", "abandoned": ["job-3"]}

Appends are fsync-free by design (the artifact store is the source of
truth for *results*; the journal only needs to survive process death,
not power loss) but each line goes out in one ``O_APPEND`` write under
a lock, so lines from concurrent writers never interleave.
Replay tolerates a truncated final line — exactly what a crash
mid-append leaves behind — silently, and skips corrupt *mid-file*
lines with a warning plus a ``fleet.journal.skipped`` counter bump.
A journal's first append after such a crash terminates the truncated
tail first, so the new record starts a line of its own (later replays
count the sealed tail as one corrupt mid-file line).
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from pathlib import Path

from repro.utils.telemetry import GLOBAL

#: Journal filename inside a results dir.
JOURNAL_NAME = "journal.ndjson"

#: Mirrors :data:`repro.service.jobs.TERMINAL_STATES` (kept local:
#: the jobs module imports this one, not the other way around).
_TERMINAL = ("done", "failed", "cancelled")


class Journal:
    """Append-only NDJSON log of job lifecycle records."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._sealed = False  # tail checked by this object's first append

    def append(self, record: dict) -> None:
        line = (json.dumps(record, sort_keys=True, separators=(",", ":"))
                + "\n").encode()
        with self._lock:
            fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT,
                         0o644)
            try:
                if not self._sealed:
                    # a crash mid-append leaves an unterminated tail:
                    # end it, or this record would fuse onto it (another
                    # process's write still landing costs a blank line,
                    # which replay skips)
                    size = os.fstat(fd).st_size
                    if size and os.pread(fd, 1, size - 1) != b"\n":
                        line = b"\n" + line
                    self._sealed = True
                view = memoryview(line)
                while view:
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)

    def replay(self) -> "list[dict]":
        """Every parseable record, in append order.

        A truncated or garbled *final* line (the tail a crash leaves)
        is skipped silently — everything before it already told us
        what was in flight.  A corrupt line anywhere *earlier* means
        something else damaged the file (disk fault, manual edit), so
        it is still skipped rather than fatal, but loudly: a warning
        names the line and the ``fleet.journal.skipped`` counter is
        bumped so monitoring sees it.
        """
        if not self.path.is_file():
            return []
        records = []
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        last = len(lines) - 1
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            record = None
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                pass
            if isinstance(record, dict):
                records.append(record)
                continue
            if i == last:
                continue  # crash-truncated tail: expected, silent
            GLOBAL.inc("fleet.journal.skipped")
            warnings.warn(
                f"{self.path}:{i + 1}: skipping corrupt journal "
                f"record (mid-file, not a crash tail)",
                RuntimeWarning, stacklevel=2)
        return records


def pending_submissions(records: "list[dict]"):
    """What a replayed journal says is still owed.

    Returns ``(next_id, submits)`` — the first job-id ordinal safe to
    issue next, and the ``submit`` records (in submission order) of
    every top-level job whose last journaled state is non-terminal.
    """
    submits: dict[str, dict] = {}
    last_state: dict[str, str] = {}
    max_ordinal = 0
    for record in records:
        job_id = record.get("job_id", "")
        if isinstance(job_id, str) and job_id.startswith("job-"):
            try:
                max_ordinal = max(max_ordinal, int(job_id[4:]))
            except ValueError:
                pass
        event = record.get("event")
        if event == "submit":
            submits[job_id] = record
        elif event == "state":
            last_state[job_id] = record.get("state", "")
    pending = [record for job_id, record in submits.items()
               if last_state.get(job_id) not in _TERMINAL]
    return max_ordinal + 1, pending
