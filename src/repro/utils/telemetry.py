"""Run-wide telemetry: metrics registry + cross-worker trace spans.

Two cooperating pieces, both stdlib-only:

- :class:`MetricsRegistry` — process-global counters / gauges /
  histograms with labels, rendered by
  :func:`repro.service.metrics.render_prometheus` for ``GET
  /v1/metrics``.  Series are keyed by their fully rendered name
  (``session.cache.hits{cache="circuit"}``) so merging counter deltas from
  worker snapshots is plain string-keyed summation.

- :class:`Telemetry` — a per-run span/counter collector bound
  ambiently (thread-local) around one unit of work.  Worker processes
  cannot share the parent's registry, so the one pool loop
  (:meth:`repro.analysis.sweep.SweepRunner.iter_items`) binds a fresh
  collector around each sweep point, yield trial and batch map inside
  its worker, and the api ``Session`` binds one around each map,
  import and reorder request.  A collector's :meth:`~Telemetry.snapshot`
  (span buffer + counter deltas) rides back to the parent *inside*
  the result row, where :func:`merge_metrics` folds them together and
  the parent registry absorbs the counters.  Nothing else constructs
  a collector, and with telemetry off none is bound.
  :func:`phase_totals` folds a block's spans into the per-phase
  ``profile`` table that ``--profile`` prints.

The ambient helpers (:func:`count`, :func:`span`, ...) short-circuit
on a single thread-local read when no collector is bound, so
instrumented hot paths (PathFinder pops, placer moves) cost nothing
measurable with telemetry off.

Trace IDs: a :class:`Telemetry` carries the campaign-level ``run_id``
(one per request execution) and optionally a ``job_id`` when running
under the service's :class:`~repro.service.JobManager`.  Merged
blocks feed :func:`chrome_trace`, which emits Chrome trace-event JSON
(load in Perfetto / ``chrome://tracing``) with one track per worker
pid.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager

__all__ = [
    "GLOBAL",
    "MetricsRegistry",
    "Telemetry",
    "chrome_trace",
    "collecting",
    "count",
    "current_collector",
    "merge_metrics",
    "new_run_id",
    "phase_totals",
    "span",
]

#: Default histogram bucket upper bounds (seconds-flavoured, matching
#: Prometheus client conventions).  ``+Inf`` is implicit.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_RUN_COUNTER = [0]
_RUN_LOCK = threading.Lock()


def new_run_id() -> str:
    """A process-unique run/trace id (``run-<pid>-<n>``)."""
    with _RUN_LOCK:
        _RUN_COUNTER[0] += 1
        n = _RUN_COUNTER[0]
    return f"run-{os.getpid()}-{n}"


def series_key(name: str, labels: dict | None = None) -> str:
    """Render ``name`` + labels into one stable series key.

    Labels are sorted so the same logical series always produces the
    same key regardless of call-site keyword order.
    """
    if not labels:
        return name
    inner = ",".join(
        '{}="{}"'.format(k, str(v).replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


def split_series(key: str) -> tuple:
    """``(name, labels_text)`` for a rendered series key."""
    if "{" in key:
        name, _, rest = key.partition("{")
        return name, rest[:-1] if rest.endswith("}") else rest
    return key, ""


class MetricsRegistry:
    """Thread-safe labelled counters, gauges and histograms.

    One module-level instance (:data:`GLOBAL`) backs ``/v1/metrics``;
    tests may build private registries.  All mutators accept labels
    as keyword arguments: ``reg.inc("session.cache.hits", cache="circuit")``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict = {}
        self._gauges: dict = {}
        # series -> [bucket_counts list, sum, count, bounds tuple]
        self._hists: dict = {}

    # -- counters ------------------------------------------------------- #
    def inc(self, name: str, value=1, **labels) -> None:
        key = series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def merge_counters(self, counters: dict | None) -> None:
        """Fold a worker snapshot's counter deltas into this registry."""
        if not counters:
            return
        with self._lock:
            for key, value in counters.items():
                self._counters[key] = self._counters.get(key, 0) + value

    # -- gauges --------------------------------------------------------- #
    def gauge_set(self, name: str, value, **labels) -> None:
        with self._lock:
            self._gauges[series_key(name, labels)] = value

    # -- histograms ----------------------------------------------------- #
    def observe(self, name: str, value, buckets=None, **labels) -> None:
        key = series_key(name, labels)
        with self._lock:
            hist = self._hists.get(key)
            if hist is None:
                bounds = tuple(buckets) if buckets else DEFAULT_BUCKETS
                hist = [[0] * len(bounds), 0.0, 0, bounds]
                self._hists[key] = hist
            counts, _, _, bounds = hist
            for i, bound in enumerate(bounds):
                if value <= bound:
                    counts[i] += 1
            hist[1] += value
            hist[2] += 1

    # -- introspection -------------------------------------------------- #
    def snapshot(self) -> dict:
        """A point-in-time copy: ``{"counters", "gauges", "histograms"}``."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    key: {
                        "buckets": list(counts),
                        "bounds": list(bounds),
                        "sum": total,
                        "count": n,
                    }
                    for key, (counts, total, n, bounds) in self._hists.items()
                },
            }

    def counter(self, name: str, **labels):
        """Current value of one counter series (0 when unseen)."""
        with self._lock:
            return self._counters.get(series_key(name, labels), 0)

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()


#: The process-global registry ``GET /v1/metrics`` renders.
GLOBAL = MetricsRegistry()


class Telemetry:
    """Span + counter-delta collector for one unit of work.

    Bound ambiently with :func:`collecting`; the instrumented layers
    call the module-level :func:`count` / :func:`span` helpers, which
    no-op unless a collector is bound.  Spans record wall-clock
    microseconds (``time.time()`` epoch, ``perf_counter`` deltas) so
    buffers from different processes line up on one Chrome-trace
    timeline.
    """

    __slots__ = ("run_id", "job_id", "pid", "counters", "spans",
                 "_origin", "_tids", "_lock")

    def __init__(self, run_id: str, job_id: str | None = None) -> None:
        self.run_id = run_id
        self.job_id = job_id
        self.pid = os.getpid()
        self.counters: dict = {}
        self.spans: list = []  # [name, start_us, dur_us, tid]
        # epoch-anchored perf_counter origin: wall-clock alignment
        # across processes with perf_counter resolution within one
        self._origin = time.time() - time.perf_counter()
        self._tids: dict = {}
        # threads that route contexts in parallel share their caller's
        # collector
        self._lock = threading.Lock()

    def count(self, name: str, value=1, **labels) -> None:
        key = series_key(name, labels)
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def _tid(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            return self._tids.setdefault(ident, len(self._tids) + 1)

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans.append([
                name,
                int((self._origin + start) * 1e6),
                int((end - start) * 1e6),
                self._tid(),
            ])

    def snapshot(self) -> dict:
        """The leaf block that rides back inside a result row."""
        return {
            "run_id": self.run_id,
            "pid": self.pid,
            "counters": dict(self.counters),
            "spans": list(self.spans),
        }


# -- ambient binding -------------------------------------------------- #
_TLS = threading.local()


def current_collector():
    """The ambient :class:`Telemetry`, or ``None``."""
    return getattr(_TLS, "collector", None)


@contextmanager
def collecting(tel):
    """Bind ``tel`` as this thread's ambient collector.

    ``collecting(None)`` leaves the ambient binding alone (an outer
    collector keeps receiving), so call sites can write
    ``with collecting(tel):`` unconditionally.
    """
    if tel is None:
        yield None
        return
    prev = getattr(_TLS, "collector", None)
    _TLS.collector = tel
    try:
        yield tel
    finally:
        _TLS.collector = prev


def count(name: str, value=1, **labels) -> None:
    """Bump a counter on the ambient collector (no-op when unbound)."""
    tel = getattr(_TLS, "collector", None)
    if tel is not None:
        tel.count(name, value, **labels)


@contextmanager
def span(name: str):
    """Record a span on the ambient collector (no-op when unbound)."""
    tel = getattr(_TLS, "collector", None)
    if tel is None:
        yield
        return
    with tel.span(name):
        yield


# -- merging + export --------------------------------------------------- #
def merge_metrics(blocks):
    """Fold leaf snapshots and/or merged blocks into one block.

    Accepts any iterable mixing the two shapes this module produces:
    leaf ``{"run_id", "pid", "counters", "spans"}`` snapshots and
    merged ``{"run_id", "counters", "workers": [...]}`` blocks (so
    per-point merges compose into per-campaign merges).  ``None``
    entries are skipped; returns ``None`` when nothing was collected.
    """
    counters: dict = {}
    workers: dict = {}
    run_id = None
    for block in blocks:
        if not block:
            continue
        run_id = block.get("run_id") or run_id
        for key, value in (block.get("counters") or {}).items():
            counters[key] = counters.get(key, 0) + value
        if "workers" in block:
            for worker in block["workers"]:
                workers.setdefault(worker["pid"], []).extend(
                    worker.get("spans") or ()
                )
        elif "pid" in block:
            workers.setdefault(block["pid"], []).extend(
                block.get("spans") or ()
            )
    if not counters and not workers:
        return None
    return {
        "run_id": run_id,
        "counters": counters,
        "workers": [
            {"pid": pid, "spans": spans}
            for pid, spans in sorted(workers.items())
        ],
    }


def phase_totals(block):
    """Per-phase wall-clock totals of one metrics block.

    ``block`` is a leaf snapshot or a merged block; spans are summed
    by name across every worker track into ``{name: {"seconds": s,
    "calls": n}}`` (names sorted, microsecond resolution).  Returns
    ``None`` when the block holds no spans.
    """
    if not block:
        return None
    totals: dict = {}
    for track in block.get("workers", (block,)):
        for name, _start_us, dur_us, _tid in track.get("spans") or ():
            entry = totals.setdefault(name, [0, 0])
            entry[0] += dur_us
            entry[1] += 1
    if not totals:
        return None
    return {
        name: {"seconds": us / 1e6, "calls": calls}
        for name, (us, calls) in sorted(totals.items())
    }


def chrome_trace(blocks) -> dict:
    """Chrome trace-event JSON for one or more metrics blocks.

    One track (``pid``) per worker process, ``ph: "X"`` complete
    events per span, ``ph: "M"`` metadata naming each track.  The
    result loads directly in Perfetto or ``chrome://tracing``.
    """
    if isinstance(blocks, dict):
        blocks = [blocks]
    merged = merge_metrics(blocks)
    events = []
    if merged is not None:
        for worker in merged["workers"]:
            pid = worker["pid"]
            events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": f"worker {pid}"},
            })
            for name, start_us, dur_us, tid in worker["spans"]:
                events.append({
                    "ph": "X", "cat": "repro", "name": name,
                    "pid": pid, "tid": tid, "ts": start_us, "dur": dur_us,
                })
        events.sort(key=lambda ev: (ev["pid"], ev.get("ts", -1)))
    return {"traceEvents": events, "displayTimeUnit": "ms"}
