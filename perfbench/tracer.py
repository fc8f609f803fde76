"""Layer tracing from outside the program.

The benchmark times each layer around the calls into that layer's
public functions.  It does not edit anything under ``src/``.  Modules
such as ``analysis/sweep.py`` and ``reliability/repair.py`` import
``place`` and ``critical_path`` by name, so :meth:`Tracer.install`
replaces every binding of a target function in every loaded module,
not just the defining one.  Call sites that import lazily (``from
repro.netlist.frontend import load_program`` inside a function) read
the module attribute at call time and see the wrapper too.

Each thread keeps a stack of open spans.  A span's *self* time is its
duration minus the time of the spans nested in it, so the layer table
adds up without double counting.  Work counters come from the
program's own telemetry (``router.*``/``placer.*``), read through
``repro.utils.telemetry.collecting``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict

#: (module, attribute, layer) for plain functions.
FUNCTIONS = (
    ("repro.arch.compiled", "compiled_rrg_for", "arch.build"),
    ("repro.arch.compiled", "flat_rrg_for", "arch.build"),
    ("repro.api.workloads", "build_circuit", "netlist.program"),
    ("repro.api.workloads", "build_program", "netlist.program"),
    ("repro.netlist.sharing", "analyze_sharing", "netlist.sharing"),
    ("repro.netlist.frontend", "load_program", "netlist.import"),
    ("repro.place.placer", "place", "place.anneal"),
    ("repro.place.placer", "place_program", "place.anneal"),
    ("repro.route.pathfinder", "route_context_compiled", "route.search"),
    ("repro.route.pathfinder", "route_program_compiled", "route.search"),
    ("repro.route.pathfinder", "route_context_warm", "route.search"),
    ("repro.route.timing", "critical_path", "route.timing"),
    ("repro.analysis.experiments", "verify_mapped", "analysis.verify"),
    ("repro.reliability.repair", "build_golden", "reliability.golden"),
    ("repro.reliability.repair", "repair_mapping", "reliability.repair"),
    ("repro.api.results", "result_from_dict", "api.serialize"),
)

#: (module, class, method, layer) for methods and classmethods.
METHODS = (
    ("repro.analysis.experiments", "MappedProgram", "stats",
     "analysis.stats"),
    ("repro.reliability.defect_map", "DefectMap", "sample",
     "reliability.sample"),
    ("repro.api.session", "Session", "run", "api"),
    ("repro.service.artifacts", "ArtifactStore", "save_stage",
     "service.persist"),
    ("repro.service.artifacts", "ArtifactStore", "save_request_result",
     "service.persist"),
    ("repro.fleet.journal", "Journal", "append", "service.persist"),
) + tuple(
    ("repro.api.results", cls, name, "api.serialize")
    for cls in ("_Result", "BatchResult", "SweepResult", "YieldResult",
                "SpecResult")
    for name in ("to_dict", "from_dict")
)

#: Modules imported before rebinding, so their by-name imports exist.
PRELOAD = (
    "repro.api", "repro.analysis.sweep", "repro.analysis.engine",
    "repro.reliability.yield_runner", "repro.netlist.frontend",
    "repro.netlist.frontend.corpus", "repro.service", "repro.fleet.worker",
)

class _Frame:
    __slots__ = ("layer", "name", "start", "child")

    def __init__(self, layer: str, name: str, start: float) -> None:
        self.layer = layer
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    """Self-time accounting for wrapped layer calls, across threads."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict = defaultdict(float)
        #: calls per wrapped function name
        self.fn_calls: Counter = Counter()
        #: seconds covered by outermost spans, per thread name
        self.covered_s: dict = defaultdict(float)
        #: repair_mapping outcomes: level -> count / inclusive seconds
        self.rungs: Counter = Counter()
        self.rung_s: dict = defaultdict(float)
        #: distinct substrates returned by the build caches
        self._substrates: dict = {}
        #: Session.stream inclusive seconds per request object id, and
        #: the ``perf_counter`` second each request's stream started
        self.stream_s: dict = defaultdict(float)
        self.stream_start: dict = {}
        #: job id -> (submit second, request object id)
        self.submits: dict = {}
        #: every request streamed, kept alive so their ids stay unique
        self._keep: list = []
        self._collectors: dict = {}

    # -- span bookkeeping ----------------------------------------------- #
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def enter(self, layer: str, name: str) -> _Frame:
        frame = _Frame(layer, name, time.perf_counter())
        self._stack().append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        dur = end - frame.start
        with self._lock:
            self.self_s[frame.layer] += dur - frame.child
            self.fn_calls[frame.name] += 1
            if not stack:
                self.covered_s[threading.current_thread().name] += dur
        if stack:
            stack[-1].child += dur
        return dur

    # -- wrappers -------------------------------------------------------- #
    def _wrap(self, fn, layer: str, after=None):
        tracer = self
        name = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.exit(frame)
            if after is not None:
                after(result, dur)
            return result

        return wrapper

    def _after_build(self, substrate, _dur: float) -> None:
        with self._lock:
            self._substrates.setdefault(id(substrate), substrate)

    def _after_repair(self, outcome, dur: float) -> None:
        level = outcome.level.name.lower()
        with self._lock:
            self.rungs[level] += 1
            self.rung_s[level] += dur

    def _wrap_stream(self, fn):
        """``Session.stream`` returns a generator; time each ``next``
        as the ``api`` layer, under this thread's telemetry collector,
        and remember which request it served (the job layer's
        queue-wait and overhead are measured against it)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(session, request, *args, **kwargs):
            key = id(request)
            with tracer._lock:
                tracer._keep.append(request)
                tracer.stream_start.setdefault(key, time.perf_counter())
            inner = fn(session, request, *args, **kwargs)
            return tracer._timed_iter(inner, key)

        return wrapper

    def _timed_iter(self, inner, key: int):
        from repro.utils.telemetry import collecting

        try:
            while True:
                frame = self.enter("api", "stream")
                try:
                    with collecting(self.collector()):
                        item = next(inner)
                except StopIteration:
                    return
                finally:
                    dur = self.exit(frame)
                    with self._lock:
                        self.stream_s[key] += dur
                yield item
        finally:
            inner.close()

    def collector(self):
        """This thread's telemetry collector (created on first use)."""
        from repro.utils.telemetry import Telemetry

        name = threading.current_thread().name
        with self._lock:
            tel = self._collectors.get(name)
            if tel is None:
                tel = self._collectors[name] = Telemetry("perfbench")
            return tel

    def counters(self) -> Counter:
        """Summed telemetry counters of every thread, labels dropped."""
        total: Counter = Counter()
        with self._lock:
            tels = list(self._collectors.values())
        for tel in tels:
            for key, value in tel.counters.items():
                total[key.partition("{")[0]] += value
        return total

    def substrates(self) -> list:
        with self._lock:
            return list(self._substrates.values())

    # -- installation ----------------------------------------------------- #
    def install(self) -> None:
        """Wrap every target and rebind it wherever it is bound."""
        import importlib

        # every module that may hold a binding must be loaded first
        for module in PRELOAD:
            importlib.import_module(module)
        hooks = {"arch.build": self._after_build,
                 "reliability.repair": self._after_repair}
        for module, attr, layer in FUNCTIONS:
            orig = getattr(importlib.import_module(module), attr)
            self._rebind(orig, self._wrap(orig, layer, hooks.get(layer)))
        for module, cls_name, name, layer in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            raw = cls.__dict__[name]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, layer))
            else:
                wrapped = self._wrap(raw, layer)
            setattr(cls, name, wrapped)
        from repro.api.session import Session
        from repro.service.jobs import JobManager

        Session.stream = self._wrap_stream(Session.__dict__["stream"])
        JobManager.submit = self._wrap_submit(JobManager.__dict__["submit"])

    def _wrap_submit(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(manager, task, *args, **kwargs):
            start = time.perf_counter()
            handle = fn(manager, task, *args, **kwargs)
            with tracer._lock:
                tracer.submits[handle.job_id] = (start,
                                                 id(handle._job.payload))
            return handle

        return wrapper

    @staticmethod
    def _rebind(orig, wrapped) -> None:
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapped)
