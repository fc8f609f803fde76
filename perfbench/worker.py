"""One benchmark pass in a fresh interpreter (started by ``run.py``).

    python3 perfbench/worker.py WORKLOAD SEED {plain|traced} SPAWNED_AT

A pass executes WORKLOAD's op list once and prints one JSON object as
the last line of its standard output.  The ops themselves are a fixed
pool drawn from ``POOL_SEED``; SEED sets the order they are sent in
(``run.py`` gives each pass of a run its own).  Work counters and
quality numbers are therefore exact across passes and seeds, and time
differences between runs are the program's.  Each timing carries the
key of the op it timed, so passes that send the pool in different
orders can be compared op by op.
``SPAWNED_AT`` is the parent's ``time.time()`` just before it started
this process: set-up time runs from there to the first op ready to
send.  ``plain``
passes give the end-to-end numbers; ``traced`` passes wrap every layer
(see ``tracer.py``) and also report self times and work counters.
"""

from __future__ import annotations

import gc
import heapq
import http.client
import json
import math
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "regression_tests"
SCRATCH = ROOT / ".perfbench_tmp"

#: Seed of the fixed op pools (the source paper's year).
POOL_SEED = 2005

#: map8: requests per pass, cycling over these workloads.
MAP8_REQUESTS = 6
MAP8_MIX = ("adder", "cmp", "random")
MAP8_CONTEXTS = 8

#: sweep: cold design-space sweeps of ``random`` on two grid sizes.
#: No two points share device parameters (the base is width 8,
#: double fraction 0.5, Fc 1.0), so every point builds its substrate.
SWEEP_GRIDS = (5, 7)
SWEEP_WIDTH = 8
SWEEP_AXES = (
    ("channel-width", (4, 6, 10, 12)),
    ("fc", (0.3, 0.5, 0.7, 0.9)),
    ("double-fraction", (0.0, 0.25, 0.75, 1.0)),
)

#: yield: Monte Carlo campaigns, one trial per op.
YIELD_REQUESTS = 6
YIELD_GRID = 7
YIELD_WIDTH = 8
YIELD_RATES = (0.01, 0.02, 0.03, 0.04, 0.05)
YIELD_TRIALS = 3

#: jobs: one closed-loop HTTP client cycles this many times over the
#: whole corpus, in a seeded order per cycle.
JOBS_CYCLES = 3

#: Side of the host-speed probe's grid graph.
PROBE_GRID = 48
#: Random swaps the host-speed probe makes after its search.
PROBE_SWAPS = 4000
_probe_adj: list = []


def _probe_graph() -> list:
    rng = random.Random(POOL_SEED)
    n = PROBE_GRID
    adj = []
    for u in range(n * n):
        x, y = u % n, u // n
        adj.append([(v, rng.randint(1, 9)) for v, ok in (
            (u + 1, x + 1 < n), (u - 1, x > 0),
            (u + n, y + 1 < n), (u - n, y > 0)) if ok])
    return adj


def probe_ms() -> float:
    """Milliseconds of a fixed pure-Python kernel that uses nothing of
    the program: a shortest-path search over a weighted grid (dicts,
    tuples, ``heapq``), then random swaps in a list.  It is the host's
    speed at this moment, measured on the CPU the pass is pinned to.
    The collector is off while it runs, so the program's heap does not
    change its time."""
    if not _probe_adj:
        _probe_adj.extend(_probe_graph())
    adj = _probe_adj
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        dist = {0: 0}
        heap = [(0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                if d + w < dist.get(v, 1 << 60):
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        rng = random.Random(POOL_SEED)
        slots = list(range(len(adj)))
        for _ in range(PROBE_SWAPS):
            a, b = rng.randrange(len(slots)), rng.randrange(len(slots))
            slots[a], slots[b] = slots[b], slots[a]
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


class Pass:
    """Counts, latencies and quality numbers of one pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: [op key, ops, milliseconds, probe milliseconds] of each
        #: request or streamed row; the probe figure is the mean of the
        #: host-speed probes just before and just after the op
        self.timings: list = []
        #: every host-speed probe of the loop, in milliseconds
        self.probes: list = []
        self.errors: list = []
        self.quality: dict = {}
        self.ready_at = None
        self.loop_start = None
        self.loop_s = None
        #: session cache hits and misses of the loop alone
        self.cache = (0, 0)

    def ready(self) -> None:
        """The first op is ready to send: set-up ends, the loop starts
        with the first host-speed probe."""
        self.ready_at = time.time()
        self.loop_start = time.perf_counter()
        self.probes.append(probe_ms())

    def finish(self) -> None:
        """The last op is back.  Lookups the benchmark makes afterwards
        (quality numbers) do not count as the program's cache use, and
        the probes do not count in the loop's time."""
        self.loop_s = (time.perf_counter() - self.loop_start
                       - math.fsum(self.probes) / 1e3)
        from repro.utils.telemetry import GLOBAL

        counters = GLOBAL.snapshot()["counters"]
        self.cache = tuple(
            sum(v for k, v in counters.items() if k.startswith(prefix))
            for prefix in ("session.cache.hits", "session.cache.misses"))

    def op(self, key: str, n: int, seconds: float,
           failure: "str | None") -> None:
        self.attempted += n
        before = self.probes[-1]
        self.probes.append(probe_ms())
        self.timings.append([key, n, seconds * 1e3,
                             (before + self.probes[-1]) / 2])
        if failure is not None:
            self.failed += n
            if len(self.errors) < 5:
                self.errors.append(failure)


def _timed(fn):
    """``(result, seconds, error text)`` of one call."""
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # an op that raises is a failed op
        return None, time.perf_counter() - start, \
            f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - start, None


def _streamed(key, session, request, p: Pass, rows: int, ops_per_row: int,
              check) -> list:
    """Stream ``request`` and time row i as ``ops_per_row`` ops keyed
    ``key.i``, from the previous row (the first from the call).
    ``check(i, row)`` returns an error text or ``None``; rows that never
    arrive fail."""
    got, error = [], None
    start = time.perf_counter()
    try:
        for row in session.stream(request):
            seconds = time.perf_counter() - start
            p.op(f"{key}.{len(got)}", ops_per_row, seconds,
                 check(len(got), row))
            got.append(row)
            start = time.perf_counter()
    except Exception as exc:  # an op that raises is a failed op
        error = f"{type(exc).__name__}: {exc}"
    missing = rows - len(got)
    if error is not None or missing > 0:
        p.op(f"{key}.missing", ops_per_row * max(missing, 1),
             time.perf_counter() - start,
             error or f"{missing} of {rows} rows missing")
    return got


def _pool_seeds(n: int) -> list:
    rng = random.Random(POOL_SEED)
    return [rng.randrange(1 << 30) for _ in range(n)]


def _shuffled(items, seed: int) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def _seeded_order(items, seed: int) -> list:
    """``(pool index, op)``: the pool's first op, then the rest in seeded
    order.  The first op of a pass also pays the process's cold start
    (first substrate build, first calls); keeping it fixed keeps that
    cost on one op."""
    pairs = list(enumerate(items))
    return pairs[:1] + _shuffled(pairs[1:], seed)


# -- in-process workloads ------------------------------------------------- #
def run_map8(seed: int, p: Pass) -> None:
    from repro.api import ExecutionConfig, MapRequest, Session

    requests = [
        MapRequest(workload=MAP8_MIX[i % len(MAP8_MIX)],
                   contexts=MAP8_CONTEXTS, share_aware=True, verify=True,
                   execution=ExecutionConfig(seed=s))
        for i, s in enumerate(_pool_seeds(MAP8_REQUESTS))
    ]
    requests = _seeded_order(requests, seed)
    session = Session()
    p.ready()
    wirelength, rates = 0, []
    for key, request in requests:
        result, seconds, error = _timed(lambda: session.run(request))
        if error is None and not result.verified:
            error = f"{request.workload}: verified=False"
        p.op(str(key), MAP8_CONTEXTS, seconds, error)
        if result is not None:
            wirelength += result.wirelength
            rates.append(result.switch_change_rate)
    p.finish()
    p.quality = {
        "wirelength": wirelength,
        "change_rate": math.fsum(rates) / len(rates) if rates else 0.0,
    }


def run_sweep(seed: int, p: Pass) -> None:
    from repro.api import ExecutionConfig, Session, SweepRequest

    plan = [(grid, what, values)
            for grid in SWEEP_GRIDS for what, values in SWEEP_AXES]
    # each axis keeps its value order: rows are keyed by position, and
    # a request's first point also pays its placement
    requests = [
        SweepRequest(what=what, workload="random", grid=grid,
                     width=SWEEP_WIDTH, values=values,
                     execution=ExecutionConfig(seed=s))
        for (grid, what, values), s in zip(plan, _pool_seeds(len(plan)))
    ]
    requests = _seeded_order(requests, seed)
    session = Session()
    p.ready()
    points = routed = wirelength = 0
    critical = []
    for key, request in requests:
        want = list(request.values)

        def check(i, pt, want=want, request=request):
            if i >= len(want) or pt.value != want[i]:
                return (f"{request.what} grid {request.grid}: point {i} "
                        f"is {pt.value}, not the requested one")
            return None

        for pt in _streamed(key, session, request, p, len(want), 1,
                            check):
            points += 1
            if pt.routed:  # an unroutable point is a result, not a failure
                routed += 1
                wirelength += pt.wirelength
                critical.append(pt.critical_path)
    p.finish()
    p.quality = {
        "wirelength": wirelength,
        "critical_path": math.fsum(critical),
        "routed_frac": routed / points if points else 0.0,
    }


def run_yield(seed: int, p: Pass) -> None:
    from repro.api import ExecutionConfig, Session, YieldRequest
    from repro.api.session import POINT_EFFORT
    from repro.arch.params import ArchParams

    requests = [
        YieldRequest(workload="random", grid=YIELD_GRID, width=YIELD_WIDTH,
                     rates=YIELD_RATES, trials=YIELD_TRIALS, model="uniform",
                     execution=ExecutionConfig(seed=s))
        for s in _pool_seeds(YIELD_REQUESTS)
    ]
    requests = _seeded_order(requests, seed)
    base = ArchParams(cols=YIELD_GRID, rows=YIELD_GRID,
                      channel_width=YIELD_WIDTH, io_capacity=4)
    session = Session()
    p.ready()
    rows = [(request, _streamed(key, session, request, p, len(YIELD_RATES),
                                YIELD_TRIALS, _check_yield_row))
            for key, request in requests]
    p.finish()
    # fsum: the pass order of the requests must not change the sums
    yields, overheads, wirelength = [], [], []
    for request, points in rows:
        if not points:
            continue
        # cached since the campaign ran
        golden = session.yield_runner(request.execution).golden_for(
            session.circuit("random"), base, request.execution.seed,
            POINT_EFFORT,
        )
        for pt in points:
            yields.append(pt.yield_fraction)
            overheads.append(pt.mean_wirelength_overhead)
            # total repaired wirelength of the row's surviving dies
            wirelength.append(pt.mean_wirelength_overhead
                              * golden.wirelength * pt.yield_fraction
                              * pt.trials)
    p.quality = {
        "wirelength": round(math.fsum(wirelength)),
        "yield_frac": math.fsum(yields) / len(yields) if yields else 0.0,
        "repair_wl_overhead":
            math.fsum(overheads) / len(overheads) if overheads else 0.0,
    }


def _check_yield_row(i: int, pt) -> "str | None":
    """Row i is the requested rate, its histogram sums to its trials and
    its yield is the non-FAIL share (a FAIL trial is a result, not a
    failed op)."""
    if i >= len(YIELD_RATES) or pt.defect_rate != YIELD_RATES[i]:
        return f"row {i} has rate {pt.defect_rate}, not the requested one"
    hist = pt.repair_histogram
    if pt.trials != YIELD_TRIALS or sum(hist.values()) != pt.trials:
        return f"rate {pt.defect_rate}: histogram != trials"
    survived = (pt.trials - hist.get("fail", 0)) / pt.trials
    if abs(pt.yield_fraction - survived) > 1e-12:
        return f"rate {pt.defect_rate}: yield_fraction mismatch"
    return None


# -- the HTTP job service ------------------------------------------------- #
def _http(address, method: str, path: str, body: "bytes | None" = None):
    conn = http.client.HTTPConnection(*address, timeout=120)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _corpus_cases() -> list:
    """(name, request payload, golden payload) for every corpus case."""
    from repro.netlist.frontend.corpus import (
        GOLDEN_FILE,
        discover_cases,
        load_case,
    )

    return [
        (case.name, json.dumps({"request": load_case(case).to_dict()}),
         json.loads((case / GOLDEN_FILE).read_text(encoding="utf-8")))
        for case in discover_cases(CORPUS)
    ]


def _job(address, body: str, golden: dict):
    """POST, follow the events to the terminal one, GET the result.
    Returns ``(job id, error text)``; any non-2xx reply is an error."""
    status, data = _http(address, "POST", "/v1/jobs", body.encode())
    if status != 202:
        return None, f"POST /v1/jobs -> {status}"
    job_id = json.loads(data)["job"]["job_id"]
    status, data = _http(address, "GET", f"/v1/jobs/{job_id}/events")
    events = [json.loads(line) for line in data.splitlines() if line.strip()]
    if status != 200 or not events or events[-1].get("event") != "done":
        return job_id, f"events of {job_id} -> {status}, no done event"
    if events[-1].get("state") != "done":
        return job_id, (f"{job_id} ended {events[-1].get('state')}: "
                        f"{events[-1].get('error_type')}: "
                        f"{events[-1].get('error')}")
    status, data = _http(address, "GET", f"/v1/jobs/{job_id}/result")
    if status != 200:
        return job_id, f"result of {job_id} -> {status}"
    if json.loads(data).get("result") != golden:
        return job_id, f"{job_id}: result differs from golden.json"
    return job_id, None


def _drive_client(address, cases: list, seed: int, p: Pass) -> dict:
    """Run the closed loop; returns what the trace needs."""
    order = []
    for cycle in range(JOBS_CYCLES):
        order.extend((cycle, case)
                     for case in _shuffled(cases, seed * 1000 + cycle))
    latency, rejected, wirelength = {}, 0, 0
    for cycle, (name, body, golden) in order:
        job_id, error = None, None
        start = time.perf_counter()
        try:
            job_id, error = _job(address, body, golden)
        except (OSError, ValueError, KeyError) as exc:
            error = f"{name}: {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        p.op(f"{cycle}.{name}", 1, seconds, error)
        if error is not None and "-> 429" in error:
            rejected += 1
        if job_id is not None:
            latency[job_id] = seconds
        if error is None:
            wirelength += golden["wirelength"]
    p.quality = {"wirelength": wirelength}
    return {"latency_s": latency, "rejected": rejected}


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of another process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def run_jobs_served(seed: int, p: Pass, out: dict) -> None:
    """Untraced: ``repro serve`` in its own fresh interpreter."""
    cases = _corpus_cases()
    results = SCRATCH / f"jobs-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawned = time.time()
    server = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         "--results-dir", str(results)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env, cwd=ROOT,
    )
    try:
        line = server.stdout.readline()
        url = line.split("http://", 1)[1].split()[0]
        host, port = url.rsplit(":", 1)
        address = (host, int(port))
        status, _ = _http(address, "GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz -> {status}")
        p.ready()
        out["setup_s"] = p.ready_at - spawned
        _drive_client(address, cases, seed, p)
        p.finish()
        out["peak_rss_mb"] = _vm_hwm_mb(server.pid)
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            server.communicate()
        shutil.rmtree(results, ignore_errors=True)


def run_jobs_hosted(seed: int, p: Pass, out: dict) -> None:
    """Traced: the same service hosted in this process, so the layer
    wrappers see the job threads."""
    from repro.service import JobManager, ReproService
    from repro.service.artifacts import ArtifactStore

    cases = _corpus_cases()
    results = SCRATCH / f"jobs-{os.getpid()}"
    manager = JobManager(store=ArtifactStore(results))
    service = ReproService(manager, port=0)
    try:
        address = service.start()
        p.ready()
        stats = _drive_client(address, cases, seed, p)
        p.finish()
    finally:
        service.stop()
        manager.shutdown(wait=True)
        shutil.rmtree(results, ignore_errors=True)
    out["jobs"] = stats


IN_PROCESS = {"map8": run_map8, "sweep": run_sweep, "yield": run_yield}


def main(argv: list) -> int:
    workload, seed, mode, spawned = \
        argv[1], int(argv[2]), argv[3], float(argv[4])
    traced = mode == "traced"
    sys.path.insert(0, str(SRC))
    SCRATCH.mkdir(exist_ok=True)
    out: dict = {}
    start = time.perf_counter()
    import repro.api  # noqa: F401  (the import is what is timed)

    if workload == "jobs":
        # what the server process loads; this process times it for it
        import repro.service  # noqa: F401
    out["import_s"] = time.perf_counter() - start
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    p = Pass()
    if workload == "jobs":
        if traced:
            run_jobs_hosted(seed, p, out)
        else:
            run_jobs_served(seed, p, out)
    else:
        from repro.utils.telemetry import collecting

        with collecting(tracer.collector()) if traced else nullcontext():
            IN_PROCESS[workload](seed, p)
        out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.setdefault("setup_s", p.ready_at - spawned)
    out.update(
        attempted=p.attempted, failed=p.failed, errors=p.errors,
        loop_s=p.loop_s, timings=p.timings, probes=p.probes,
        quality=p.quality,
    )
    if tracer is not None:
        out["trace"] = trace_report(tracer, p, out)
    print(json.dumps(out))
    return 0


def trace_report(tracer, p: Pass, out: dict) -> dict:
    """Self seconds per layer, work counters and the wall time they
    are shares of."""
    report = {
        "layers_s": dict(tracer.self_s),
        "fn_calls": dict(tracer.fn_calls),
        "counters": dict(tracer.counters()),
        "rungs": dict(tracer.rungs),
        "rung_s": dict(tracer.rung_s),
        "builds": len(tracer.substrates()),
        "build_nodes": sum(c.n_nodes for c in tracer.substrates()),
        "cache_hits": p.cache[0],
        "cache_misses": p.cache[1],
    }
    jobs = out.pop("jobs", None)
    if jobs is None:
        # one client thread: its loop is the wall time
        covered = tracer.covered_s.get(threading.main_thread().name, 0.0)
        report["wall_s"] = p.loop_s
        report["unattributed_s"] = max(p.loop_s - covered, 0.0)
        report["unattributed_of_s"] = p.loop_s
        return report
    # service: wall time is the client's summed latency; the job
    # threads' layers run inside it, the rest is service overhead
    latency = jobs["latency_s"]
    in_job = queue_wait = 0.0
    for job_id in latency:
        submitted, key = tracer.submits[job_id]
        in_job += tracer.stream_s.get(key, 0.0)
        queue_wait += tracer.stream_start.get(key, submitted) - submitted
    total = sum(latency.values())
    report.update(
        wall_s=total,
        unattributed_s=max(p.loop_s - total, 0.0),
        unattributed_of_s=p.loop_s,
        service_overhead_s=max(total - in_job, 0.0),
        service_queue_wait_s=queue_wait,
        service_rejected=jobs["rejected"],
    )
    return report


if __name__ == "__main__":
    sys.exit(main(sys.argv))
