"""Telemetry threads end-to-end: rows unchanged, spans cross processes."""

import json
import os
from dataclasses import replace

import pytest

from repro.analysis.sweep import SweepRunner, channel_width_jobs
from repro.api import ExecutionConfig, Session, SweepRequest, YieldRequest
from repro.arch.compiled import clear_rrg_cache
from repro.arch.params import ArchParams
from repro.utils.telemetry import (
    GLOBAL,
    Telemetry,
    chrome_trace,
    collecting,
    current_collector,
)

from golden_requests import GOLDEN_REQUESTS

SPECS = os.path.join(os.path.dirname(__file__), "..", "..", "examples",
                     "specs")

VALUES = (6, 7)


def _sweep(execution):
    return Session().run(SweepRequest(what="channel-width", grid=5,
                                      values=VALUES, execution=execution))


class TestSweepTelemetry:
    def test_metrics_block_attached_and_rows_unchanged(self):
        on = _sweep(ExecutionConfig(effort=0.2, telemetry=True))
        off = _sweep(ExecutionConfig(effort=0.2))
        m = on.metrics
        pops = [v for k, v in m["counters"].items()
                if k.startswith("router.pops")]
        assert pops and sum(pops) > 0
        assert m["counters"]["router.contexts_routed"] == len(VALUES)
        assert [w["pid"] for w in m["workers"]] == [os.getpid()]
        spans = {s[0] for s in m["workers"][0]["spans"]}
        assert {"point.substrate", "point.route"} <= spans
        # with telemetry off the result is byte-identical to pre-PR
        d_on, d_off = on.to_dict(), off.to_dict()
        assert "metrics" not in d_off
        assert all("metrics" not in p for p in d_off["points"])
        d_on.pop("metrics")
        for p in d_on["points"]:
            p.pop("metrics", None)
        assert d_on == d_off

    def test_substrate_builds_traced(self):
        """Each point's substrate lookup is a span, and a cache-miss
        build bumps ``substrate.builds`` on the point's collector."""
        clear_rrg_cache()
        try:
            m = _sweep(ExecutionConfig(effort=0.2, telemetry=True)).metrics
        finally:
            clear_rrg_cache()
        assert m["counters"]["substrate.builds"] == len(VALUES)
        names = [s[0] for s in m["workers"][0]["spans"]]
        assert names.count("point.substrate") == len(VALUES)

    def test_worker_counters_absorbed_into_global_registry(self):
        before = GLOBAL.counter("router.contexts_routed")
        _sweep(ExecutionConfig(effort=0.2, telemetry=True))
        assert GLOBAL.counter("router.contexts_routed") \
            >= before + len(VALUES)

    def test_analytic_sweeps_carry_no_metrics(self):
        r = Session().run(SweepRequest(
            what="change-rate", values=(0.01, 0.05),
            execution=ExecutionConfig(telemetry=True),
        ))
        assert r.metrics is None
        assert "metrics" not in r.to_dict()


class TestProcessBackendTelemetry:
    def test_spans_ride_back_from_worker_processes(self):
        req = YieldRequest(
            workload="adder", grid=5, width=8, rates=(0.0, 0.02), trials=4,
            execution=ExecutionConfig(effort=0.2, backend="process",
                                      workers=2, telemetry=True),
        )
        r = Session().run(req)
        m = r.metrics
        pids = {w["pid"] for w in m["workers"]}
        # spans came from worker processes, not the parent
        assert pids and os.getpid() not in pids
        assert all(w["spans"] for w in m["workers"])
        pops = sum(v for k, v in m["counters"].items()
                   if k.startswith("router.pops"))
        assert pops > 0  # summed across workers
        trace = chrome_trace(m)
        assert {ev["pid"] for ev in trace["traceEvents"]} == pids
        # rows (minus telemetry payloads) identical to sequential
        seq = Session().run(YieldRequest(
            workload="adder", grid=5, width=8, rates=(0.0, 0.02), trials=4,
            execution=ExecutionConfig(effort=0.2),
        ))
        d_p = [dict(p.to_dict()) for p in r.points]
        for p in d_p:
            p.pop("metrics", None)
        assert d_p == [p.to_dict() for p in seq.points]


# -- every request kind ------------------------------------------------ #
def _traced(req, **execution):
    return replace(req, execution=replace(req.execution, telemetry=True,
                                          **execution))


def _span_names(block) -> set:
    return {s[0] for w in block["workers"] for s in w["spans"]}


def _assert_map_block(block, spans) -> None:
    """A map-flow block: router and placer counters, and ``spans``."""
    names = {k.partition("{")[0] for k in block["counters"]}
    assert any(n.startswith("router.") for n in names), names
    assert any(n.startswith("placer.") for n in names), names
    assert block["counters"]["router.pops"] > 0
    assert spans <= _span_names(block), _span_names(block)


def _assert_payload_unchanged(on, off) -> None:
    """With the block popped, the traced payload is byte-identical to
    the untraced one, and the untraced one has no block at all."""
    d_off = off.to_dict()
    assert "metrics" not in json.dumps(d_off)
    d_on = on.to_dict()
    rows = d_on["results"] if "results" in d_on else [d_on]
    for row in rows:
        row.pop("metrics")
    assert json.dumps(d_on) == json.dumps(d_off)


MAP_SPANS = {"map.place", "map.route", "map.stats", "map.verify"}


class TestEveryRequestKind:
    """``telemetry`` is honoured on map, import, reorder and batch, not
    only on sweep and yield."""

    @pytest.mark.parametrize("kind, spans", [
        ("map_result", MAP_SPANS),
        ("import_result", {"map.place", "map.route", "map.verify"}),
        ("reorder_result", {"map.place", "map.route", "map.stats"}),
    ])
    def test_single_shot_kinds(self, kind, spans):
        req = GOLDEN_REQUESTS[kind]
        on = Session().run(_traced(req))
        _assert_map_block(on.metrics, spans)
        assert [w["pid"] for w in on.metrics["workers"]] == [os.getpid()]
        _assert_payload_unchanged(on, Session().run(req))
        # the block survives the result's own round trip
        assert type(on).from_dict(on.to_dict()) == on

    def test_map_counters_absorbed_into_global_registry(self):
        before = GLOBAL.counter("router.contexts_routed")
        on = Session().run(_traced(GOLDEN_REQUESTS["map_result"]))
        assert GLOBAL.counter("router.contexts_routed") == \
            before + on.metrics["counters"]["router.contexts_routed"]

    def test_parallel_route_threads_count_into_the_map_block(self):
        req = replace(GOLDEN_REQUESTS["map_result"], share_aware=False)
        threaded = Session().run(_traced(req, route_workers=2))
        serial = Session().run(_traced(req, route_workers=1))
        _assert_map_block(threaded.metrics, MAP_SPANS)

        def routed(res):
            return {k: v for k, v in res.metrics["counters"].items()
                    if k.startswith("router.")}

        assert routed(threaded) == routed(serial)

    def test_process_batch_rows_carry_worker_blocks(self):
        req = GOLDEN_REQUESTS["batch_result"]
        on = Session().run(_traced(req, backend="process", workers=2))
        off = Session().run(replace(req, execution=replace(
            req.execution, backend="process", workers=2)))
        for row in on.results:
            _assert_map_block(row.metrics, MAP_SPANS)
            pids = {w["pid"] for w in row.metrics["workers"]}
            # place/route ran in a worker, stats/verify in the parent
            assert os.getpid() in pids and len(pids) == 2
            worker = next(w for w in row.metrics["workers"]
                          if w["pid"] != os.getpid())
            assert {s[0] for s in worker["spans"]} == \
                {"map.place", "map.route"}
        _assert_payload_unchanged(on, off)

    def test_trace_of_a_spec_shows_map_spans(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "trace.json"
        assert main(["trace", os.path.join(SPECS, "ci_smoke.json"),
                     "-o", str(out)]) == 0
        names = {ev["name"] for ev in json.loads(out.read_text())
                 ["traceEvents"] if ev["ph"] == "X"}
        assert MAP_SPANS <= names


# -- the pool loop ----------------------------------------------------- #
def _collector_bound(_item) -> bool:
    return current_collector() is not None


class TestPoolLoop:
    """``SweepRunner.iter_items`` is the one place a per-item collector
    is bound."""

    @pytest.mark.parametrize("backend", ["sequential", "thread"])
    def test_no_run_id_binds_no_collector(self, backend):
        rows = list(SweepRunner(backend=backend, workers=2).iter_items(
            _collector_bound, [0, 1, 2]))
        assert rows == [(False, None)] * 3

    def test_ambient_collector_keeps_receiving_without_a_run_id(self):
        tel = Telemetry("outer")
        with collecting(tel):
            (row,) = SweepRunner().iter_items(_collector_bound, [0])
        assert row == (True, None)

    @pytest.mark.parametrize("backend", ["sequential", "thread", "process"])
    def test_run_id_snapshots_each_item_in_its_worker(self, backend):
        from repro.analysis.sweep import _evaluate_shipped

        netlist = Session().circuit("adder")
        base = ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4)
        runner = SweepRunner(backend=backend, workers=2)
        jobs = channel_width_jobs(netlist, base, [6, 8], effort=0.2)
        items = [(job, runner.placement_for(job)) for job in jobs]
        rows = list(runner.iter_items(_evaluate_shipped, items, "run-x"))
        assert [pt.metrics for pt, _snap in rows] == [None, None]
        for _pt, snap in rows:
            assert snap["run_id"] == "run-x"
            assert "point.route" in {s[0] for s in snap["spans"]}
            assert (snap["pid"] == os.getpid()) == (backend != "process")
