"""Telemetry threads end-to-end: rows unchanged, spans cross processes."""

import os

from repro.api import ExecutionConfig, Session, SweepRequest, YieldRequest
from repro.arch.compiled import clear_rrg_cache
from repro.utils.telemetry import GLOBAL, chrome_trace

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
