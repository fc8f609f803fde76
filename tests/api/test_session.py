"""Session facade tests: equivalence with the underlying subsystems
(bit-identical rows), streaming == blocking, and cross-stage cache
sharing."""

import json

import pytest

from repro.analysis.sweep import SweepRunner, channel_width_jobs
from repro.api import (
    BatchRequest,
    BatchResult,
    ExecutionConfig,
    MapRequest,
    MapResult,
    ReorderRequest,
    SweepRequest,
    SweepResult,
    YieldRequest,
    YieldResult,
    Session,
    result_from_dict,
)
from repro.api.requests import REQUEST_TYPES, request_stage_kind
from repro.arch.params import ArchParams
from repro.errors import RequestError
from repro.reliability.yield_runner import YieldRunner

from golden_requests import GOLDEN_REQUESTS


@pytest.fixture(scope="module")
def session():
    return Session()


SWEEP_REQ = SweepRequest(
    what="channel-width", workload="adder", grid=5, values=(6, 8),
    execution=ExecutionConfig(effort=0.2),
)
YIELD_REQ = YieldRequest(
    workload="adder", grid=5, width=7, rates=(0.0, 0.05), trials=3,
    execution=ExecutionConfig(effort=0.2),
)


class TestSweepEquivalence:
    """Session.run(SweepRequest) == direct SweepRunner, bit for bit."""

    def test_rows_match_direct_runner(self, session):
        result = session.run(SWEEP_REQ)
        netlist = session.circuit("adder")
        base = ArchParams(cols=5, rows=5, channel_width=10, io_capacity=4)
        jobs = channel_width_jobs(netlist, base, [6, 8], seed=0, effort=0.2)
        direct = list(SweepRunner().iter_run(jobs))
        assert [pt.to_dict() for pt in result.points] == \
            [pt.to_dict() for pt in direct]

    def test_stream_yields_same_rows(self, session):
        blocking = session.run(SWEEP_REQ)
        streamed = list(session.stream(SWEEP_REQ))
        assert [pt.to_dict() for pt in streamed] == \
            [pt.to_dict() for pt in blocking.points]

    def test_backends_agree(self, session):
        seq = session.run(SWEEP_REQ)
        proc = session.run(SweepRequest(
            what="channel-width", workload="adder", grid=5, values=(6, 8),
            execution=ExecutionConfig(backend="process", workers=2,
                                      effort=0.2),
        ))
        assert [pt.to_dict() for pt in seq.points] == \
            [pt.to_dict() for pt in proc.points]

    def test_analytic_sweep(self, session):
        result = session.run(SweepRequest(what="change-rate",
                                          values=(0.0, 0.05)))
        assert [pt.value for pt in result.points] == [0.0, 0.05]
        assert all(0 < pt.cmos_ratio < 1 for pt in result.points)


class TestYieldEquivalence:
    """Session.run(YieldRequest) == direct YieldRunner, bit for bit."""

    def test_rows_match_direct_runner(self, session):
        result = session.run(YIELD_REQ)
        netlist = session.circuit("adder")
        base = ArchParams(cols=5, rows=5, channel_width=7, io_capacity=4)
        direct = list(YieldRunner().iter_campaign(
            netlist, "adder", base, [0.0, 0.05], 3, seed=0, effort=0.2,
        ))
        assert [pt.to_dict() for pt in result.points] == \
            [pt.to_dict() for pt in direct]

    def test_stream_yields_same_rows(self, session):
        blocking = session.run(YIELD_REQ)
        streamed = list(session.stream(YIELD_REQ))
        assert [pt.to_dict() for pt in streamed] == \
            [pt.to_dict() for pt in blocking.points]

    def test_backends_agree(self, session):
        seq = session.run(YIELD_REQ)
        proc = session.run(YieldRequest(
            workload="adder", grid=5, width=7, rates=(0.0, 0.05), trials=3,
            execution=ExecutionConfig(backend="process", workers=2,
                                      effort=0.2),
        ))
        assert [pt.to_dict() for pt in seq.points] == \
            [pt.to_dict() for pt in proc.points]

    def test_spare_curve(self, session):
        result = session.run(YieldRequest(
            workload="adder", grid=5, width=7, rates=(0.05,), trials=3,
            spares=(0, 2), execution=ExecutionConfig(effort=0.2),
        ))
        assert result.campaign == "spare-width"
        assert [pt.spare_tracks for pt in result.points] == [0, 2]
        assert [pt.channel_width for pt in result.points] == [7, 9]


class TestBatchAndMap:
    def test_batch_matches_sequential_maps(self, session):
        req = BatchRequest(workloads=("adder", "cmp"), contexts=4,
                           execution=ExecutionConfig(seed=7))
        batch = session.run(req)
        singles = [
            session.run(MapRequest(workload=w, contexts=4,
                                   execution=ExecutionConfig(seed=7)))
            for w in ("adder", "cmp")
        ]
        assert [r.to_dict() for r in batch.results] == \
            [r.to_dict() for r in singles]

    def test_batch_thread_backend_agrees(self, session):
        seq = session.run(BatchRequest(workloads=("adder", "cmp")))
        thr = session.run(BatchRequest(
            workloads=("adder", "cmp"),
            execution=ExecutionConfig(backend="thread", workers=2),
        ))
        assert [r.to_dict() for r in seq.results] == \
            [r.to_dict() for r in thr.results]

    def test_batch_stream_matches_blocking(self, session):
        req = BatchRequest(
            workloads=("adder", "cmp"),
            execution=ExecutionConfig(backend="thread", workers=2),
        )
        blocking = session.run(req)
        streamed = list(session.stream(req))
        assert [r.to_dict() for r in streamed] == \
            [r.to_dict() for r in blocking.results]

    def test_map_result_carries_experiment(self, session):
        result = session.run(MapRequest(workload="adder"))
        assert result.mapped.params.cols == result.grid[0]
        assert result.stats.switch.change_fraction() == \
            result.switch_change_rate

    def test_unsupported_request_type(self, session):
        with pytest.raises(RequestError, match="unsupported request"):
            session.run(object())


class TestRunFoldsStream:
    """``Session.run`` is the fold of ``Session.stream`` for every
    request type (one small request each, fresh sessions)."""

    REQUESTS = {req.TYPE_TAG: req for req in GOLDEN_REQUESTS.values()}

    @pytest.mark.parametrize("tag", sorted(REQUEST_TYPES))
    def test_run_equals_folded_stream(self, tag):
        request = self.REQUESTS[tag]
        blocking = Session().run(request)
        session = Session()
        rows = list(session.stream(request))
        folded = session.fold_stage(request_stage_kind(request), request,
                                    rows)
        assert type(folded) is type(blocking)
        assert folded.to_dict() == blocking.to_dict()


class TestResultRoundTrips:
    """from_dict(to_dict(x)) == x for every result type produced live."""

    def test_sweep_result(self, session):
        r = session.run(SWEEP_REQ)
        assert SweepResult.from_dict(json.loads(json.dumps(r.to_dict()))) == r

    def test_yield_result(self, session):
        r = session.run(YIELD_REQ)
        assert YieldResult.from_dict(json.loads(json.dumps(r.to_dict()))) == r

    def test_map_result(self, session):
        r = session.run(MapRequest(workload="adder"))
        assert MapResult.from_dict(json.loads(json.dumps(r.to_dict()))) == r

    def test_batch_result(self, session):
        r = session.run(BatchRequest(workloads=("adder",)))
        assert BatchResult.from_dict(json.loads(json.dumps(r.to_dict()))) == r

    def test_reorder_result(self, session):
        r = session.run(ReorderRequest(workload="adder",
                                       execution=ExecutionConfig(seed=7)))
        rt = result_from_dict(json.loads(json.dumps(r.to_dict())))
        assert rt == r


class TestCacheSharing:
    def test_circuit_cached_by_identity(self, session):
        assert session.circuit("adder") is session.circuit("adder")

    def test_sweep_runner_shared_per_config(self, session):
        cfg = ExecutionConfig(backend="thread", workers=3)
        assert session.sweep_runner(cfg) is session.sweep_runner(cfg)

    def test_yield_rides_sweep_placement_cache(self):
        """A yield stage's golden mapping must reuse the placement a
        sweep stage already computed (same netlist identity, grid,
        seed, effort)."""
        s = Session()
        s.run(SweepRequest(
            what="channel-width", workload="adder", grid=5, values=(7,),
            execution=ExecutionConfig(effort=0.2),
        ))
        runner = s.sweep_runner(ExecutionConfig(effort=0.2))
        placements_before = len(runner._placements)
        s.run(YieldRequest(workload="adder", grid=5, width=7,
                           rates=(0.0,), trials=1,
                           execution=ExecutionConfig(effort=0.2)))
        # golden_for went through the same runner: no new anneal
        assert len(runner._placements) == placements_before


class TestConcurrentCaches:
    """Session caches must be race-free: JobManager workers share one
    Session, so get-or-create has to be single-flight per key."""

    def test_two_threads_hammer_get_identical_objects(self):
        import threading

        session = Session()
        results: dict = {}
        errors: list = []
        barrier = threading.Barrier(2)

        def hammer(tag: str) -> None:
            try:
                barrier.wait(timeout=30)
                got = []
                for _ in range(50):
                    got.append((
                        session.circuit("adder"),
                        session.program("adder", 2, 0.05, 0),
                        session.sweep_runner(),
                        session.yield_runner(),
                    ))
                results[tag] = got
            except Exception as exc:  # surfaced below, not swallowed
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        flat = results["a"] + results["b"]
        # every thread, every iteration: the *same* objects — identity
        # matters because the placement cache keys on netlist identity
        for grabbed in flat:
            assert grabbed[0] is flat[0][0]
            assert grabbed[1] is flat[0][1]
            assert grabbed[2] is flat[0][2]
            assert grabbed[3] is flat[0][3]

    def test_concurrent_map_requests_agree_with_sequential(self):
        from concurrent.futures import ThreadPoolExecutor

        request = MapRequest(workload="adder", contexts=2,
                             execution=ExecutionConfig(effort=0.2))
        expected = Session().run(request)
        session = Session()
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(session.run, request) for _ in range(4)]
            outcomes = [f.result(timeout=300) for f in futures]
        for out in outcomes:
            assert out == expected

    def test_substrate_build_is_single_flight(self):
        """Concurrent misses on one ArchParams must not each build the
        substrate (lru_cache alone is thread-safe but not
        single-flight — the job layer's workers hit this for real)."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.arch.compiled import (
            clear_rrg_cache,
            compiled_rrg_for,
            flat_rrg_for,
        )

        params = ArchParams(cols=4, rows=4, channel_width=6, io_capacity=4)
        clear_rrg_cache()
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                compiled = [f.result() for f in
                            [pool.submit(compiled_rrg_for, params)
                             for _ in range(4)]]
                flats = [f.result() for f in
                         [pool.submit(flat_rrg_for, params)
                          for _ in range(4)]]
            assert compiled_rrg_for.cache_info().misses == 1
            assert flat_rrg_for.cache_info().misses == 1
            assert all(c is compiled[0] for c in compiled)
            assert all(f is flats[0] for f in flats)
        finally:
            clear_rrg_cache()  # leave no half-warm state for other tests


class TestRouteWorkersWiring:
    """ExecutionConfig.route_workers reaches every ``map_program`` call
    (the map handler's and the batch item function's)."""

    def _capture(self, monkeypatch):
        import repro.analysis.engine as engine_mod
        import repro.api.session as session_mod

        calls = []
        real = session_mod.map_program

        def spy(program, params=None, **kwargs):
            calls.append(kwargs.get("route_workers"))
            return real(program, params, **kwargs)

        for module in (session_mod, engine_mod):
            monkeypatch.setattr(module, "map_program", spy)
        return calls

    def test_map_request_passes_route_workers(self, monkeypatch):
        session = Session()
        calls = self._capture(monkeypatch)
        session.run(MapRequest(
            workload="adder", contexts=2, share_aware=False,
            execution=ExecutionConfig(effort=0.2, route_workers=2),
        ))
        assert calls == [2]

    def test_default_is_none(self, monkeypatch):
        session = Session()
        calls = self._capture(monkeypatch)
        session.run(MapRequest(workload="adder", contexts=2,
                               execution=ExecutionConfig(effort=0.2)))
        assert calls == [None]

    def test_route_workers_do_not_change_share_unaware_results(self):
        base = dict(workload="adder", contexts=2, share_aware=False)
        plain = Session().run(MapRequest(
            **base, execution=ExecutionConfig(effort=0.2)))
        routed = Session().run(MapRequest(
            **base, execution=ExecutionConfig(effort=0.2, route_workers=2)))
        assert routed == plain  # parallel context routing: same answer

    def test_batch_thread_backend_passes_route_workers(self, monkeypatch):
        session = Session()
        calls = self._capture(monkeypatch)
        session.run(BatchRequest(
            workloads=("adder", "cmp"), contexts=2, share_aware=False,
            execution=ExecutionConfig(backend="thread", workers=2,
                                      effort=0.2, route_workers=2),
        ))
        assert calls == [2, 2]
