"""Tests for the place-and-route entry and batch mapping.

Batches run through ``Session.run(BatchRequest(...))``: every backend
fans :func:`~repro.analysis.engine.map_job` out over the sweep runner's
one pool loop and re-binds each result to the parent's cached
substrate."""

import pytest

from repro.analysis.engine import map_job
from repro.analysis.experiments import map_program
from repro.api import BatchRequest, ExecutionConfig, Session
from repro.arch.compiled import compiled_rrg_for
from repro.arch.params import ArchParams
from repro.errors import RequestError
from repro.netlist.synth import synthesize
from repro.netlist.techmap import tech_map
from repro.place.placer import place_program
from repro.route.pathfinder import route_program_compiled
from repro.workloads.multicontext import mutated_program


@pytest.fixture(scope="module")
def prog():
    base = tech_map(
        synthesize(["a", "b", "c"], {"o1": "a & b | c", "o2": "a ^ c"}), k=4
    )
    return mutated_program(base, n_contexts=2, fraction=0.2, seed=4)


@pytest.fixture(scope="module")
def params():
    return ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4)


def _placement_key(mapped):
    return [
        (sorted(pl.cells.items()), sorted(pl.ios.items()))
        for pl in mapped.placements
    ]


class TestSingleJob:
    def test_map_matches_map_program(self, prog, params):
        """``map_program`` is ``place_program`` then
        ``route_program_compiled`` on the cached substrate."""
        mapped = map_program(prog, params, seed=1, effort=0.3)
        placements = place_program(prog, params, seed=1, share_aware=True,
                                   effort=0.3)
        c = compiled_rrg_for(params)
        routes = route_program_compiled(c, prog, placements,
                                        share_aware=True)
        assert mapped.rrg is c
        assert _placement_key(mapped) == [
            (sorted(pl.cells.items()), sorted(pl.ios.items()))
            for pl in placements
        ]
        assert [r.wirelength(c) for r in mapped.routes] == [
            r.wirelength(c) for r in routes
        ]

    def test_shares_cached_substrate(self, prog, params):
        a = map_program(prog, params, seed=1, effort=0.3)
        b = map_program(prog, params, seed=2, effort=0.3)
        assert a.rrg is b.rrg is compiled_rrg_for(params)

    def test_explicit_compiled_graph_respected(self, prog, params):
        c = compiled_rrg_for(params)
        mapped = map_program(prog, params, seed=1, effort=0.3, rrg=c)
        assert mapped.rrg is c

    def test_auto_fit_params(self, prog):
        mapped = map_program(prog, seed=1, effort=0.3)
        assert mapped.params.n_tiles >= len(prog.contexts[0].luts())


def _batch(workloads=("crc", "parity", "adder"), **execution):
    """Map a batch through the one fan-out path: ``Session.run`` over
    ``SweepRunner.iter_items(map_job, ...)``."""
    req = BatchRequest(
        workloads=workloads, contexts=2, mutation=0.3,
        execution=ExecutionConfig(seed=5, effort=0.3, **execution),
    )
    return Session().run(req).results


def _mapped(results):
    return [r.mapped for r in results]


def _assert_same_mappings(a, b):
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
    for x, y in zip(_mapped(a), _mapped(b)):
        assert x.params == y.params
        assert _placement_key(x) == _placement_key(y)
        assert [r.wirelength(x.rrg) for r in x.routes] == [
            r.wirelength(y.rrg) for r in y.routes
        ]


class TestBatch:
    def test_batch_matches_sequential(self):
        seq = _batch()
        par = _batch(backend="thread", workers=3)
        assert len(seq) == len(par) == 3
        _assert_same_mappings(seq, par)

    def test_batch_preserves_order(self):
        workloads = ("adder", "parity", "crc")
        out = _batch(workloads, backend="thread", workers=2)
        assert [r.workload for r in out] == list(workloads)
        assert [m.program.name for m in _mapped(out)] == [
            m.program.name for m in _mapped(_batch(workloads))
        ]

    def test_batch_shares_substrate_across_jobs(self):
        # crc and parity auto-fit to the same device
        crc, parity, _ = _mapped(_batch(backend="thread", workers=2))
        assert crc.params == parity.params
        assert crc.rrg is parity.rrg is compiled_rrg_for(crc.params)

    def test_batch_auto_params_per_program(self):
        for m in _mapped(_batch()):
            assert m.params.n_tiles >= max(
                len(nl.luts()) for nl in m.program.contexts
            )

    def test_empty_batch(self):
        with pytest.raises(RequestError):
            BatchRequest(workloads=())
        rows = Session().sweep_runner().iter_items(map_job, [])
        assert list(rows) == []


class TestProcessBackend:
    def test_matches_sequential(self):
        _assert_same_mappings(_batch(),
                              _batch(backend="process", workers=2))

    def test_preserves_order_and_substrate(self):
        workloads = ("parity", "adder")
        out = _batch(workloads, backend="process", workers=2)
        assert [r.workload for r in out] == list(workloads)
        # results are re-bound to the parent's cached substrate
        for m in _mapped(out):
            assert m.rrg is compiled_rrg_for(m.params)

    def test_auto_fit_params(self):
        out = _mapped(_batch(backend="process", workers=2))
        assert all(m.params.n_tiles >= 1 for m in out)

    def test_unknown_backend_rejected(self):
        with pytest.raises(RequestError):
            ExecutionConfig(backend="rayon", workers=2)

    def test_item_function_returns_rebindable_artifacts(self, prog):
        params, placements, routes = map_job((prog, True, 1, 0.3, None))
        mapped = map_program(prog, seed=1, effort=0.3)
        assert params == mapped.params
        assert _placement_key(mapped) == [
            (sorted(pl.cells.items()), sorted(pl.ios.items()))
            for pl in placements
        ]
        c = compiled_rrg_for(params)
        assert [r.wirelength(c) for r in routes] == [
            r.wirelength(mapped.rrg) for r in mapped.routes
        ]
