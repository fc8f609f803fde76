"""Tests for the unified mapping engine."""

import pytest

from repro.analysis.engine import DEFAULT_ENGINE, MappingEngine
from repro.analysis.experiments import map_program
from repro.arch.compiled import CompiledRRG, compiled_rrg_for
from repro.arch.params import ArchParams
from repro.arch.rrg import build_rrg
from repro.netlist.synth import synthesize
from repro.netlist.techmap import tech_map
from repro.workloads.generators import ripple_adder
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
        a = MappingEngine().map(prog, params, seed=1, effort=0.3)
        b = map_program(prog, params, seed=1, effort=0.3)
        assert _placement_key(a) == _placement_key(b)
        assert [r.wirelength(a.rrg) for r in a.routes] == [
            r.wirelength(b.rrg) for r in b.routes
        ]

    def test_shares_cached_substrate(self, prog, params):
        engine = MappingEngine()
        a = engine.map(prog, params, seed=1, effort=0.3)
        b = engine.map(prog, params, seed=2, effort=0.3)
        assert a.rrg is b.rrg is engine.compiled(params)

    def test_explicit_object_graph_respected(self, prog, params):
        g = build_rrg(params)
        mapped = MappingEngine().map(prog, params, seed=1, effort=0.3, rrg=g)
        assert mapped.rrg.source is g

    def test_explicit_compiled_graph_respected(self, prog, params):
        c = compiled_rrg_for(params)
        mapped = MappingEngine().map(prog, params, seed=1, effort=0.3, rrg=c)
        assert mapped.rrg is c

    def test_auto_fit_params(self, prog):
        mapped = MappingEngine().map(prog, seed=1, effort=0.3)
        assert mapped.params.n_tiles >= len(prog.contexts[0].luts())

    def test_default_engine_exists(self):
        assert isinstance(DEFAULT_ENGINE, MappingEngine)
        assert isinstance(DEFAULT_ENGINE.compiled(
            ArchParams(cols=3, rows=3, channel_width=4)
        ), CompiledRRG)


class TestBatch:
    def _programs(self):
        adder = tech_map(ripple_adder(2), k=4)
        return [
            mutated_program(adder, 2, 0.0, seed=1),
            mutated_program(adder, 2, 0.3, seed=2),
            mutated_program(adder, 2, 0.6, seed=3),
        ]

    def test_batch_matches_sequential(self, params):
        progs = self._programs()
        engine = MappingEngine()
        seq = engine.map_batch(progs, params, seed=5, effort=0.3, workers=1)
        par = engine.map_batch(progs, params, seed=5, effort=0.3, workers=3)
        assert len(seq) == len(par) == 3
        for a, b in zip(seq, par):
            assert _placement_key(a) == _placement_key(b)
            assert [r.wirelength(a.rrg) for r in a.routes] == [
                r.wirelength(b.rrg) for r in b.routes
            ]

    def test_batch_preserves_order(self, params):
        progs = self._programs()
        out = MappingEngine(workers=2).map_batch(progs, params, effort=0.3)
        assert [m.program.name for m in out] == [p.name for p in progs]

    def test_batch_shares_substrate_across_jobs(self, params):
        progs = self._programs()
        out = MappingEngine(workers=2).map_batch(progs, params, effort=0.3)
        assert all(m.rrg is out[0].rrg for m in out)

    def test_batch_auto_params_per_program(self):
        progs = self._programs()
        out = MappingEngine().map_batch(progs, effort=0.3)
        assert all(m.params.n_tiles >= 1 for m in out)

    def test_empty_batch(self, params):
        assert MappingEngine().map_batch([], params) == []


class TestProcessBackend:
    def _programs(self):
        adder = tech_map(ripple_adder(2), k=4)
        return [
            mutated_program(adder, 2, 0.0, seed=1),
            mutated_program(adder, 2, 0.3, seed=2),
        ]

    def test_matches_sequential(self, params):
        progs = self._programs()
        engine = MappingEngine()
        seq = engine.map_batch(progs, params, seed=5, effort=0.3, workers=1)
        proc = engine.map_batch(progs, params, seed=5, effort=0.3,
                                workers=2, backend="process")
        for a, b in zip(seq, proc):
            assert _placement_key(a) == _placement_key(b)
            assert [r.wirelength(a.rrg) for r in a.routes] == [
                r.wirelength(b.rrg) for r in b.routes
            ]

    def test_preserves_order_and_substrate(self, params):
        progs = self._programs()
        out = MappingEngine().map_batch(
            progs, params, effort=0.3, workers=2, backend="process"
        )
        assert [m.program.name for m in out] == [p.name for p in progs]
        # results are re-bound to the parent's cached substrate
        engine_view = MappingEngine().compiled(params)
        assert all(m.rrg is engine_view for m in out)

    def test_auto_fit_params(self):
        out = MappingEngine().map_batch(
            self._programs(), effort=0.3, workers=2, backend="process"
        )
        assert all(m.params.n_tiles >= 1 for m in out)

    def test_unknown_backend_rejected(self, params):
        with pytest.raises(ValueError):
            MappingEngine().map_batch(
                self._programs(), params, workers=2, backend="rayon"
            )
