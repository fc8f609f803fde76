"""Tests for the simulated-annealing placer."""

import sys
import threading

import numpy as np
import pytest

from repro.arch.geometry import Coord
from repro.arch.params import ArchParams
from repro.errors import PlacementError
from repro.netlist.dfg import paper_example_program
from repro.netlist.synth import synthesize
from repro.netlist.techmap import tech_map
from repro.place.placer import place, place_program
from repro.workloads.generators import random_dag, ripple_adder
from repro.workloads.multicontext import mutated_program


def params(cols=5, rows=5) -> ArchParams:
    return ArchParams(cols=cols, rows=rows, channel_width=8, io_capacity=4)


class TestLegality:
    def test_one_cell_per_tile(self):
        n = tech_map(ripple_adder(3), k=4)
        pl = place(n, params(), seed=0, effort=0.3)
        coords = list(pl.cells.values())
        assert len(coords) == len(set(coords))

    def test_all_cells_placed_in_bounds(self):
        n = tech_map(ripple_adder(3), k=4)
        p = params()
        pl = place(n, p, seed=0, effort=0.3)
        assert set(pl.cells) == {c.name for c in n.luts()}
        for coord in pl.cells.values():
            assert 0 <= coord.x < p.cols and 0 <= coord.y < p.rows

    def test_ios_on_perimeter(self):
        n = tech_map(ripple_adder(2), k=4)
        p = params()
        pl = place(n, p, seed=0, effort=0.3)
        for cell in n.inputs() + n.outputs():
            coord, pad = pl.ios[cell.name]
            assert coord.x in (0, p.cols - 1) or coord.y in (0, p.rows - 1)
            assert 0 <= pad < p.io_capacity

    def test_io_pads_unique(self):
        n = tech_map(ripple_adder(3), k=4)
        pl = place(n, params(), seed=0, effort=0.3)
        pads = list(pl.ios.values())
        assert len(pads) == len(set(pads))

    def test_overflow_rejected(self):
        # map at k=2 so the LUT count stays near the gate count
        n = tech_map(random_dag(n_inputs=4, n_gates=30, n_outputs=8, seed=1), k=3)
        assert len(n.luts()) > 9
        with pytest.raises(PlacementError):
            place(n, params(3, 3), seed=0, effort=0.1)


class TestPinning:
    def test_pinned_cells_stay(self):
        n = tech_map(ripple_adder(2), k=4)
        target = n.luts()[0].name
        anchor = Coord(2, 2)
        pl = place(n, params(), seed=0, pinned={target: anchor}, effort=0.3)
        assert pl.cells[target] == anchor

    def test_pinned_collision_rejected(self):
        n = tech_map(ripple_adder(2), k=4)
        names = [c.name for c in n.luts()][:2]
        with pytest.raises(PlacementError):
            place(n, params(), pinned={names[0]: Coord(1, 1), names[1]: Coord(1, 1)})


class TestQuality:
    def test_annealing_beats_pathological_spread(self):
        """High effort should not lose badly to a token-effort anneal on
        a design big enough for placement to matter."""
        n = tech_map(random_dag(n_inputs=6, n_gates=40, n_outputs=6, seed=3), k=3)
        assert len(n.luts()) >= 15
        lazy = place(n, params(8, 8), seed=1, effort=0.02)
        hard = place(n, params(8, 8), seed=1, effort=1.0)
        assert hard.cost <= lazy.cost * 1.1

    def test_deterministic_given_seed(self):
        n = tech_map(ripple_adder(2), k=4)
        a = place(n, params(), seed=42, effort=0.3)
        b = place(n, params(), seed=42, effort=0.3)
        assert a.cells == b.cells


class TestProgramPlacement:
    def test_share_aware_pins_shared_cells(self):
        """Fig. 14 prerequisite: shared cells land on the same tile in
        every context."""
        prog = paper_example_program()
        pls = place_program(prog, params(), seed=1, share_aware=True, effort=0.3)
        assert pls[0].cells["O2"] == pls[1].cells["O2"]
        assert pls[0].cells["O3"] == pls[1].cells["O3"]

    def test_naive_mode_places_all(self):
        prog = paper_example_program()
        pls = place_program(prog, params(), seed=1, share_aware=False, effort=0.3)
        assert len(pls) == 2
        for pl, nl in zip(pls, prog.contexts):
            assert set(pl.cells) == {c.name for c in nl.luts()}

    def test_location_accessor(self):
        prog = paper_example_program()
        pls = place_program(prog, params(), seed=1, effort=0.3)
        assert pls[0].location("O2") == pls[0].cells["O2"]
        with pytest.raises(PlacementError):
            pls[0].location("ghost")

    def test_fully_shared_program_identical_placements(self):
        base = tech_map(synthesize(["a", "b"], {"o": "a & b"}), k=4)
        prog = mutated_program(base, n_contexts=3, fraction=0.0)
        pls = place_program(prog, params(), seed=2, share_aware=True, effort=0.3)
        for pl in pls[1:]:
            assert pl.cells == pls[0].cells


class TestForbiddenTiles:
    """Defective-logic-site avoidance (the reliability subsystem's
    re-place repair rides this)."""

    def test_forbidden_tiles_never_used(self):
        nl = tech_map(ripple_adder(4), k=4)
        forbidden = {Coord(2, 2), Coord(3, 1)}
        pl = place(nl, params(), seed=0, effort=0.3, forbidden=forbidden)
        assert forbidden.isdisjoint(pl.cells.values())

    def test_empty_forbidden_is_bit_identical(self):
        """The membership test never fires and the RNG stream is
        untouched, so the anneal trajectory must match exactly."""
        nl = tech_map(ripple_adder(4), k=4)
        base = place(nl, params(), seed=7, effort=0.3)
        guarded = place(nl, params(), seed=7, effort=0.3, forbidden=set())
        assert base.cells == guarded.cells
        assert base.ios == guarded.ios
        assert base.cost == guarded.cost

    def test_pinned_on_forbidden_rejected(self):
        nl = tech_map(ripple_adder(3), k=4)
        lut = nl.luts()[0].name
        with pytest.raises(PlacementError):
            place(nl, params(), seed=0,
                  pinned={lut: Coord(1, 1)}, forbidden={Coord(1, 1)})

    def test_capacity_accounts_for_forbidden(self):
        nl = tech_map(random_dag(4, 8, 3, seed=1), k=4)
        small = params(cols=3, rows=3)
        n_luts = len(nl.luts()) + len(nl.dffs())
        forbidden = {
            Coord(x, y) for x in range(3) for y in range(3)
        }
        keep = 9 - n_luts + 1  # leave one tile too few
        forbidden = set(list(forbidden)[: keep])
        with pytest.raises(PlacementError):
            place(nl, small, seed=0, forbidden=forbidden)

    def test_place_program_threads_forbidden(self):
        prog = mutated_program(tech_map(ripple_adder(3), k=4), 3, 0.1, seed=1)
        forbidden = {Coord(0, 0), Coord(4, 4)}
        pls = place_program(
            prog, params(), seed=1, share_aware=True, effort=0.2,
            forbidden=forbidden,
        )
        for pl in pls:
            assert forbidden.isdisjoint(pl.cells.values())


class TestSharedGenerator:
    """``place`` draws through the generator's ctypes interface under
    ``bit_generator.lock``; threads sharing one generator must neither
    deadlock nor corrupt a placement."""

    def test_threads_share_one_generator(self):
        nl = tech_map(random_dag(5, 12, 4, seed=3), k=4)
        p = params()
        rng = np.random.default_rng(5)
        results, errors = [], []

        def anneal():
            try:
                for _ in range(3):
                    results.append(place(nl, p, seed=rng, effort=0.2))
            except Exception as exc:  # reported below
                errors.append(exc)

        def draw():
            try:
                for _ in range(2000):
                    rng.random()
                    rng.integers(7)
            except Exception as exc:
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=anneal, daemon=True)
                       for _ in range(4)]
            threads.append(threading.Thread(target=draw, daemon=True))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(results) == 12
        for pl in results:
            assert set(pl.cells) == {c.name for c in nl.luts()}
            assert len(set(pl.cells.values())) == len(pl.cells)
            assert pl.cost == place(nl, p, seed=0, effort=0.2,
                                    pinned=dict(pl.cells)).cost
