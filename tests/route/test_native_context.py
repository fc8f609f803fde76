"""The native context route against the Python loop, context by context.

With a C compiler, every sequential context route (``workers <= 1``)
is one ``route_context`` call into ``_search.c``.  Each workload below
is routed twice: once through that call and once through the Python
loop of ``route_context_compiled`` (the fallback and the oracle), which
runs the Python kernel ``_astar``, not the native search: the two
share no search code.  Per net the two must agree on the route
tree's arrays, on ``nodes``, ``edges``, ``sink_paths`` (insertion order
included) and ``reused``,
per context on ``iterations``, the telemetry counters must match key
for key (first-seen order included), and the congestion state left
behind (usage, history, folded costs, pressure factor) bit for bit:
the native route sets that state up itself, in buffers it is handed.
Covered: the route-digest cases (share-aware programs, the 0-10% wire
and switch defect suite plus seed-9 maps at 1, 3 and 5% on its 6x6
fabric, warm reroutes with salvage), the queue workloads, a congested
context on fractional base costs, a congested context whose dead
pin-adjacent wires are born pressured, the share-aware ``map8`` programs
with their reuse banks, both ``RoutingError`` messages, routes that
clear exactly at the rip-up limit, and share-unaware contexts routed
on four threads.
"""

import inspect
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiments import map_program
from repro.api import ExecutionConfig, Session, SweepRequest, YieldRequest
from repro.arch.compiled import CompiledRRG, flat_rrg_for
from repro.arch.params import ArchParams
from repro.errors import RoutingError
from repro.netlist.techmap import tech_map
from repro.place.placer import place, place_program
from repro.reliability import DefectMap, build_golden, dirty_net_names
from repro.route import pathfinder
from repro.route.pathfinder import (
    RouteForest,
    route_context_compiled,
    route_context_warm,
    route_kernel,
    route_program_compiled,
)
from repro.utils.telemetry import Telemetry, collecting
from repro.workloads.generators import random_dag
from route_digest_cases import (
    DEFECT_FABRICS,
    DEFECT_RATES,
    DEFECT_SEEDS,
    EQUIV_GRIDS,
    MAX_ITERS,
    WARM_MAPS,
    WARM_PARAMS,
    _equiv_programs,
)
from test_router_queue import CASES

pytestmark = pytest.mark.skipif(
    route_kernel() != "native", reason="no C compiler: Python loop only"
)

#: Maps routed on the 6x6 defect fabric besides the digest suite's.
EXTRA_DEFECT_MAPS = {"6x6w8": [(rate, 9) for rate in (0.01, 0.03, 0.05)]}


class _Calls:
    """Counts the native route calls (and passes them through)."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


@contextmanager
def _native():
    """Route through the C call, asserting that it is taken."""
    calls = _Calls(pathfinder._ROUTE.function())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pathfinder, "_route_function", lambda: calls)
        yield
    assert calls.calls > 0


@contextmanager
def _python_loop():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pathfinder, "_route_function", lambda: None)
        yield


@contextmanager
def _recorded_states():
    """Every congestion state the router builds, in order: the Python
    loop's ``_FlatCongestion`` and the buffers the native route sets up
    and leaves its state in."""
    states = []

    def recorded(base):
        class Recorded(base):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                states.append(self)

        return Recorded

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_FlatCongestion", "_CongestionArrays"):
            mp.setattr(pathfinder, name, recorded(getattr(pathfinder, name)))
        yield states


def _state_bits(state) -> tuple:
    return (state.usage.tobytes(), state.history.tobytes(),
            state.eff.tobytes(), state.pres_fac)


def _twice(run):
    """``run()`` natively, then on the Python loop: the results and the
    counters of each.  The congestion states both leave behind (usage,
    history, folded costs, pressure factor) must be equal bit for bit."""
    out, bits = [], []
    for mode in (_native, _python_loop):
        tel = Telemetry("twin")
        with mode(), _recorded_states() as states, collecting(tel):
            result = run()
        out.append((result, list(tel.counters.items())))
        bits.append([_state_bits(state) for state in states])
    assert bits[0] and bits[0] == bits[1]
    return out


def _assert_same_route(a, b):
    assert a.iterations == b.iterations
    assert a.context == b.context
    assert list(a.nets) == list(b.nets)
    for name, net in a.nets.items():
        other = b.nets[name]
        assert (net.source, net.sinks) == (other.source, other.sinks), name
        assert net.nodes == other.nodes, name
        assert net.edges == other.edges, name
        assert list(net.sink_paths.items()) == \
            list(other.sink_paths.items()), name
        assert net.reused == other.reused, name
        # the same tree arrays, and the Python loop builds its sets in
        # this order as well
        assert net.tree == other.tree, name
        assert list(net.nodes) == list(other.nodes), name
    # the native route's output buffer is the forest of every net's
    # tree, adopted ones included, as the loop's trees concatenate
    for part in RouteForest.PARTS:
        assert np.array_equal(getattr(a.forest(), part),
                              getattr(b.forest(), part)), part


def _assert_twins(run):
    """Route both ways and compare; the native results and counters."""
    (native, native_counts), (python, python_counts) = _twice(run)
    results = native if isinstance(native, list) else [native]
    oracle = python if isinstance(python, list) else [python]
    assert len(results) == len(oracle)
    for a, b in zip(results, oracle):
        _assert_same_route(a, b)
    assert native_counts == python_counts
    return results, dict(native_counts)


class TestDigestCases:
    @pytest.mark.parametrize("params", EQUIV_GRIDS,
                             ids=lambda p: f"{p.cols}x{p.rows}")
    def test_share_aware_programs(self, params):
        c = flat_rrg_for(params)
        for prog in _equiv_programs().values():
            pls = place_program(prog, params, seed=3, share_aware=True,
                                effort=0.3)
            results, _counts = _assert_twins(
                lambda: route_program_compiled(c, prog, pls, share_aware=True))
            assert any(net.reused for rr in results[1:]
                       for net in rr.nets.values())

    @pytest.mark.parametrize("label,params,circuit", DEFECT_FABRICS,
                             ids=[f[0] for f in DEFECT_FABRICS])
    def test_defect_suite(self, label, params, circuit):
        c = flat_rrg_for(params)
        netlist = tech_map(circuit(), k=4)
        pl = place(netlist, params, seed=2, effort=0.3)
        ripups = 0
        maps = [(rate, seed) for rate in DEFECT_RATES for seed in DEFECT_SEEDS]
        for rate, seed in maps + EXTRA_DEFECT_MAPS.get(label, []):
            dm = DefectMap.sample(c, rate, seed=seed, logic_rate=0.0)
            _results, counts = _assert_twins(
                lambda: route_context_compiled(
                    c, netlist, pl, defects=dm, max_iterations=MAX_ITERS))
            ripups += counts.get("router.ripup_iterations", 0)
        assert ripups > 0

    def test_warm_reroutes_with_salvage(self):
        c = flat_rrg_for(WARM_PARAMS)
        netlist = tech_map(
            random_dag(n_inputs=6, n_gates=18, n_outputs=6, seed=3), k=4)
        pl = place(netlist, WARM_PARAMS, seed=0, effort=0.3)
        (golden,), _counts = _assert_twins(
            lambda: build_golden(c, netlist, pl, MAX_ITERS).routes)
        salvaged = 0
        for rate, seed in (*WARM_MAPS, (0.03, 1), (0.05, 2), (0.08, 3)):
            dm = DefectMap.sample(c, rate, seed=seed, logic_rate=0.0)
            dirty = dirty_net_names(golden, dm)
            _results, counts = _assert_twins(lambda: route_context_warm(
                c, netlist, pl, golden, dirty, max_iterations=MAX_ITERS,
                defects=dm))
            salvaged += counts.get("router.warm.salvaged_sinks", 0)
        assert salvaged > 0


class TestWorkloads:
    @pytest.mark.parametrize("name,params,circuit", CASES,
                             ids=[case[0] for case in CASES])
    def test_queue_workloads(self, name, params, circuit):
        netlist = tech_map(circuit(), k=4)
        c = flat_rrg_for(params)
        pl = place(netlist, params, seed=2, effort=0.3)
        _assert_twins(lambda: route_context_compiled(c, netlist, pl))

    def test_congested_context(self):
        """Rip-up iterations: the overuse test, the history bump, the
        pressure growth and the re-price run in C."""
        params = ArchParams(cols=6, rows=6, channel_width=4, io_capacity=4)
        c = flat_rrg_for(params)
        netlist = tech_map(random_dag(6, 18, 6, seed=2), k=4)
        pl = place(netlist, params, seed=2)
        (rr,), counts = _assert_twins(
            lambda: route_context_compiled(c, netlist, pl))
        assert rr.iterations > 1
        assert counts["router.ripped_nets"] > 0
        assert counts["router.repriced_nodes"] > 0

    def test_dead_pin_wires(self):
        """Every third wire one switch from a net's output pin is dead:
        the native route sets those nodes up with no capacity and an
        infinite history, born pressured, so every escalation re-prices
        them; the congested context's routes, counters and congestion
        state must still match the Python loop's."""
        params = ArchParams(cols=6, rows=6, channel_width=5, io_capacity=4)
        c = flat_rrg_for(params)
        netlist = tech_map(random_dag(6, 18, 6, seed=2), k=4)
        pl = place(netlist, params, seed=2)
        wires = set(c.wire_node_ids().tolist())

        def fanout(node):
            return c.edge_dst[c.edge_start[node]:c.edge_start[node + 1]]

        near = sorted({
            wire for _name, source, _sinks in
            pathfinder._net_endpoints(netlist, pl, c).rows
            for pin in fanout(source).tolist()
            for wire in fanout(pin).tolist() if wire in wires})
        dm = DefectMap.from_defects(c, wire_nodes=near[::3])
        (rr,), counts = _assert_twins(
            lambda: route_context_compiled(c, netlist, pl, defects=dm))
        assert rr.iterations > 1
        # the dead nodes are re-priced at every escalation
        dead = len(near[::3])
        assert counts["router.repriced_nodes"] >= \
            dead * counts["router.ripup_iterations"]

    def test_fractional_base_costs(self):
        """Base costs off the fabric's 1.0 / 1.2 grid, so every folded
        cost and history bump rounds: the C arithmetic must round as
        numpy does, operation for operation."""
        params = ArchParams(cols=6, rows=6, channel_width=4, io_capacity=4)
        c = flat_rrg_for(params)
        arrays = {
            name: getattr(c, name)
            for name, p in inspect.signature(
                CompiledRRG._from_arrays).parameters.items()
            if p.kind is p.KEYWORD_ONLY
        }
        rng = np.random.default_rng(5)
        arrays["base_cost"] = 1.0 + rng.random(c.n_nodes) / 3.0
        skewed = CompiledRRG._from_arrays(params, **arrays)
        netlist = tech_map(random_dag(6, 18, 6, seed=2), k=4)
        pl = place(netlist, params, seed=2)
        _results, counts = _assert_twins(
            lambda: route_context_compiled(skewed, netlist, pl))
        assert counts["router.repriced_nodes"] > 0

    def test_map8_programs(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "core"))
        from fabric_digest_cases import map8_requests

        session = Session()
        for req in map8_requests():
            seed = req.execution.seed
            program = session.program(req.workload, req.contexts,
                                      req.mutation, seed)
            mapped = map_program(program, share_aware=True, seed=seed)
            _assert_twins(lambda: route_program_compiled(
                mapped.rrg, program, mapped.placements, share_aware=True))

    def test_share_unaware_threads_equal_sequential(self):
        prog = _equiv_programs()["random"]
        params = EQUIV_GRIDS[0]
        c = flat_rrg_for(params)
        pls = place_program(prog, params, seed=3, share_aware=False,
                            effort=0.3)
        with _python_loop():
            want = route_program_compiled(c, prog, pls, share_aware=False)
        with _native():
            got = route_program_compiled(c, prog, pls, share_aware=False,
                                         workers=4)
        for a, b in zip(got, want):
            _assert_same_route(a, b)


def _error(run) -> str:
    with pytest.raises(RoutingError) as info:
        run()
    return str(info.value)


class TestErrors:
    def test_unroutable_fabric(self):
        """Every switch into one sink is dead: the box search and the
        unpruned retry both fail, and both loops name the sink."""
        params = ArchParams(cols=4, rows=4, channel_width=4, io_capacity=4)
        c = flat_rrg_for(params)
        netlist = tech_map(random_dag(4, 8, 3, seed=2), k=4)
        pl = place(netlist, params, seed=0, effort=0.2)
        sink = pathfinder._net_endpoints(netlist, pl, c).rows[-1][2][-1]
        dm = DefectMap.from_defects(
            c, switch_edges=np.flatnonzero(c.edge_dst == sink))
        (msg_native, counts_native), (msg_python, counts_python) = _twice(
            lambda: _error(lambda: route_context_compiled(
                c, netlist, pl, defects=dm)))
        assert msg_native == msg_python
        assert msg_native.startswith(f"no path to sink node {sink} ")
        assert counts_native == counts_python

    def test_limit_tested_after_overuse(self):
        """Both loops test overuse before the rip-up limit: a route that
        clears on its last permitted pass, and a clean first pass at a
        limit of one, are accepted."""
        netlist = tech_map(random_dag(6, 18, 6, seed=2), k=4)
        for width, limit in ((4, 2), (6, 1)):
            params = ArchParams(cols=6, rows=6, channel_width=width,
                                io_capacity=4)
            c = flat_rrg_for(params)
            pl = place(netlist, params, seed=2)
            (rr,), _counts = _assert_twins(lambda: route_context_compiled(
                c, netlist, pl, max_iterations=limit))
            assert rr.iterations == limit

    def test_iteration_limit(self):
        params = ArchParams(cols=3, rows=3, channel_width=1,
                            double_fraction=0.0, io_capacity=4)
        c = flat_rrg_for(params)
        netlist = tech_map(random_dag(4, 8, 3, seed=2), k=4)
        pl = place(netlist, params, seed=0, effort=0.2)
        (msg_native, counts_native), (msg_python, counts_python) = _twice(
            lambda: _error(lambda: route_context_compiled(
                c, netlist, pl, max_iterations=6)))
        assert msg_native == msg_python
        assert "congestion unresolved after 6 iterations" in msg_native
        assert counts_native == counts_python



class TestLazyNets:
    """A native route builds its nets only when something reads them:
    wirelength and static timing read its output buffer."""

    def test_sweep_points_build_no_nets(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a route's nets were built")

        monkeypatch.setattr(pathfinder, "_decode_native", refuse)
        request = SweepRequest(
            what="channel-width", workload="random", grid=5, width=8,
            values=(6, 8, 10), execution=ExecutionConfig(seed=2))
        rows = list(Session().stream(request))
        assert [row.routed for row in rows] == [True] * 3
        assert all(row.critical_path > 0 for row in rows)

    def test_yield_trials_build_no_nets(self, monkeypatch):
        """Only the golden routes build nets (for defect detection and
        the warm reroutes' reuse bank), never a trial's."""
        decoded, goldens, trials = [], [], []
        decode, route = pathfinder._decode_native, pathfinder._route_native

        def counted_decode(*args):
            decoded.append(args)
            return decode(*args)

        def counted_route(fn, c, endpoints, order, priors, salvage,
                          seed_of, defects, *rest):
            (goldens if defects is None else trials).append(order)
            return route(fn, c, endpoints, order, priors, salvage, seed_of,
                         defects, *rest)

        monkeypatch.setattr(pathfinder, "_decode_native", counted_decode)
        monkeypatch.setattr(pathfinder, "_route_native", counted_route)
        request = YieldRequest(
            workload="random", grid=7, width=8, rates=(0.02, 0.05),
            trials=3, model="uniform", execution=ExecutionConfig(seed=3))
        rows = list(Session().stream(request))
        assert [row.trials for row in rows] == [3, 3]
        assert trials and any(order is not None for order in trials)
        assert 0 < len(decoded) <= len(goldens)

    def test_threads_read_one_dict_of_nets(self):
        """Threads that first read a native route's nets together (the
        trial threads of a yield campaign share its golden) all get the
        one dict it builds, equal to the nets of the same route read on
        one thread."""
        params = ArchParams(cols=6, rows=6, channel_width=8, io_capacity=4)
        c = flat_rrg_for(params)
        netlist = tech_map(random_dag(6, 24, 4, seed=4), k=4)
        pl = place(netlist, params, seed=1, effort=0.2)
        want = route_context_compiled(c, netlist, pl).nets
        workers = 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the build
        try:
            for _ in range(10):
                rr = route_context_compiled(c, netlist, pl)
                start = threading.Barrier(workers, timeout=60)

                def read(_):
                    start.wait()
                    return rr.nets

                with ThreadPoolExecutor(workers) as pool:
                    got = list(pool.map(read, range(workers)))
                assert all(nets is got[0] for nets in got)
                assert got[0] == want
        finally:
            sys.setswitchinterval(interval)
