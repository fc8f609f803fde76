"""Both static timing kernels against the dict-walk oracle, bit for bit.

:func:`repro.route.timing.critical_path` runs ``time_context`` in
``_search.c`` over the route's forest when the native route's library
is built, and otherwise its Python body, which times each net in one
pass over its :class:`~repro.route.pathfinder.RouteTree` and memoises
the table on the tree; ``sta_oracle`` (``tests/oracles``) is the STA
both replaced, a relaxing walk over each net's edge set with a CSR row
scan per edge.  Every case runs on both kernels (the native one only
where it builds), and each must give a critical path equal (``==``) to
the oracle's, as must every net's sink delays: every pinned corpus
case and ``map8`` program, every critical path a full yield request
computes (golden and repaired trials), warm reroutes with adopted,
salvaged and re-searched nets, and random small fabrics with random
netlists, routed cold and re-routed warm under wire and switch
defects, on both context-route kernels (so routes the Python loop
made, and warm routes whose adopted trees are the golden's, are timed
too), under the default and a non-default delay model.  A route that
is not a tree of the fabric's edges reaching its sinks gives the same
:class:`~repro.errors.SimulationError` text on both kernels, as does a
hand-built route with a net the placed netlist lacks or one that sinks
elsewhere (a hand-built route's nets are matched to the placed netlist's
by name, in any order), and a cell the placement lacks the same
:class:`~repro.errors.PlacementError`.
"""

import dataclasses
import pickle
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sta_oracle
from repro.api import ExecutionConfig, Session, YieldRequest
from repro.arch.compiled import flat_rrg_for
from repro.arch.params import ArchParams
from repro.errors import PlacementError, RoutingError, SimulationError
from repro.netlist.techmap import tech_map
from repro.place.placer import Placement, place
from repro.reliability import DefectMap, dirty_net_names
from repro.reliability import repair as repair_mod
from repro.route import pathfinder, timing
from repro.route.pathfinder import (
    RoutedNet,
    RouteResult,
    RouteTree,
    route_context_compiled,
    route_context_warm,
)
from repro.route.timing import DelayModel, timing_kernel
from repro.utils.telemetry import Telemetry, collecting
from repro.workloads.generators import random_dag, ripple_adder

MAX_ITERS = 25

#: A delay model far from the default: every constant moves.
SKEWED = DelayModel(r_pass=0.7, c_seg=1.3, t_buf=2.1, t_pin=0.45, t_lut=0.9)

#: The static timing kernels this host runs.
KERNELS = ("native", "python") if timing_kernel() == "native" else ("python",)


@contextmanager
def _sta(kernel: str):
    """Time on ``kernel``, asserting that the native one is taken."""
    if kernel == "python":
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(timing, "_time_function", lambda: None)
            yield
        return
    fn = timing._time_function()
    calls = []

    def counted(job):
        calls.append(job)
        return fn(job)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(timing, "_time_function", lambda: counted)
        yield
    assert calls


def _each_kernel(run) -> list:
    """``run()`` on each kernel (the Python one last, so its delay
    memos cannot feed the native one)."""
    out = []
    for kernel in KERNELS:
        with _sta(kernel):
            out.append(run())
    return out


def _assert_sta(c, netlist, rr, placement, model=None) -> float:
    want = sta_oracle.critical_path(c, netlist, rr, placement, model)
    got = _each_kernel(
        lambda: timing.critical_path(c, netlist, rr, placement, model))
    assert got == [want] * len(KERNELS)
    for name, net in rr.nets.items():
        assert list(timing.route_tree_delays(c, net, model).items()) == \
            list(sta_oracle.route_tree_delays(c, net, model).items()), name
    return want


@contextmanager
def _kernel(native: bool):
    """Route on the native context route, or force the Python loop."""
    if native:
        yield
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pathfinder, "_route_function", lambda: None)
        yield


def test_corpus_and_map8_programs(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "core"))
    from fabric_digest_cases import mapped_cases

    keys = []
    for key, mapped in mapped_cases():
        keys.append(key)
        for i, netlist in enumerate(mapped.program.contexts):
            for model in (None, SKEWED):
                _assert_sta(mapped.rrg, netlist, mapped.routes[i],
                            mapped.placements[i], model)
    assert any(k.startswith("map8/") for k in keys)
    assert any(k.startswith("corpus/") for k in keys)


def test_yield_request_trials(monkeypatch):
    """Every critical path of a full yield campaign (the golden's and
    each repaired trial's) equals the oracle's."""
    calls = []

    def checked(c, netlist, rr, placement, model=None):
        want = sta_oracle.critical_path(c, netlist, rr, placement, model)
        got = _each_kernel(lambda: timing.critical_path(
            c, netlist, rr, placement, model))
        assert got == [want] * len(KERNELS)
        calls.append(want)
        return want

    monkeypatch.setattr(repair_mod, "critical_path", checked)
    request = YieldRequest(
        workload="random", grid=7, width=8,
        rates=(0.01, 0.02, 0.03, 0.04, 0.05), trials=3, model="uniform",
        execution=ExecutionConfig(seed=1))
    rows = list(Session().stream(request))
    assert len(rows) == 5
    assert len(calls) > len(rows)


def test_warm_reroute_kinds_of_net():
    """A warm reroute with adopted, salvaged and re-searched nets."""
    params = ArchParams(cols=6, rows=6, channel_width=8, io_capacity=4)
    c = flat_rrg_for(params)
    netlist = tech_map(random_dag(6, 18, 6, seed=3), k=4)
    pl = place(netlist, params, seed=0, effort=0.3)
    for native in (True, False):
        tel = Telemetry("warm")
        with _kernel(native), collecting(tel):
            golden = route_context_compiled(c, netlist, pl,
                                            max_iterations=MAX_ITERS)
            for model in (None, SKEWED):
                _assert_sta(c, netlist, golden, pl, model)
            for seed in range(6):
                dm = DefectMap.sample(c, 0.05, seed=seed, logic_rate=0.0)
                rr = route_context_warm(
                    c, netlist, pl, golden, dirty_net_names(golden, dm),
                    defects=dm, max_iterations=MAX_ITERS)
                for model in (None, SKEWED):
                    _assert_sta(c, netlist, rr, pl, model)
                # the adopted nets share the golden's trees
                assert any(net.tree is golden.nets[name].tree
                           for name, net in rr.nets.items() if net.reused)
        for counter in ("adopted_nets", "salvaged_sinks",
                        "researched_sinks"):
            assert tel.counters[f"router.warm.{counter}"] > 0, counter


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    grid=st.integers(4, 7),
    width=st.integers(4, 10),
    double=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    gates=st.integers(6, 16),
    seed=st.integers(0, 1 << 16),
    rate=st.sampled_from([0.0, 0.01, 0.03, 0.05, 0.1]),
    native=st.booleans(),
    model=st.sampled_from([None, SKEWED]),
)
@example(grid=4, width=4, double=0.0, gates=6, seed=0, rate=0.1,
         native=True, model=None)
@example(grid=7, width=10, double=1.0, gates=16, seed=1, rate=0.05,
         native=False, model=SKEWED)
def test_random_fabrics(grid, width, double, gates, seed, rate, native,
                        model):
    params = ArchParams(cols=grid, rows=grid, channel_width=width,
                        double_fraction=double, io_capacity=4)
    c = flat_rrg_for(params)
    netlist = tech_map(random_dag(5, gates, 4, seed=seed), k=4)
    with _kernel(native):
        try:
            pl = place(netlist, params, seed=seed, effort=0.2)
            golden = route_context_compiled(c, netlist, pl,
                                            max_iterations=MAX_ITERS)
        except (PlacementError, RoutingError):
            return
        _assert_sta(c, netlist, golden, pl, model)
        for dseed in range(2):
            dm = DefectMap.sample(c, rate, seed=dseed, logic_rate=0.0)
            try:
                rr = route_context_warm(
                    c, netlist, pl, golden, dirty_net_names(golden, dm),
                    defects=dm, max_iterations=MAX_ITERS)
            except RoutingError:
                continue
            _assert_sta(c, netlist, rr, pl, model)


@pytest.fixture(scope="module")
def adder():
    params = ArchParams(cols=5, rows=5, channel_width=8, io_capacity=4)
    c = flat_rrg_for(params)
    netlist = ripple_adder(4)
    pl = place(netlist, params, seed=1, effort=0.3)
    return c, netlist, pl, route_context_compiled(c, netlist, pl)


def _errors(run) -> list[str]:
    """The text of the error ``run()`` raises on each kernel."""
    def caught():
        with pytest.raises(SimulationError) as info:
            run()
        return str(info.value)

    return _each_kernel(caught)


def _with_tree(rr, name, tree) -> RouteResult:
    """``rr`` with net ``name``'s tree replaced, as a hand-built route."""
    nets = {key: net if key != name else dataclasses.replace(net, tree=tree)
            for key, net in rr.nets.items()}
    return RouteResult(nets, rr.iterations, rr.context)


def _long_net(rr) -> RoutedNet:
    return max(rr.nets.values(), key=lambda net: net.tree.node.size)


def _edited(tree: RouteTree, **arrays) -> RouteTree:
    parts = {key: getattr(tree, key).copy()
             for key in ("node", "parent", "edge", "branch")}
    for key, edit in arrays.items():
        parts[key] = edit(parts[key])
    return RouteTree(**parts)


def _set(at, value):
    def edit(a):
        a[at] = value
        return a
    return edit


class TestErrorParity:
    """Malformed routes: the same error text on both kernels."""

    def test_parent_after_its_child(self, adder):
        c, netlist, pl, rr = adder
        net = _long_net(rr)
        bad = _with_tree(rr, net.name, _edited(net.tree, parent=_set(2, 2)))
        assert _errors(lambda: timing.critical_path(c, netlist, bad, pl)) \
            == [f"route of net {net.name!r} is not a tree in tree order"] \
            * len(KERNELS)

    def test_edge_index_minus_one(self, adder):
        c, netlist, pl, rr = adder
        net = _long_net(rr)
        bad = _with_tree(rr, net.name, _edited(net.tree, edge=_set(1, -1)))
        assert _errors(lambda: timing.critical_path(c, netlist, bad, pl)) \
            == [f"route of net {net.name!r} uses an edge the fabric lacks"] \
            * len(KERNELS)

    def test_edge_index_past_the_fabric(self, adder):
        c, netlist, pl, rr = adder
        net = _long_net(rr)
        bad = _with_tree(rr, net.name,
                         _edited(net.tree, edge=_set(-1, c.n_edges)))
        assert _errors(lambda: timing.critical_path(c, netlist, bad, pl)) \
            == [f"route of net {net.name!r} uses an edge the fabric lacks"] \
            * len(KERNELS)

    def test_sink_missing_from_its_tree(self, adder):
        c, netlist, pl, rr = adder
        net = _long_net(rr)
        last = int(net.tree.node[net.tree.branch[-1, 0]])
        bad = _with_tree(rr, net.name,
                         _edited(net.tree, branch=lambda b: b[:-1]))
        assert last in net.sinks
        assert _errors(lambda: timing.critical_path(c, netlist, bad, pl)) \
            == [f"sink {last} unreachable in route tree of net "
                f"{net.name!r}"] * len(KERNELS)

    def test_a_lacking_edge_anywhere_comes_first(self, adder):
        c, netlist, pl, rr = adder
        first, *_, last = rr.nets.values()
        bad = _with_tree(_with_tree(
            rr, first.name, _edited(first.tree, branch=lambda b: b[:0])),
            last.name, _edited(last.tree, edge=_set(-1, -1)))
        assert _errors(lambda: timing.critical_path(c, netlist, bad, pl)) \
            == [f"route of net {last.name!r} uses an edge the fabric lacks"] \
            * len(KERNELS)


    @staticmethod
    def _unmatched(c, netlist, rr, pl, name):
        for kernel in KERNELS:  # the error comes before any native call
            with pytest.MonkeyPatch.context() as mp:
                if kernel == "python":
                    mp.setattr(timing, "_time_function", lambda: None)
                with pytest.raises(SimulationError) as info:
                    timing.critical_path(c, netlist, rr, pl)
                assert str(info.value) == (
                    f"route of net {name!r} does not match its net on "
                    f"this placement")

    def test_a_net_the_netlist_lacks(self, adder):
        c, netlist, pl, rr = adder
        net = _long_net(rr)
        bad = RouteResult({**rr.nets, "ghost": dataclasses.replace(
            net, name="ghost")}, rr.iterations, rr.context)
        self._unmatched(c, netlist, bad, pl, "ghost")

    def test_a_net_with_other_sinks(self, adder):
        c, netlist, pl, rr = adder
        net = next(n for n in rr.nets.values() if len(n.sinks) > 1)
        bad = RouteResult({**rr.nets, net.name: dataclasses.replace(
            net, sinks=net.sinks[1:])}, rr.iterations, rr.context)
        self._unmatched(c, netlist, bad, pl, net.name)


class TestPlacementErrors:
    """A cell the placement lacks raises PlacementError naming it, on
    both kernels, where the route's own endpoints are not the ones."""

    @staticmethod
    def _raises(c, netlist, rr, pl, cell):
        for kernel in KERNELS:  # the error comes before any native call
            with pytest.MonkeyPatch.context() as mp:
                if kernel == "python":
                    mp.setattr(timing, "_time_function", lambda: None)
                with pytest.raises(PlacementError,
                                   match=f"cell {cell!r} not placed"):
                    timing.critical_path(c, netlist, rr, pl)

    def test_output_pad_missing(self, adder):
        c, netlist, pl, rr = adder
        ix = netlist.index()
        out = ix.cell_names[ix.outputs[0]]
        lacking = Placement(dict(pl.cells),
                            {k: v for k, v in pl.ios.items() if k != out},
                            pl.cost)
        self._raises(c, netlist, rr, lacking, out)

    def test_lut_not_placed(self, adder):
        c, netlist, pl, rr = adder
        ix = netlist.index()
        lut = next(ix.cell_names[i] for i in ix.luts)
        lacking = Placement({k: v for k, v in pl.cells.items() if k != lut},
                            dict(pl.ios), pl.cost)
        self._raises(c, netlist, rr, lacking, lut)


def test_route_endpoints_feed_the_timing(adder):
    """A route made on this placement times from its own endpoints and
    forest; an equal route without them (unpickled) extracts its own
    endpoints and concatenates its trees, to the same forest and the
    same critical path on both kernels."""
    c, netlist, pl, rr = adder
    assert rr.endpoints.made_for == (netlist.index(), pl, c)
    back = pickle.loads(pickle.dumps(rr))
    assert back.endpoints is None and back == rr
    for part in pathfinder.RouteForest.PARTS:
        assert np.array_equal(getattr(rr.forest(), part),
                              getattr(back.forest(), part)), part
    want = sta_oracle.critical_path(c, netlist, rr, pl)
    assert _each_kernel(lambda: [timing.critical_path(c, netlist, r, pl)
                                 for r in (rr, back)]) \
        == [[want, want]] * len(KERNELS)
    assert rr.wirelength(c) == back.wirelength(c)


def test_route_nets_in_another_order(adder):
    """A hand-built route whose nets come in another order than the
    endpoints' rows is matched to them by name: the same critical path
    on both kernels."""
    c, netlist, pl, rr = adder
    turned = RouteResult(dict(reversed(rr.nets.items())), rr.iterations,
                         rr.context)
    assert list(turned.nets) != list(rr.nets)
    want = sta_oracle.critical_path(c, netlist, rr, pl)
    assert _each_kernel(lambda: timing.critical_path(c, netlist, turned, pl)) \
        == [want] * len(KERNELS)
