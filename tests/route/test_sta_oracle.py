"""The array STA against the dict-walk oracle, bit for bit.

:func:`repro.route.timing.critical_path` times each net in one pass
over its :class:`~repro.route.pathfinder.RouteTree` and memoises the
table on the tree; ``sta_oracle`` (``tests/oracles``) is the STA it
replaced, a relaxing walk over each net's edge set with a CSR row scan
per edge.  Both must give equal (``==``) critical paths and per-net
sink delays on: every pinned corpus case and ``map8`` program, every
critical path a full yield request computes (golden and repaired
trials), and random small fabrics with random netlists, routed cold
and re-routed warm under wire and switch defects, on both context-route
kernels.
"""

from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sta_oracle
from repro.api import ExecutionConfig, Session, YieldRequest
from repro.arch.compiled import flat_rrg_for
from repro.arch.params import ArchParams
from repro.errors import PlacementError, RoutingError
from repro.netlist.techmap import tech_map
from repro.place.placer import place
from repro.reliability import DefectMap, dirty_net_names
from repro.reliability import repair as repair_mod
from repro.route import pathfinder, timing
from repro.route.pathfinder import route_context_compiled, route_context_warm
from repro.utils.telemetry import Telemetry, collecting
from repro.workloads.generators import random_dag

MAX_ITERS = 25


def _assert_sta(c, netlist, rr, placement) -> float:
    want = sta_oracle.critical_path(c, netlist, rr, placement)
    got = timing.critical_path(c, netlist, rr, placement)
    assert got == want
    for name, net in rr.nets.items():
        assert list(timing.route_tree_delays(c, net).items()) == \
            list(sta_oracle.route_tree_delays(c, net).items()), name
    return got


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
            _assert_sta(mapped.rrg, netlist, mapped.routes[i],
                        mapped.placements[i])
    assert any(k.startswith("map8/") for k in keys)
    assert any(k.startswith("corpus/") for k in keys)


def test_yield_request_trials(monkeypatch):
    """Every critical path of a full yield campaign (the golden's and
    each repaired trial's) equals the oracle's."""
    calls = []

    def checked(c, netlist, rr, placement, model=None):
        want = sta_oracle.critical_path(c, netlist, rr, placement, model)
        got = timing.critical_path(c, netlist, rr, placement, model)
        assert got == want
        calls.append(got)
        return got

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
    golden = route_context_compiled(c, netlist, pl, max_iterations=MAX_ITERS)
    _assert_sta(c, netlist, golden, pl)
    tel = Telemetry("warm")
    with collecting(tel):
        for seed in range(6):
            dm = DefectMap.sample(c, 0.05, seed=seed, logic_rate=0.0)
            rr = route_context_warm(
                c, netlist, pl, golden, dirty_net_names(golden, dm),
                defects=dm, max_iterations=MAX_ITERS)
            _assert_sta(c, netlist, rr, pl)
    for counter in ("adopted_nets", "salvaged_sinks", "researched_sinks"):
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
)
@example(grid=4, width=4, double=0.0, gates=6, seed=0, rate=0.1,
         native=True)
@example(grid=7, width=10, double=1.0, gates=16, seed=1, rate=0.05,
         native=False)
def test_random_fabrics(grid, width, double, gates, seed, rate, native):
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
        _assert_sta(c, netlist, golden, pl)
        for dseed in range(2):
            dm = DefectMap.sample(c, rate, seed=dseed, logic_rate=0.0)
            try:
                rr = route_context_warm(
                    c, netlist, pl, golden, dirty_net_names(golden, dm),
                    defects=dm, max_iterations=MAX_ITERS)
            except RoutingError:
                continue
            _assert_sta(c, netlist, rr, pl)
