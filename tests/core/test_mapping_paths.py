"""The mapping path end to end: no object graph, and device connectivity.

Mapping, statistics, verification and serialisation run on the flat
substrate alone, so they must succeed with the object graph's
constructor disabled.  The device's per-context connectivity, gathered
in one pass over the input pins, must equal the per-net scan over every
cell on every pinned corpus case and every ``map8`` benchmark program.
"""

import os
import random

import pytest

from repro.api import ExecutionConfig, MapRequest, Session
from repro.arch.compiled import clear_rrg_cache
from repro.arch.rrg import RoutingResourceGraph
from repro.core.fpga import MultiContextFPGA
from repro.netlist.frontend.corpus import discover_cases, load_case

CORPUS_ROOT = os.path.join(os.path.dirname(__file__), "..", "..",
                           "regression_tests")


def map8_requests() -> list:
    """The ``map8`` benchmark's op pool (``perfbench/worker.py``): six
    8-context share-aware requests cycling over three workloads, seeds
    drawn from the pool seed 2005."""
    rng = random.Random(2005)
    seeds = [rng.randrange(1 << 30) for _ in range(6)]
    return [
        MapRequest(workload=("adder", "cmp", "random")[i % 3], contexts=8,
                   share_aware=True, verify=True,
                   execution=ExecutionConfig(seed=s))
        for i, s in enumerate(seeds)
    ]


def quadratic_connectivity(netlist) -> dict:
    """Net -> driver and sinks by scanning every cell's inputs per net."""
    out = {}
    for net, driver_name in netlist.net_driver.items():
        sinks = []
        for s in netlist.cells.values():
            for slot, in_net in enumerate(s.inputs):
                if in_net == net:
                    sinks.append((s.name, s.kind.value, slot))
        out[net] = {
            "driver": driver_name,
            "driver_kind": netlist.cells[driver_name].kind.value,
            "sinks": sinks,
        }
    return out


def test_no_object_graph_on_map_import_or_serialise(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("an object graph was built")

    clear_rrg_cache()
    monkeypatch.setattr(RoutingResourceGraph, "__init__", refuse)
    with pytest.raises(AssertionError):
        RoutingResourceGraph()
    session = Session()
    mapped = session.run(MapRequest(verify=True))
    assert mapped.verified
    assert mapped.to_dict()["verified"] is True
    imported = session.run(load_case(discover_cases(CORPUS_ROOT)[0]))
    assert imported.verified
    assert imported.to_dict()["verified"] is True


def test_connectivity_matches_quadratic_scan():
    session = Session()
    mapped = [session.run(r).experiment.mapped for r in map8_requests()]
    mapped += [session.run(load_case(case)).mapped
               for case in discover_cases(CORPUS_ROOT)]
    assert len(mapped) >= 6 + 8
    for m in mapped:
        device = MultiContextFPGA(m.params, rrg=m.rrg)
        device.configure_program(m.program, m.placements, m.routes)
        for c, netlist in enumerate(m.program.contexts):
            want = quadratic_connectivity(netlist)
            got = device.contexts[c].connectivity
            assert list(got) == list(want)
            assert got == want
