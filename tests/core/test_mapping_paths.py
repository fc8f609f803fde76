"""The mapping path end to end: no oracle in ``src/``, endpoints, and
device connectivity.

Mapping, statistics, verification and serialisation run on the flat
substrate alone: no module under ``src/repro`` names the object-graph
or legacy-router oracles (``tests/oracles``), and a full map, corpus
import and serialisation never loads them.  The legacy router's own
endpoint extraction must equal the router's on every ``map8`` benchmark
program and pinned corpus case.  The device's per-context connectivity,
gathered in one pass over the input pins, must equal the per-net scan
over every cell on the same programs.
"""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from legacy_router import net_endpoints
from repro.api import ExecutionConfig, MapRequest, Session
from repro.core.fpga import MultiContextFPGA
from repro.netlist.frontend.corpus import discover_cases, load_case
from repro.route.pathfinder import _net_endpoints
from rrg_oracle import build_rrg

CORPUS_ROOT = os.path.join(os.path.dirname(__file__), "..", "..",
                           "regression_tests")
SRC_PACKAGE = Path(repro.__file__).resolve().parent

#: Module names only the test suite may import.
ORACLE_MODULES = ("rrg_oracle", "legacy_router", "fabric_oracle")
#: Identifiers of the object graph and the legacy router.
ORACLE_NAMES = ("build_rrg", "RoutingResourceGraph", "compile_rrg")


def map8_requests(telemetry: bool = False) -> list:
    """The ``map8`` benchmark's op pool (``perfbench/worker.py``): six
    8-context share-aware requests cycling over three workloads, seeds
    drawn from the pool seed 2005."""
    rng = random.Random(2005)
    seeds = [rng.randrange(1 << 30) for _ in range(6)]
    return [
        MapRequest(workload=("adder", "cmp", "random")[i % 3], contexts=8,
                   share_aware=True, verify=True,
                   execution=ExecutionConfig(seed=s, telemetry=telemetry))
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


@pytest.fixture(scope="module")
def mapped_programs() -> list:
    """The six ``map8`` programs and every corpus case, mapped."""
    session = Session()
    mapped = [session.run(r).mapped for r in map8_requests()]
    mapped += [session.run(load_case(case)).mapped
               for case in discover_cases(CORPUS_ROOT)]
    assert len(mapped) >= 6 + 8
    return mapped


def _identifiers(tree: ast.AST):
    """Every name a module binds, reads or imports, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.arg):
            yield node.arg, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno
            if node.asname:
                yield node.asname, node.lineno


def test_src_never_names_the_oracles():
    """No module under ``src/repro`` imports an oracle or anything from
    ``tests``, and none names the object graph or the legacy router."""
    modules = sorted(SRC_PACKAGE.rglob("*.py"))
    assert len(modules) > 50
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        where = path.relative_to(SRC_PACKAGE.parent)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                continue
            for name in imported:
                top = name.split(".")[0]
                if top in ORACLE_MODULES or top == "tests":
                    found.append(f"{where}:{node.lineno} imports {name}")
        for name, line in _identifiers(tree):
            if name in ORACLE_NAMES or "_legacy" in name:
                found.append(f"{where}:{line} names {name}")
    assert found == []


def test_no_object_graph_on_map_import_or_serialise():
    """A map with verification, a corpus import and their serialisation,
    in a fresh interpreter, never load the object graph or the legacy
    router."""
    script = f"""
import sys
from repro.api import MapRequest, Session
from repro.netlist.frontend.corpus import discover_cases, load_case

session = Session()
mapped = session.run(MapRequest(verify=True))
assert mapped.verified and mapped.to_dict()["verified"] is True
imported = session.run(load_case(discover_cases({CORPUS_ROOT!r})[0]))
assert imported.verified and imported.to_dict()["verified"] is True
loaded = sorted(m for m in sys.modules
                if m in ("repro.arch.rrg", "repro.arch.stats",
                         "rrg_oracle", "legacy_router"))
print("loaded:", loaded)
"""
    # the oracles are importable in the child, so a src module that
    # reached for one would load it and fail the check
    oracles = Path(__file__).resolve().parents[1] / "oracles"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(SRC_PACKAGE.parent), str(oracles))))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "loaded: []"


def test_map8_pool_signs_each_cone_once():
    """The ``map8`` pool's 512 LUT cells hold 126 distinct structural
    cones, and its sharing analyses sign each of them once."""
    session = Session()
    cells = signed = 0
    for request in map8_requests(telemetry=True):
        counters = session.run(request).metrics["counters"]
        cells += counters["sharing.cells"]
        signed += counters["sharing.signed"]
    assert (cells, signed) == (512, 126)


def test_map_never_imports_numpy_ma():
    """A verified map in a fresh interpreter never loads ``numpy.ma``
    (``np.unique`` would, for the substrate's switch count or the
    Python route's congestion update), on either route kernel."""
    script = """
import sys
from repro.api import MapRequest, Session

assert Session().run(MapRequest(contexts=8, verify=True)).verified
print("numpy.ma loaded:", "numpy.ma" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC_PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "numpy.ma loaded: False"


def test_oracle_endpoints_match_router(mapped_programs):
    """The legacy router's name-keyed endpoint extraction over the
    object graph equals the router's array gather over the substrate."""
    graphs = {}
    for m in mapped_programs:
        if m.params not in graphs:
            graphs[m.params] = build_rrg(m.params)
        g = graphs[m.params]
        for netlist, placement in zip(m.program.contexts, m.placements):
            want = net_endpoints(netlist, placement, g)
            assert want
            assert _net_endpoints(netlist, placement, m.rrg).rows == want


def test_connectivity_matches_quadratic_scan(mapped_programs):
    for m in mapped_programs:
        device = MultiContextFPGA(m.params, rrg=m.rrg)
        device.configure_program(m.program, m.placements, m.routes)
        for c, netlist in enumerate(m.program.contexts):
            want = quadratic_connectivity(netlist)
            got = device.contexts[c].connectivity
            assert list(got) == list(want)
            assert got == want
