"""Legacy vs compiled mapping-engine scaling.

The tentpole payoff measurement: route the same placed multi-context
workloads with the legacy object-graph PathFinder and with the compiled
flat-array engine, on growing grids, and record the speedup.  The
acceptance bar is >= 3x on a 12x12 grid with an 8-context workload;
smaller grids are reported for the scaling trend.

Runs two ways:

- under pytest with the benchmark harness
  (``pytest benchmarks/bench_engine_scaling.py --benchmark-only -s``);
- standalone (``python benchmarks/bench_engine_scaling.py [--smoke]``)
  for CI smoke runs — ``--smoke`` restricts to the smallest grid so the
  job stays fast while still failing loudly if the compiled engine ever
  loses to the legacy path.
"""

from __future__ import annotations

import os
import sys
import time

# the legacy router and its object graph are test oracles
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tests", "oracles"))

from legacy_router import route_program_legacy, wirelength  # noqa: E402
from repro.arch.compiled import build_flat  # noqa: E402
from repro.arch.params import ArchParams  # noqa: E402
from repro.netlist.techmap import tech_map  # noqa: E402
from repro.place.placer import place_program  # noqa: E402
from repro.route.pathfinder import route_program_compiled  # noqa: E402
from repro.utils.tables import TextTable  # noqa: E402
from repro.workloads.generators import random_dag  # noqa: E402
from repro.workloads.multicontext import mutated_program  # noqa: E402
from rrg_oracle import build_rrg  # noqa: E402

#: (grid side, contexts, gates) — the last row is the acceptance point.
SCALES = [
    (6, 4, 20),
    (9, 8, 40),
    (12, 8, 60),
]


def _case(side: int, n_contexts: int, n_gates: int):
    params = ArchParams(
        cols=side, rows=side, n_contexts=n_contexts,
        channel_width=8, io_capacity=6,
    )
    base = tech_map(
        random_dag(n_inputs=8, n_gates=n_gates, n_outputs=8, seed=5), k=4
    )
    prog = mutated_program(base, n_contexts, 0.08, seed=5)
    g = build_rrg(params)
    placements = place_program(prog, params, seed=3, share_aware=True,
                               effort=0.3)
    return params, prog, g, placements


def _measure(side: int, n_contexts: int, n_gates: int, repeats: int = 1):
    """One scaling row: identical placements, both routing engines."""
    params, prog, g, placements = _case(side, n_contexts, n_gates)
    compiled = build_flat(params)

    t0 = time.perf_counter()
    for _ in range(repeats):
        legacy = route_program_legacy(g, prog, placements, share_aware=True)
    t_legacy = (time.perf_counter() - t0) / repeats

    t0 = time.perf_counter()
    for _ in range(repeats):
        fast = route_program_compiled(compiled, prog, placements,
                                      share_aware=True)
    t_compiled = (time.perf_counter() - t0) / repeats

    wl_legacy = sum(wirelength(g, r) for r in legacy)
    wl_compiled = sum(wirelength(g, r) for r in fast)
    assert wl_legacy == wl_compiled, (
        f"engines disagree on wirelength: {wl_legacy} vs {wl_compiled}"
    )
    return {
        "grid": f"{side}x{side}",
        "contexts": n_contexts,
        "wirelength": wl_legacy,
        "t_legacy": t_legacy,
        "t_compiled": t_compiled,
        "speedup": t_legacy / t_compiled,
    }


def _render(rows) -> str:
    t = TextTable(
        ["grid", "contexts", "wirelength", "legacy (s)", "compiled (s)",
         "speedup"],
        title="Mapping-engine scaling: legacy vs compiled routing",
    )
    for r in rows:
        t.add_row([
            r["grid"], r["contexts"], r["wirelength"],
            f"{r['t_legacy']:.3f}", f"{r['t_compiled']:.3f}",
            f"{r['speedup']:.2f}x",
        ])
    return t.render()


class TestEngineScaling:
    def test_scaling_table(self, benchmark):
        rows = benchmark.pedantic(
            lambda: [_measure(*scale) for scale in SCALES],
            rounds=1, iterations=1,
        )
        print("\n" + _render(rows))
        # equal wirelength is asserted inside _measure; the acceptance
        # point is the 12x12 / 8-context row
        big = rows[-1]
        assert big["grid"] == "12x12" and big["contexts"] == 8
        assert big["speedup"] >= 3.0, _render(rows)

    def test_compiled_never_slower_small(self, benchmark):
        row = benchmark.pedantic(
            lambda: _measure(*SCALES[0]), rounds=1, iterations=1
        )
        assert row["speedup"] > 1.0


def main(argv: list[str]) -> int:
    from benchlib import write_bench

    scales = SCALES[:1] if "--smoke" in argv else SCALES
    rows = [_measure(*scale) for scale in scales]
    print(_render(rows))
    if "--smoke" in argv:
        ok = rows[0]["speedup"] > 1.0
    else:
        ok = rows[-1]["speedup"] >= 3.0
    write_bench(
        "engine", speedup=rows[-1]["speedup"],
        wall_s=sum(r["t_legacy"] + r["t_compiled"] for r in rows),
        gate=ok, detail=rows,
    )
    if not ok:
        print("FAIL: compiled engine below required speedup", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
