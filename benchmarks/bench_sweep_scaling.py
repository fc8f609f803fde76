"""Sweep-subsystem scaling: seed legacy point-loop vs compiled runner.

The tentpole payoff measurement for the sweep layer: run a 16-point
minimum-channel-width-style grid (channel widths 4..19) three ways —

- **legacy loop** — the seed repo's per-point flow, reconstructed:
  fresh object-graph RRG per point, fresh placement per point, the
  dict/set PathFinder;
- **compiled sequential** — :class:`repro.analysis.sweep.SweepRunner`
  on the compiled engine: cached substrates, one shared placement
  (channel width is invisible to the placer), the flat-array router
  with vectorised congestion;
- **compiled process** — the same grid fanned out over a
  ``ProcessPoolExecutor`` (reported separately; its wins depend on
  core count and grid size, not on the engine).

The acceptance bar is >= 3x end-to-end for compiled-sequential on the
16-point sweep — and, on machines with >= 4 cores, >= 5x for the best
compiled run (the process backend supplies the margin: points are
independent, and each worker builds the substrates its points need).
Verdicts and wirelengths must be identical between the legacy loop and
both compiled runs.

Runs two ways:

- under pytest with the benchmark harness
  (``pytest benchmarks/bench_sweep_scaling.py --benchmark-only -s``);
- standalone (``python benchmarks/bench_sweep_scaling.py [--smoke]``)
  for CI smoke runs — ``--smoke`` shrinks the grid and only requires
  the compiled runner to win, while still checking both backends'
  results against the legacy loop.
"""

from __future__ import annotations

import os
import sys
import time

# the legacy router and its object graph are test oracles
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tests", "oracles"))

from legacy_router import route_context_legacy, wirelength  # noqa: E402
from repro.analysis.sweep import SweepRunner, channel_width_jobs  # noqa: E402
from repro.arch.compiled import clear_rrg_cache  # noqa: E402
from repro.arch.params import ArchParams  # noqa: E402
from repro.errors import RoutingError  # noqa: E402
from repro.netlist.techmap import tech_map  # noqa: E402
from repro.place.placer import place  # noqa: E402
from repro.utils.tables import TextTable  # noqa: E402
from repro.workloads.generators import random_dag  # noqa: E402
from rrg_oracle import build_rrg  # noqa: E402

SEED = 0
EFFORT = 0.3

#: Full-mode speedup floor vs the seed legacy loop: the compiled
#: engine must win >= 3x sequentially everywhere; with >= 4 cores the
#: best backend (process fan-out) must win >= 5x.
FLOOR_SEQ = 3.0
FLOOR_MULTICORE = 5.0
MULTICORE_AT = 4

#: The acceptance sweep: 16 channel widths on an 8x8 fabric.
FULL_WIDTHS = list(range(4, 20))
FULL_BASE = ArchParams(cols=8, rows=8, channel_width=10, io_capacity=6)
FULL_GATES = 40

#: CI smoke: 6 widths on a 6x6 fabric.
SMOKE_WIDTHS = list(range(5, 11))
SMOKE_BASE = ArchParams(cols=6, rows=6, channel_width=10, io_capacity=6)
SMOKE_GATES = 24


def _netlist(n_gates: int):
    return tech_map(
        random_dag(n_inputs=8, n_gates=n_gates, n_outputs=8, seed=5), k=4
    )


def _legacy_sweep(netlist, base: ArchParams, widths) -> list[tuple]:
    """The seed repo's dse loop: build + place + legacy route per point.

    The seed flow also timed each routed point on the object graph;
    timing now runs on the flat substrate only, so this baseline leaves
    it out, which can only make the baseline faster."""
    rows = []
    for w in widths:
        params = base.with_(channel_width=w)
        g = build_rrg(params)
        pl = place(netlist, params, seed=SEED, effort=EFFORT)
        try:
            rr = route_context_legacy(g, netlist, pl, max_iterations=25)
        except RoutingError:
            rows.append((w, False, 0))
            continue
        rows.append((w, True, wirelength(g, rr)))
    return rows


def _compiled_sweep(netlist, base, widths, backend: str) -> list[tuple]:
    workers = None if backend == "process" else 1
    runner = SweepRunner(backend=backend, workers=workers)
    jobs = channel_width_jobs(netlist, base, widths, seed=SEED, effort=EFFORT)
    return [
        (int(pt.value), pt.routed, pt.wirelength)
        for pt in runner.iter_run(jobs)
    ]


def _measure(base: ArchParams, widths, n_gates: int) -> dict:
    netlist = _netlist(n_gates)

    # legacy and compiled-sequential are timed *interleaved*, one sweep
    # point each, so clock-speed drift on busy runners hits both sides
    # equally instead of whichever happened to run second
    clear_rrg_cache()  # charge the compiled run its substrate builds
    runner = SweepRunner()
    legacy: list[tuple] = []
    seq: list[tuple] = []
    t_legacy = t_seq = 0.0
    for w in widths:
        t0 = time.perf_counter()
        legacy += _legacy_sweep(netlist, base, [w])
        t_legacy += time.perf_counter() - t0

        jobs = channel_width_jobs(netlist, base, [w], seed=SEED,
                                  effort=EFFORT)
        t0 = time.perf_counter()
        seq += [
            (int(pt.value), pt.routed, pt.wirelength)
            for pt in runner.iter_run(jobs)
        ]
        t_seq += time.perf_counter() - t0

    clear_rrg_cache()
    t0 = time.perf_counter()
    proc = _compiled_sweep(netlist, base, widths, "process")
    t_proc = time.perf_counter() - t0

    assert seq == legacy, (
        f"compiled sweep diverged from legacy verdicts:\n{seq}\nvs\n{legacy}"
    )
    assert proc == legacy, (
        f"process sweep diverged from legacy verdicts:\n{proc}\nvs\n{legacy}"
    )
    return {
        "points": len(widths),
        "grid": f"{base.cols}x{base.rows}",
        "routed": sum(1 for _, ok, _ in legacy if ok),
        "t_legacy": t_legacy,
        "t_seq": t_seq,
        "t_proc": t_proc,
        "speedup_seq": t_legacy / t_seq,
        "speedup_proc": t_legacy / t_proc,
    }


def _render(r: dict) -> str:
    t = TextTable(
        ["grid", "points", "routed", "legacy (s)", "sequential (s)",
         "process (s)", "seq speedup", "proc speedup"],
        title=f"Channel-width sweep scaling ({os.cpu_count()} cores)",
    )
    t.add_row([
        r["grid"], r["points"], r["routed"],
        f"{r['t_legacy']:.2f}", f"{r['t_seq']:.2f}", f"{r['t_proc']:.2f}",
        f"{r['speedup_seq']:.2f}x", f"{r['speedup_proc']:.2f}x",
    ])
    return t.render()


class TestSweepScaling:
    def test_full_sweep_speedup(self, benchmark):
        row = benchmark.pedantic(
            lambda: _measure(FULL_BASE, FULL_WIDTHS, FULL_GATES),
            rounds=1, iterations=1,
        )
        print("\n" + _render(row))
        assert row["points"] == 16
        assert row["speedup_seq"] >= FLOOR_SEQ, _render(row)
        if (os.cpu_count() or 1) >= MULTICORE_AT:
            best = max(row["speedup_seq"], row["speedup_proc"])
            assert best >= FLOOR_MULTICORE, _render(row)

    def test_smoke_sweep_consistent(self, benchmark):
        row = benchmark.pedantic(
            lambda: _measure(SMOKE_BASE, SMOKE_WIDTHS, SMOKE_GATES),
            rounds=1, iterations=1,
        )
        print("\n" + _render(row))
        assert row["speedup_seq"] > 1.0


def main(argv: list[str]) -> int:
    from benchlib import write_bench

    smoke = "--smoke" in argv
    if smoke:
        row = _measure(SMOKE_BASE, SMOKE_WIDTHS, SMOKE_GATES)
    else:
        row = _measure(FULL_BASE, FULL_WIDTHS, FULL_GATES)
    print(_render(row))
    ok = row["speedup_seq"] > (1.0 if smoke else FLOOR_SEQ)
    if not smoke and (os.cpu_count() or 1) >= MULTICORE_AT:
        ok = ok and max(row["speedup_seq"],
                        row["speedup_proc"]) >= FLOOR_MULTICORE
    write_bench(
        "sweep", speedup=row["speedup_seq"],
        wall_s=row["t_legacy"] + row["t_seq"] + row["t_proc"],
        gate=ok, detail=row,
    )
    if not ok:
        print("FAIL: compiled sweep below required speedup", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
