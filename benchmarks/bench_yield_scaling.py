"""Yield-subsystem scaling: Monte Carlo trials across sweep backends.

The payoff measurement for the reliability layer: a 64-trial defect
campaign (one workload, one defect-rate grid) run on the sequential and
process backends of :class:`repro.reliability.YieldRunner`.

Three properties are asserted:

- **agreement** — both backends produce identical :class:`YieldPoint`
  rows for the same campaign seeds (trial seeds are derived in the
  parent; defect sampling and repair are pure functions of the job);
- **substrate reuse** — the sequential campaign builds the compiled
  RRG exactly once per device configuration (``flat_rrg_for`` cache);
  per-trial cost is defect sampling + repair, never a graph rebuild;
- **scaling** (full mode, >= 2 cores) — the process backend beats the
  sequential one end-to-end: trials are embarrassingly parallel, and
  each ships as one pickled ``(job, golden)`` item through the sweep
  runner's pool loop.  On >= 4 cores the floor rises to >= 2x.

Runs two ways:

- under pytest with the benchmark harness
  (``pytest benchmarks/bench_yield_scaling.py --benchmark-only -s``);
- standalone (``python benchmarks/bench_yield_scaling.py [--smoke]``)
  for CI smoke runs — ``--smoke`` shrinks the campaign and drops the
  speedup gate (CI runners make wall-clock gates flaky) while still
  checking agreement and substrate reuse.
"""

from __future__ import annotations

import os
import sys
import time

from repro.arch.compiled import clear_rrg_cache, flat_rrg_for
from repro.arch.params import ArchParams
from repro.netlist.techmap import tech_map
from repro.reliability import YieldRunner
from repro.utils.tables import TextTable
from repro.workloads.generators import random_dag

SEED = 0
EFFORT = 0.3
WORKERS = max(2, os.cpu_count() or 2)

#: Full-mode process-backend speedup floors vs sequential: any win on
#: 2-3 cores, >= 2x on >= 4 cores.
FLOOR_MULTICORE = 2.0
MULTICORE_AT = 4


def _proc_floor() -> float | None:
    cores = os.cpu_count() or 1
    if cores >= MULTICORE_AT:
        return FLOOR_MULTICORE
    if cores >= 2:
        return 1.0
    return None

#: The acceptance campaign: 64 trials (16 per rate) on a 7x7 fabric at
#: a rate grid that exercises every repair rung.
FULL_BASE = ArchParams(cols=7, rows=7, channel_width=8, io_capacity=6)
FULL_RATES = [0.01, 0.03, 0.06, 0.1]
FULL_TRIALS = 16
FULL_GATES = 32

#: CI smoke: 16 trials (8 per rate) on a 6x6 fabric.
SMOKE_BASE = ArchParams(cols=6, rows=6, channel_width=8, io_capacity=6)
SMOKE_RATES = [0.02, 0.06]
SMOKE_TRIALS = 8
SMOKE_GATES = 20


def _netlist(n_gates: int):
    return tech_map(
        random_dag(n_inputs=8, n_gates=n_gates, n_outputs=8, seed=5), k=4
    )


def _campaign(netlist, base, rates, trials, backend: str):
    runner = YieldRunner(
        backend=backend, workers=WORKERS if backend != "sequential" else None
    )
    points = runner.iter_campaign(
        netlist, "random", base, rates, trials, seed=SEED, effort=EFFORT
    )
    return [pt.to_dict() for pt in points]


def _measure(base: ArchParams, rates, trials, n_gates: int) -> dict:
    netlist = _netlist(n_gates)

    clear_rrg_cache()  # charge the sequential run its substrate build
    t0 = time.perf_counter()
    seq = _campaign(netlist, base, rates, trials, "sequential")
    t_seq = time.perf_counter() - t0
    info = flat_rrg_for.cache_info()
    # one device configuration => exactly one substrate build for the
    # whole campaign; every trial must ride the cache
    assert info.misses == 1, (
        f"expected 1 substrate build for {len(rates) * trials} trials, "
        f"got {info.misses}"
    )
    assert info.hits >= len(rates) * trials, info

    clear_rrg_cache()
    t0 = time.perf_counter()
    proc = _campaign(netlist, base, rates, trials, "process")
    t_proc = time.perf_counter() - t0

    assert proc == seq, (
        f"process campaign diverged from sequential rows:\n{proc}\nvs\n{seq}"
    )
    return {
        "grid": f"{base.cols}x{base.rows}",
        "points": len(rates),
        "trials": len(rates) * trials,
        "yield": [row["yield_fraction"] for row in seq],
        "t_seq": t_seq,
        "t_proc": t_proc,
        "speedup_proc": t_seq / t_proc,
    }


def _render(r: dict) -> str:
    t = TextTable(
        ["grid", "points", "trials", "sequential (s)", "process (s)",
         "proc speedup"],
        title=f"Monte Carlo yield scaling ({os.cpu_count()} cores, "
              f"{WORKERS} workers)",
    )
    t.add_row([
        r["grid"], r["points"], r["trials"],
        f"{r['t_seq']:.2f}", f"{r['t_proc']:.2f}",
        f"{r['speedup_proc']:.2f}x",
    ])
    return t.render()


class TestYieldScaling:
    def test_full_campaign_process_speedup(self, benchmark):
        row = benchmark.pedantic(
            lambda: _measure(FULL_BASE, FULL_RATES, FULL_TRIALS, FULL_GATES),
            rounds=1, iterations=1,
        )
        print("\n" + _render(row))
        assert row["trials"] == 64
        floor = _proc_floor()
        if floor is not None:
            assert row["speedup_proc"] >= floor, _render(row)

    def test_smoke_campaign_consistent(self, benchmark):
        row = benchmark.pedantic(
            lambda: _measure(SMOKE_BASE, SMOKE_RATES, SMOKE_TRIALS,
                             SMOKE_GATES),
            rounds=1, iterations=1,
        )
        print("\n" + _render(row))
        assert row["trials"] == 16


def main(argv: list[str]) -> int:
    from benchlib import write_bench

    smoke = "--smoke" in argv
    if smoke:
        row = _measure(SMOKE_BASE, SMOKE_RATES, SMOKE_TRIALS, SMOKE_GATES)
    else:
        row = _measure(FULL_BASE, FULL_RATES, FULL_TRIALS, FULL_GATES)
    print(_render(row))
    floor = _proc_floor()
    ok = smoke or floor is None or row["speedup_proc"] >= floor
    write_bench(
        "yield", speedup=row["speedup_proc"],
        wall_s=row["t_seq"] + row["t_proc"], gate=ok, detail=row,
    )
    if not ok:
        print(f"FAIL: process backend speedup {row['speedup_proc']:.2f}x "
              f"below the {floor:.1f}x floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
