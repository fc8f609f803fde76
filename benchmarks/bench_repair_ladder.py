"""Repair-ladder delta-reroute: incremental vs from-scratch repair.

The payoff measurement for PR 7's incremental repair routing.  A
reroute-rung-heavy campaign — wire-only defect maps (``switch_rate =
logic_rate = 0``) keep every defective die on the ROUTE_AROUND rung,
where the delta path earns its keep — is repaired twice per die:

- **incremental** (the default): the golden congestion state is adopted
  before the first fresh search, dirty nets salvage their healthy sink
  branches and re-search only the broken sinks at escalated pressure
  (:data:`repro.route.pathfinder.WARM_PRES_FAC`), and unrouted nets'
  delay tables ride the golden cache;
- **from-scratch** (``repair_from_scratch`` in
  ``tests/oracles/repair_oracle.py``): every rung re-routes the full
  context against the defect map, the pre-PR-7 reference behaviour.

Four properties are asserted:

- **verdict agreement** — both modes reach the same repair level for
  every die (the ladder's verdicts are the physics; the delta path may
  only change *which equally valid routes* implement them);
- **speedup** (>= 4 cores) — the incremental campaign beats the
  from-scratch one end-to-end by >= 2x;
- **row bit-identity** — a standard yield campaign (which rides the
  incremental ladder) produces identical :class:`YieldPoint` rows on
  the sequential, thread and process backends;
- **span overhead** — with no telemetry collector bound, the
  instrumentation spans left in the hot path cost < 2% of a trial's
  repair time.

Results are written to ``BENCH_repair.json`` in the working directory.

Runs two ways:

- under pytest with the benchmark harness
  (``pytest benchmarks/bench_repair_ladder.py --benchmark-only -s``);
- standalone (``python benchmarks/bench_repair_ladder.py [--smoke]``)
  for CI smoke runs — ``--smoke`` shrinks the campaign but keeps every
  gate (the speedup is algorithmic, not parallel, so it holds at smoke
  scale on any non-starved runner).
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

# the from-scratch ladder is a test oracle
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tests", "oracles"))

from repair_oracle import repair_from_scratch  # noqa: E402
from repro.arch.compiled import flat_rrg_for  # noqa: E402
from repro.arch.params import ArchParams  # noqa: E402
from repro.reliability import YieldRunner  # noqa: E402
from repro.reliability.defect_map import DefectMap  # noqa: E402
from repro.reliability.repair import build_golden, repair_mapping  # noqa: E402
from repro.utils.telemetry import Telemetry, collecting, span  # noqa: E402
from repro.utils.tables import TextTable  # noqa: E402
from repro.workloads.generators import random_dag  # noqa: E402

SEED = 0
EFFORT = 0.3
MAX_ITERS = 25

#: Incremental-vs-from-scratch speedup floor, gated on runners with
#: enough cores that wall-clock ratios are trustworthy.
FLOOR_SPEEDUP = 2.0
MULTICORE_AT = 4

#: Disabled-span overhead ceiling (fraction of per-trial time).
PROFILE_OVERHEAD_CEILING = 0.02

#: The acceptance campaign: 120 wire-only dies (40 per rate) on a 7x7
#: fabric; every defective die repairs on the ROUTE_AROUND rung.
FULL_BASE = ArchParams(cols=7, rows=7, channel_width=8, io_capacity=6)
FULL_RATES = [0.02, 0.05, 0.08]
FULL_TRIALS = 40
FULL_GATES = 32

#: CI smoke: 24 dies (12 per rate), same fabric.
SMOKE_RATES = [0.05, 0.08]
SMOKE_TRIALS = 12


def _speedup_floor() -> float | None:
    return FLOOR_SPEEDUP if (os.cpu_count() or 1) >= MULTICORE_AT else None


def _mapping():
    c = flat_rrg_for(FULL_BASE)
    netlist = random_dag(n_gates=FULL_GATES, seed=5)
    from repro.place.placer import place

    placement = place(netlist, FULL_BASE, seed=SEED, effort=EFFORT)
    golden = build_golden(c, netlist, placement, max_iterations=MAX_ITERS)
    assert golden is not None, "acceptance fabric must route defect-free"
    return c, netlist, golden


def _wire_only_maps(c, rate: float, trials: int) -> list[DefectMap]:
    return [
        DefectMap.sample(c, rate, seed=s, switch_rate=0.0, logic_rate=0.0)
        for s in range(trials)
    ]


def _run_ladder(c, netlist, golden, maps, incremental: bool):
    repair = repair_mapping if incremental else repair_from_scratch
    t0 = time.perf_counter()
    levels = [
        repair(c, netlist, golden, dm, max_iterations=MAX_ITERS).level.name
        for dm in maps
    ]
    return time.perf_counter() - t0, levels


def _measure_speedup(rates, trials) -> dict:
    c, netlist, golden = _mapping()
    per_rate = []
    t_inc_total = t_full_total = 0.0
    for rate in rates:
        maps = _wire_only_maps(c, rate, trials)
        # warm both paths' lazy caches off the clock (flat views, delay
        # tables, scratch buffers), then measure
        repair_mapping(c, netlist, golden, maps[0])
        repair_from_scratch(c, netlist, golden, maps[0])
        t_inc, lv_inc = _run_ladder(c, netlist, golden, maps, True)
        t_full, lv_full = _run_ladder(c, netlist, golden, maps, False)
        assert lv_inc == lv_full, (
            f"rate {rate}: incremental repair changed verdicts:\n"
            f"{lv_inc}\nvs\n{lv_full}"
        )
        counts = Counter(lv_inc)
        # the campaign must actually be reroute-rung-heavy, or the
        # measurement says nothing about delta-rerouting
        assert counts.get("REPLACE", 0) == 0, counts
        assert counts.get("FAIL", 0) == 0, counts
        per_rate.append({
            "rate": rate,
            "levels": dict(counts),
            "t_incremental": t_inc,
            "t_scratch": t_full,
            "speedup": t_full / t_inc,
        })
        t_inc_total += t_inc
        t_full_total += t_full
    return {
        "grid": f"{FULL_BASE.cols}x{FULL_BASE.rows}",
        "trials": len(rates) * trials,
        "per_rate": per_rate,
        "t_incremental": t_inc_total,
        "t_scratch": t_full_total,
        "speedup": t_full_total / t_inc_total,
    }


def _campaign_rows(backend: str, rates, trials) -> list[dict]:
    netlist = random_dag(n_gates=20, seed=7)
    base = ArchParams(cols=6, rows=6, channel_width=8, io_capacity=6)
    workers = 2 if backend != "sequential" else None
    points = YieldRunner(backend=backend, workers=workers).iter_campaign(
        netlist, "dag", base, rates, trials, seed=1, effort=0.2,
    )
    return [pt.to_dict() for pt in points]


def _check_row_identity(rates, trials) -> int:
    """YieldPoint rows must be bit-identical across every execution
    plan — the incremental ladder is deterministic per input."""
    reference = _campaign_rows("sequential", rates, trials)
    for backend in ("thread", "process"):
        rows = _campaign_rows(backend, rates, trials)
        assert rows == reference, (
            f"{backend} backend diverged from sequential rows"
        )
    return len(reference)


def _measure_profile_overhead(n: int = 200_000) -> dict:
    """Cost of the unbound ``span()`` no-op vs a repair trial.

    With no telemetry collector bound (the default), every span left in
    the hot path short-circuits; the ceiling asserts that all of a trial's
    spans together stay under 2% of the trial's repair time.
    """
    t0 = time.perf_counter()
    for _ in range(n):
        with span("bench.noop"):
            pass
    per_span = (time.perf_counter() - t0) / n

    c, netlist, golden = _mapping()
    dm = _wire_only_maps(c, 0.05, 1)[0]
    repair_mapping(c, netlist, golden, dm)  # warm caches
    tel = Telemetry("bench")
    with collecting(tel):
        t0 = time.perf_counter()
        repair_mapping(c, netlist, golden, dm)
        t_trial = time.perf_counter() - t0
    spans_per_trial = len(tel.spans)
    overhead = per_span * spans_per_trial / t_trial
    return {
        "span_ns": per_span * 1e9,
        "spans_per_trial": spans_per_trial,
        "trial_s": t_trial,
        "disabled_overhead": overhead,
    }


def _measure(rates, trials) -> dict:
    result = _measure_speedup(rates, trials)
    result["identity_points"] = _check_row_identity([0.0, 0.05], 4)
    result["profile"] = _measure_profile_overhead()
    return result


def _render(r: dict) -> str:
    t = TextTable(
        ["rate", "levels", "incremental (s)", "from-scratch (s)", "speedup"],
        title=f"Repair-ladder delta-reroute ({r['grid']}, "
              f"{r['trials']} wire-only dies)",
    )
    for row in r["per_rate"]:
        t.add_row([
            f"{row['rate']:.2f}",
            ",".join(f"{k}:{v}" for k, v in sorted(row["levels"].items())),
            f"{row['t_incremental']:.2f}", f"{row['t_scratch']:.2f}",
            f"{row['speedup']:.2f}x",
        ])
    t.add_row([
        "total", "", f"{r['t_incremental']:.2f}", f"{r['t_scratch']:.2f}",
        f"{r['speedup']:.2f}x",
    ])
    lines = [t.render()]
    p = r["profile"]
    lines.append(
        f"disabled-span overhead: {p['spans_per_trial']} spans/trial "
        f"x {p['span_ns']:.0f}ns = "
        f"{p['disabled_overhead']:.2%} of a {p['trial_s'] * 1e3:.1f}ms trial"
    )
    lines.append(
        f"row identity: {r['identity_points']} yield points bit-identical "
        f"across sequential/thread/process"
    )
    return "\n".join(lines)


def _gate(r: dict) -> list[str]:
    failures = []
    floor = _speedup_floor()
    if floor is not None and r["speedup"] < floor:
        failures.append(
            f"incremental repair speedup {r['speedup']:.2f}x below the "
            f"{floor:.1f}x floor"
        )
    if r["profile"]["disabled_overhead"] >= PROFILE_OVERHEAD_CEILING:
        failures.append(
            f"disabled-span overhead "
            f"{r['profile']['disabled_overhead']:.2%} >= "
            f"{PROFILE_OVERHEAD_CEILING:.0%} ceiling"
        )
    return failures


class TestRepairLadder:
    def test_full_campaign_incremental_speedup(self, benchmark):
        row = benchmark.pedantic(
            lambda: _measure(FULL_RATES, FULL_TRIALS),
            rounds=1, iterations=1,
        )
        print("\n" + _render(row))
        assert row["trials"] == len(FULL_RATES) * FULL_TRIALS
        assert not _gate(row), _render(row)

    def test_smoke_campaign_consistent(self, benchmark):
        row = benchmark.pedantic(
            lambda: _measure(SMOKE_RATES, SMOKE_TRIALS),
            rounds=1, iterations=1,
        )
        print("\n" + _render(row))
        assert row["trials"] == len(SMOKE_RATES) * SMOKE_TRIALS


def main(argv: list[str]) -> int:
    from benchlib import write_bench

    smoke = "--smoke" in argv
    if smoke:
        row = _measure(SMOKE_RATES, SMOKE_TRIALS)
    else:
        row = _measure(FULL_RATES, FULL_TRIALS)
    print(_render(row))
    failures = _gate(row)
    write_bench(
        "repair", speedup=row["speedup"],
        wall_s=row["t_incremental"] + row["t_scratch"],
        gate=not failures, detail=row,
    )
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
