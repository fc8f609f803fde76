"""The mapping-stack benchmark: one command, four workloads.

    python3 perfbench/run.py --workload {map8,sweep,yield,jobs}
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  A run makes a fixed number of
untraced *passes*: S over the workload's nominal pass time, at least
two.  The count depends on S alone, never on how fast the program
runs, so every commit takes its median over the same number of
samples.  A pass is one fresh interpreter (``worker.py``) that sends
the workload's fixed op pool once, so every pass of a run does
identical work and its quality numbers must come out identical.  Pass
j sends the pool in the order seed ``N * 1000 + j`` gives, so the
costs that land on whichever op runs at a moment (a garbage
collection, a cold cache) move between ops.  Every pass runs on one
CPU, and a fixed host-speed probe runs between its ops; each time is
scaled by the probe around it to the reference host speed
(``PROBE_REF_MS``).  End-to-end metrics come from the untraced passes.
``--trace 1`` adds three traced passes, interleaved with the first
three untraced ones: they give the per-layer metrics and work
counters, they must reproduce every counter and quality number
exactly, and the untraced passes beside them give the tracing
overhead.  Metric names and units are the ones
``BENCHMARK.json`` lists.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print every metric by name with its unit.  The exit code is 1 when a
correctness check failed and 2 when the program cannot run here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Nominal seconds of one untraced pass, set-up included (2-core x86
#: machine).  A run of S seconds makes round(S / this) passes.
PASS_S = {"map8": 2.3, "sweep": 2.0, "yield": 2.5, "jobs": 2.2}
WORKLOADS = tuple(PASS_S)

#: Traced passes of a ``--trace 1`` run.
TRACED_PASSES = 3

#: Milliseconds of ``worker.probe_ms`` on the reference host: every
#: time metric is scaled to a host on which the probe takes this long.
PROBE_REF_MS = 5.0

#: Exact quality numbers printed beside ``wirelength`` (name -> unit).
QUALITY = {
    "map8": {"change_rate": "fraction"},
    "sweep": {"critical_path": "SE-hops", "routed_frac": "fraction"},
    "yield": {"yield_frac": "fraction", "repair_wl_overhead": "ratio"},
    "jobs": {},
}

#: Fields of a traced pass that must repeat exactly for one seed.
EXACT_FIELDS = ("counters", "fn_calls", "rungs", "builds", "build_nodes",
                "cache_hits", "cache_misses", "service_rejected")


def run_pass(root: Path, workload: str, seed: int, mode: str) -> dict:
    """One fresh-interpreter pass, sending the ops in the order ``seed``
    gives; its JSON report."""
    spawned = time.time()
    # its own process group, so a hung pass is stopped together with
    # the server a jobs pass starts
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode,
         repr(spawned)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(
            f"{mode} pass of {workload} exited {proc.returncode}:\n"
            f"{stderr.strip()[-2000:]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def typical(passes: list) -> "tuple[list, float]":
    """``(op latencies in ms, ops per second)`` at the reference host
    speed.

    Every pass sends the same requests, so the op a timing is keyed by
    (a request, or a streamed row) is one fixed input measured once per
    pass.  Other tenants of the machine slow whole stretches of a run,
    CPU time included, so each timing is scaled by the host-speed probe
    taken around it (``PROBE_REF_MS`` over the probe's time).  Each op's
    median over the passes is then the program's own time; the closed
    loop's throughput is the ops over the sum of those latencies.
    """
    scaled: dict = {}
    for p in passes:
        for key, _, ms, probe in p["timings"]:
            scaled.setdefault(key, []).append(ms * PROBE_REF_MS / probe)
    latencies = [statistics.median(v) for v in scaled.values()]
    ops = sum(n for _, n, _, _ in passes[0]["timings"])
    return latencies, ops / (sum(latencies) / 1e3)


def host_speed(p: dict) -> float:
    """The pass's median probe against the reference: above 1 is a
    faster host than the reference, below 1 a slower one."""
    return PROBE_REF_MS / statistics.median(p["probes"])


def end_to_end(plain: list) -> dict:
    latencies, ops_per_s = typical(plain)
    return {
        "setup_s": statistics.median(p["setup_s"] * host_speed(p)
                                     for p in plain),
        "ops_per_s": ops_per_s,
        "p50_ms": statistics.median(latencies),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "wirelength": plain[0]["quality"]["wirelength"],
    }


def layer_metrics(p: dict, overhead: float, import_frac: float) -> dict:
    """Per-layer metrics of one traced pass."""
    t = p["trace"]
    wall = t["wall_s"]
    layers = t["layers_s"]
    counters = t["counters"]
    calls = t["fn_calls"]

    def secs(layer: str) -> float:
        return layers.get(layer, 0.0)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    proposed = counters.get("placer.moves_proposed", 0)
    accepted = counters.get("placer.moves_accepted", 0)
    pops = counters.get("router.pops", 0)
    salvaged = counters.get("router.warm.salvaged_sinks", 0)
    researched = counters.get("router.warm.researched_sinks", 0)
    q = p["quality"]
    m = {
        "startup.import_frac": import_frac,
        "arch.builds": t["builds"],
        "arch.build_nodes_per_s": rate(t["build_nodes"], secs("arch.build")),
        "place.calls": calls.get("place", 0),
        "place.moves_proposed": proposed,
        "place.moves_accepted": accepted,
        "place.accept_ratio": ratio(accepted, proposed),
        "place.moves_per_s": rate(proposed, secs("place.anneal")),
        "route.contexts": counters.get("router.contexts_routed", 0),
        "route.pops": pops,
        "route.pops_per_s": rate(pops, secs("route.search")),
        "route.ripup_iterations": counters.get("router.ripup_iterations", 0),
        "route.ripped_nets": counters.get("router.ripped_nets", 0),
        "route.repriced_nodes": counters.get("router.repriced_nodes", 0),
        "route.warm.adopted_nets": counters.get("router.warm.adopted_nets",
                                                0),
        "route.warm.salvaged_sinks": salvaged,
        "route.warm.researched_sinks": researched,
        "route.warm.salvage_ratio": ratio(salvaged, salvaged + researched),
        "route.timing_calls": calls.get("critical_path", 0),
        "api.self_frac": secs("api") / wall,
        "api.cache_hits": t["cache_hits"],
        "api.cache_misses": t["cache_misses"],
        "service.overhead_frac": t.get("service_overhead_s", 0.0) / wall,
        "service.queue_wait_frac": t.get("service_queue_wait_s", 0.0) / wall,
        "service.persist_frac": secs("service.persist") / wall,
        "service.rejected": t.get("service_rejected", 0),
        "trace.overhead_frac": overhead,
        "trace.unattributed_frac": t["unattributed_s"]
        / t["unattributed_of_s"],
    }
    for layer in ("arch.build", "netlist.program", "netlist.sharing",
                  "netlist.import", "place.anneal", "route.search",
                  "route.timing", "analysis.verify", "analysis.stats",
                  "reliability.sample", "reliability.golden",
                  "reliability.repair", "api.serialize"):
        m[f"{layer}_frac"] = secs(layer) / wall
    for rung in ("none", "route_around", "reroute", "replace", "fail"):
        m[f"reliability.rung.{rung}"] = t["rungs"].get(rung, 0)
    for rung in ("route_around", "reroute", "replace"):
        m[f"reliability.{rung}_frac"] = t["rung_s"].get(rung, 0.0) / wall
    for name in ("change_rate", "critical_path", "routed_frac", "yield_frac",
                 "repair_wl_overhead"):
        m[f"qor.{name}"] = q.get(name, 0)
    return m


def per_layer(traced: list, plain: list) -> dict:
    # against the untraced passes interleaved with the traced ones, so
    # both sides take their median of the same number of samples
    overhead = 1.0 - typical(traced)[1] / typical(plain[:len(traced)])[1]
    # untraced set-up: the tracer's own installation stays out of it
    import_frac = statistics.median(p["import_s"] / p["setup_s"]
                                    for p in plain)
    rows = [layer_metrics(p, overhead, import_frac) for p in traced]
    return {name: statistics.median(r[name] for r in rows)
            for name in rows[0]}


def check_exact(passes: list, traced: list) -> list:
    """What differs between passes of one seed that must be identical:
    every pass's quality numbers, and the traced passes' counters."""
    first = passes[0]["quality"]
    problems = [f"pass {i} quality {p['quality']} != {first}"
                for i, p in enumerate(passes[1:], start=2)
                if p["quality"] != first]
    for i, p in enumerate(traced[1:], start=2):
        problems += [f"traced pass {i} {field} differs"
                     for field in EXACT_FIELDS
                     if p["trace"].get(field) != traced[0]["trace"].get(field)]
    return problems


def print_layer_table(p: dict) -> None:
    t = p["trace"]
    print(f"  layer self times of one traced pass (wall {t['wall_s']:.4f} s;"
          f" unattributed {t['unattributed_s']:.4f} s):")
    for layer, seconds in sorted(t["layers_s"].items(),
                                 key=lambda kv: -kv[1]):
        print(f"    {layer:<22} {seconds:9.4f} s  "
              f"{seconds / t['wall_s']:6.1%}")
    if "service_overhead_s" in t:
        print(f"    {'service.overhead':<22} "
              f"{t['service_overhead_s']:9.4f} s  (client latency minus "
              f"in-job Session time)")
    print("  work counters (exact):")
    for name, value in sorted(t["counters"].items()):
        print(f"    {name:<32} {value}")
    if t["rungs"]:
        print(f"    rung histogram                   {t['rungs']}")
    print(f"    arch.builds                      {t['builds']}")


def report(values: dict, specs: list) -> dict:
    """Print and return the metrics a ``BENCHMARK.json`` list names,
    in its order and with its units."""
    metrics = {}
    for spec in specs:
        value = values[spec["name"]]
        print(f"  {spec['name']:<32} {value:.6g} {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    needed = [root / "BENCHMARK.json", root / "src" / "repro" / "__init__.py"]
    if args.workload == "jobs":
        needed.append(root / "regression_tests")
    missing = [str(p) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: run from a checkout root; missing {missing}",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    schedule = ["plain"] * max(2, round(args.seconds
                                        / PASS_S[args.workload]))
    if args.trace:
        for i in range(TRACED_PASSES):
            schedule.insert(2 * i + 1, "traced")
    passes: dict = {mode: [] for mode in sorted(set(schedule))}
    # every pass on one CPU: the probes then measure the CPU the ops run
    # on, and a jobs pass's client and server share it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = time.perf_counter()
    try:
        for mode in schedule:
            # traced pass j sends the order of untraced pass j
            order = args.seed * 1000 + len(passes[mode])
            passes[mode].append(run_pass(root, args.workload, order, mode))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(root / ".perfbench_tmp", ignore_errors=True)

    everything = [p for ps in passes.values() for p in ps]
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    problems = [e for p in everything for e in p["errors"]][:5]
    problems += check_exact(everything, passes.get("traced", []))

    plain = passes["plain"]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"passes={ {m: len(v) for m, v in passes.items()} } "
          f"ops/pass={plain[0]['attempted']} "
          f"wall={time.perf_counter() - start:.1f}s")
    print(f"  attempted={attempted} failed={failed}")
    metrics = report(end_to_end(plain), spec["end_to_end"])
    for name, unit in QUALITY[args.workload].items():
        print(f"  {name:<20} {plain[0]['quality'][name]:.6g} {unit} "
              f"(exact)")
    speeds = [host_speed(p) for p in plain]
    print(f"  host speed (reference = 1): median "
          f"{statistics.median(speeds):.3f}, passes {min(speeds):.3f}-"
          f"{max(speeds):.3f}")
    # every timing of every pass, so the tail is in it
    latencies = sorted(ms * PROBE_REF_MS / probe
                       for p in plain for _, _, ms, probe in p["timings"])
    if len(latencies) >= 100:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        print(f"  {'p90_ms':<20} {p90:.6g} ms (all {len(latencies)} "
              f"timings of all passes)")
    else:
        print(f"  p90_ms: n/a ({len(latencies)} timings; needs >= 10 "
              f"beyond it)")
    if args.trace:
        print_layer_table(passes["traced"][0])
        metrics = report(per_layer(passes["traced"], plain),
                         spec["per_layer"])
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
