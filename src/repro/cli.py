"""Command-line interface: a thin shell over :mod:`repro.api`.

Exposes the library's main flows without writing Python::

    python -m repro patterns                 # Figs. 3-5 classification
    python -m repro decoder 1000 0110       # synthesize & verify decoders
    python -m repro area --change-rate 0.05 # Section-5 evaluation
    python -m repro map --workload adder    # full flow on a workload
    python -m repro batch --workloads adder,crc --workers 2  # engine batch
    python -m repro reorder --workload adder  # context-ID optimization
    python -m repro sweep --what change-rate  # sensitivity curves
    python -m repro sweep --what channel-width --workload crc \
        --backend process                     # routing design-space sweep
    python -m repro yield --defect-rate 0.01,0.03 --trials 16 \
        --backend process                     # Monte Carlo yield campaign
    python -m repro import top.blif --grid 6 --json  # map your netlist
    python -m repro corpus --backend all --jobs       # regression corpus
    python -m repro run examples/specs/ci_smoke.json --json  # run a spec
    python -m repro trace examples/specs/ci_smoke.json -o trace.json
    python -m repro serve --port 8321 --results-dir results  # HTTP service
    python -m repro worker --url http://127.0.0.1:8321       # fleet worker
    python -m repro artifacts gc --results-dir results --keep 20
    python -m repro jobs submit examples/specs/ci_smoke.json --watch
    python -m repro jobs list --state running --limit 10

Every subcommand follows the same shape: parse arguments, build a
typed request (:mod:`repro.api.requests`), execute it on a
:class:`~repro.api.Session`, print the typed result — as a rendered
table, or as the result's versioned JSON with ``--json``.  ``run``
executes a declarative :class:`~repro.api.ExperimentSpec` file; with
``--stream`` it emits one JSON line per streamed row (per sweep point,
per yield cell, per mapped workload) instead of one final blob, so
long campaigns report as they go.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from repro.api.workloads import WORKLOADS

_WORKLOADS = list(WORKLOADS)


def _telemetry_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--telemetry", action="store_true",
                   help="collect counters and trace spans from every "
                        "worker; attaches a `metrics` block to the "
                        "result (visible in --json output)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Architecture of a Multi-Context FPGA Using "
            "Reconfigurable Context Memory' (IPDPS 2005)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("patterns", help="Figs. 3-5: pattern classification")
    p.add_argument("--contexts", type=int, default=4)

    p = sub.add_parser("decoder", help="Fig. 9: synthesize pattern decoders")
    p.add_argument("patterns", nargs="+",
                   help="patterns in paper (C{n-1}..C0) bit order, e.g. 1000")

    p = sub.add_parser("area", help="Section 5: area evaluation")
    p.add_argument("--change-rate", type=float, default=0.05)
    p.add_argument("--contexts", type=int, default=4)
    p.add_argument("--sharing", type=float, default=2.0)
    p.add_argument("--constants", choices=["paper", "textbook"], default="paper")
    p.add_argument("--json", action="store_true",
                   help="emit results as JSON instead of tables")

    p = sub.add_parser("map", help="full flow: map a workload, print stats")
    p.add_argument("--workload", default="adder", choices=_WORKLOADS)
    p.add_argument("--contexts", type=int, default=4)
    p.add_argument("--mutation", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--naive", action="store_true",
                   help="disable redundancy-aware mapping")
    _telemetry_flag(p)
    p.add_argument("--json", action="store_true",
                   help="emit results as JSON instead of tables")

    p = sub.add_parser(
        "batch", help="map several workloads through the shared engine"
    )
    p.add_argument("--workloads", default="adder,crc",
                   help=f"comma-separated subset of {','.join(_WORKLOADS)}")
    p.add_argument("--contexts", type=int, default=4)
    p.add_argument("--mutation", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workers", type=int, default=1,
                   help="mapping jobs run concurrently (1 = sequential)")
    p.add_argument("--backend", choices=["thread", "process"],
                   default="thread",
                   help="pool flavour for concurrent mapping jobs")
    p.add_argument("--naive", action="store_true",
                   help="disable redundancy-aware mapping")
    _telemetry_flag(p)
    p.add_argument("--json", action="store_true",
                   help="emit results as JSON instead of tables")

    p = sub.add_parser("reorder", help="optimize the context-ID assignment")
    p.add_argument("--workload", default="adder", choices=_WORKLOADS)
    p.add_argument("--contexts", type=int, default=4)
    p.add_argument("--mutation", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=7)
    _telemetry_flag(p)
    p.add_argument("--json", action="store_true",
                   help="emit the result as JSON instead of a summary")

    p = sub.add_parser("sweep", help="design-space and sensitivity sweeps")
    p.add_argument("--what",
                   choices=["change-rate", "contexts", "channel-width",
                            "double-fraction", "fc"],
                   default="change-rate")
    p.add_argument("--workload", default="adder", choices=_WORKLOADS,
                   help="circuit for routing sweeps (ignored by the "
                        "analytic change-rate/contexts sweeps)")
    p.add_argument("--grid", type=int, default=6,
                   help="fabric side length for routing sweeps")
    p.add_argument("--values", default=None,
                   help="comma-separated sweep values (defaults per axis)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--effort", type=float, default=0.3,
                   help="placement effort for routing sweeps")
    p.add_argument("--backend",
                   choices=["sequential", "thread", "process"],
                   default="sequential",
                   help="how routing sweep points are executed")
    p.add_argument("--workers", type=int, default=None,
                   help="pool size for thread/process backends "
                        "(default: all cores)")
    p.add_argument("--profile", action="store_true",
                   help="attach per-phase wall-clock timings to each "
                        "point (visible in --json output)")
    _telemetry_flag(p)
    p.add_argument("--json", action="store_true",
                   help="emit results as JSON instead of tables")

    p = sub.add_parser(
        "yield",
        help="Monte Carlo manufacturing-yield campaign over fabric defects",
    )
    p.add_argument("--workload", default="adder", choices=_WORKLOADS)
    p.add_argument("--grid", type=int, default=6,
                   help="fabric side length")
    p.add_argument("--width", type=int, default=8,
                   help="base channel width")
    p.add_argument("--defect-rate", default="0.0,0.01,0.03",
                   help="comma-separated per-resource defect rates")
    p.add_argument("--trials", type=int, default=8,
                   help="Monte Carlo dies sampled per campaign point")
    p.add_argument("--model", choices=["uniform", "clustered"],
                   default="uniform",
                   help="spatial defect model")
    p.add_argument("--spare", default=None,
                   help="comma-separated spare channel widths: sweeps "
                        "yield vs spares at the first defect rate "
                        "instead of sweeping rates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--effort", type=float, default=0.3,
                   help="placement effort (golden mapping and re-place "
                        "repair)")
    p.add_argument("--backend",
                   choices=["sequential", "thread", "process"],
                   default="sequential",
                   help="how Monte Carlo trials are executed")
    p.add_argument("--workers", type=int, default=None,
                   help="pool size for thread/process backends "
                        "(default: all cores)")
    p.add_argument("--profile", action="store_true",
                   help="attach per-phase wall-clock timings to each "
                        "campaign point (visible in --json output)")
    _telemetry_flag(p)
    p.add_argument("--json", action="store_true",
                   help="emit results as JSON instead of tables")

    p = sub.add_parser(
        "import",
        help="import BLIF / structural-Verilog netlists and map them "
             "as one multi-context program",
    )
    p.add_argument("files", nargs="+",
                   help="netlist source files, one per context "
                        "('-' reads a single source from stdin)")
    p.add_argument("--format", choices=["auto", "blif", "verilog"],
                   default="auto",
                   help="source format (auto: by file extension "
                        ".blif/.v/.sv; explicit format required for "
                        "stdin)")
    p.add_argument("--name", default=None,
                   help="program name (default: first netlist's name)")
    p.add_argument("--k", type=int, default=4,
                   help="LUT input width for tech mapping")
    p.add_argument("--grid", type=int, default=None,
                   help="pin the fabric side length (default: auto-fit "
                        "to the program)")
    p.add_argument("--width", type=int, default=None,
                   help="channel width (requires --grid)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--effort", type=float, default=None,
                   help="placement effort (default: the mapping flow's)")
    p.add_argument("--naive", action="store_true",
                   help="disable redundancy-aware mapping")
    p.add_argument("--no-verify", action="store_true",
                   help="skip functional verification of the mapped "
                        "program")
    _telemetry_flag(p)
    p.add_argument("--json", action="store_true",
                   help="emit the result as JSON instead of a summary")

    p = sub.add_parser(
        "corpus",
        help="run the pinned netlist regression corpus and diff every "
             "result against its golden JSON",
    )
    p.add_argument("--root", default="regression_tests",
                   help="corpus directory tree (default: "
                        "regression_tests)")
    p.add_argument("--backend",
                   choices=["sequential", "thread", "process", "all"],
                   default="sequential",
                   help="backend(s) every case must reproduce its "
                        "golden on ('all' runs all three)")
    p.add_argument("--jobs", action="store_true",
                   help="also submit each case's serialized request "
                        "through the job manager (the `repro serve` "
                        "submission path)")
    p.add_argument("--update", action="store_true",
                   help="rewrite goldens from this run (deliberate "
                        "changes only)")
    p.add_argument("--json", action="store_true",
                   help="emit the corpus report as JSON")

    p = sub.add_parser(
        "run", help="execute a declarative ExperimentSpec JSON file"
    )
    p.add_argument("spec", help="path to the spec file (see repro.api.spec)")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--stream", action="store_true",
                   help="emit one JSON line per streamed row instead of "
                        "one final result blob")
    g.add_argument("--json", action="store_true",
                   help="emit the spec result as JSON instead of a summary")
    p.add_argument("--results-dir", default=None,
                   help="persist every completed stage as JSON artifacts "
                        "under this directory")
    p.add_argument("--resume", action="store_true",
                   help="skip stages whose artifacts in --results-dir are "
                        "up to date (requires --results-dir)")

    p = sub.add_parser(
        "trace",
        help="run a spec with telemetry forced on and write the merged "
             "worker spans as Chrome trace-event JSON (Perfetto-viewable)",
    )
    p.add_argument("spec", help="path to the spec file (see repro.api.spec)")
    p.add_argument("-o", "--output", default="trace.json",
                   help="trace-event JSON output path (default: trace.json)")

    p = sub.add_parser(
        "serve",
        help="serve the job API over HTTP (submit/poll/cancel/artifacts)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8321,
                   help="TCP port (0 picks a free one)")
    p.add_argument("--results-dir", default=None,
                   help="artifact store directory (enables resume and "
                        "GET /v1/artifacts)")
    p.add_argument("--workers", type=int, default=2,
                   help="how many jobs run concurrently")
    p.add_argument("--executor", choices=["thread", "process", "external"],
                   default="thread",
                   help="how locally-dispatched jobs run (external = "
                        "remote `repro worker` pulls only)")
    p.add_argument("--auth", default=None, metavar="TOKENS_JSON",
                   help="bearer-token config file; gates submit/cancel "
                        "and worker endpoints")
    p.add_argument("--max-queue", type=int, default=1024,
                   help="pending-job cap before submissions get 429")
    p.add_argument("--lease-ttl", type=float, default=30.0,
                   help="seconds a worker lease survives without events")
    p.add_argument("--max-retries", type=int, default=3,
                   help="lease-expiry requeues before a job fails")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   help="seconds SIGTERM waits for running jobs")

    p = sub.add_parser(
        "worker",
        help="pull and run jobs from a coordinator (`repro serve`)",
    )
    p.add_argument("--url", default="http://127.0.0.1:8321",
                   help="coordinator base URL")
    p.add_argument("--token", default=None,
                   help="bearer token (when the coordinator runs --auth)")
    p.add_argument("--name", default=None,
                   help="worker name reported with each lease")
    p.add_argument("--poll", type=float, default=1.0,
                   help="seconds each idle lease long-poll waits")
    p.add_argument("--max-jobs", type=int, default=None,
                   help="exit after this many completed jobs")

    p = sub.add_parser(
        "artifacts",
        help="inspect or garbage-collect a results directory",
    )
    p.add_argument("action", choices=["list", "gc"])
    p.add_argument("--results-dir", required=True,
                   help="the artifact store to operate on")
    p.add_argument("--max-age-days", type=float, default=None,
                   help="gc: drop runs whose newest file is older")
    p.add_argument("--keep", type=int, default=None,
                   help="gc: keep at most this many newest runs")
    p.add_argument("--dry-run", action="store_true",
                   help="gc: report what would be removed, remove nothing")
    p.add_argument("--json", action="store_true",
                   help="emit JSON instead of a table")

    p = sub.add_parser(
        "jobs", help="talk to a running `repro serve` instance"
    )
    p.add_argument("action",
                   choices=["submit", "status", "events", "cancel",
                            "list", "result"])
    p.add_argument("target", nargs="?", default=None,
                   help="spec file (submit) or job id "
                        "(status/events/cancel/result)")
    p.add_argument("--url", default="http://127.0.0.1:8321",
                   help="base URL of the service")
    p.add_argument("--token", default=None,
                   help="bearer token (when the server runs --auth)")
    p.add_argument("--resume", action="store_true",
                   help="submit with resume (skip stages already in the "
                        "server's artifact store)")
    p.add_argument("--priority", type=int, default=0,
                   help="submit: scheduling priority (higher runs first)")
    p.add_argument("--watch", action="store_true",
                   help="after submit, follow the job's event stream")
    p.add_argument("--state", default=None,
                   choices=["queued", "running", "done", "failed",
                            "cancelled"],
                   help="list: only jobs in this state")
    p.add_argument("--limit", type=int, default=None,
                   help="list: only the newest N jobs")
    return parser


def _session():
    from repro.api import Session

    return Session()


def cmd_patterns(args: argparse.Namespace) -> int:
    from repro.analysis.pattern_stats import context_id_table, pattern_class_table

    print(context_id_table(args.contexts))
    print()
    print(pattern_class_table(args.contexts))
    return 0


def cmd_decoder(args: argparse.Namespace) -> int:
    from repro.core.decoder_synth import synthesize_single
    from repro.core.patterns import ContextPattern

    for bits in args.patterns:
        if any(b not in "01" for b in bits):
            print(f"error: pattern {bits!r} must be binary", file=sys.stderr)
            return 2
        pattern = ContextPattern.from_paper_row(tuple(int(b) for b in bits))
        block, net, n_ses = synthesize_single(pattern)
        swept = block.read_pattern(net)
        print(f"{bits}: class={pattern.classify()} SEs={n_ses} "
              f"per-context values={swept}")
    return 0


def cmd_area(args: argparse.Namespace) -> int:
    from repro.analysis.report import area_comparison_table, breakdown_table
    from repro.api import AreaRequest

    request = AreaRequest(
        change_rate=args.change_rate, contexts=args.contexts,
        sharing=args.sharing, constants=args.constants,
    )
    result = _session().run(request)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(area_comparison_table(result.comparisons))
    print()
    print(breakdown_table(result.comparisons["cmos"], "Breakdown (CMOS)"))
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    from repro.analysis.redundancy import redundancy_report
    from repro.api import ExecutionConfig, MapRequest

    request = MapRequest(
        workload=args.workload, contexts=args.contexts,
        mutation=args.mutation, share_aware=not args.naive,
        execution=ExecutionConfig(seed=args.seed, telemetry=args.telemetry),
    )
    result = _session().run(request)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(f"workload {args.workload}: "
          f"{list(result.luts_per_context)} LUTs per context, "
          f"grid {result.grid[0]}x{result.grid[1]}, "
          f"verified={result.verified}")
    print()
    print(redundancy_report(result.stats).render())
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.api import BatchRequest, ExecutionConfig

    names = tuple(w.strip() for w in args.workloads.split(",") if w.strip())
    request = BatchRequest(
        workloads=names, contexts=args.contexts, mutation=args.mutation,
        share_aware=not args.naive,
        execution=ExecutionConfig(
            backend=args.backend, workers=args.workers, seed=args.seed,
            telemetry=args.telemetry,
        ),
    )
    result = _session().run(request)
    if args.json:
        print(json.dumps([r.to_dict() for r in result.results], indent=2))
        return 0
    for r in result.results:
        print(f"{r.workload}: grid {r.grid[0]}x{r.grid[1]} "
              f"verified={r.verified} "
              f"reuse={r.reuse_fraction:.1%} "
              f"change-rate={r.switch_change_rate:.1%}")
    return 0


def cmd_reorder(args: argparse.Namespace) -> int:
    from repro.api import ExecutionConfig, ReorderRequest

    request = ReorderRequest(
        workload=args.workload, contexts=args.contexts,
        mutation=args.mutation,
        execution=ExecutionConfig(seed=args.seed, telemetry=args.telemetry),
    )
    result = _session().run(request)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(f"decoder cost before: {result.cost_before} SEs")
    print(f"decoder cost after : {result.cost_after} SEs "
          f"(saving {result.saving:.1%})")
    print(f"physical ID schedule: {list(result.schedule)}")
    return 0


def _sweep_values(args: argparse.Namespace) -> tuple[float, ...] | None:
    if args.values is None:
        return None
    cast = int if args.what in ("contexts", "channel-width") else float
    return tuple(cast(v) for v in args.values.split(",") if v.strip())


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.api import ExecutionConfig, SweepRequest
    from repro.utils.tables import TextTable

    request = SweepRequest(
        what=args.what, workload=args.workload, grid=args.grid,
        values=_sweep_values(args), profile=args.profile,
        execution=ExecutionConfig(
            backend=args.backend, workers=args.workers, seed=args.seed,
            effort=args.effort, telemetry=args.telemetry,
        ),
    )
    if request.analytic and (
        args.backend != "sequential" or args.workers is not None
    ):
        print(f"note: --backend/--workers have no effect on the "
              f"analytic {args.what} sweep (no routing involved)",
              file=sys.stderr)
    if not request.analytic and args.backend == "sequential" \
            and args.workers is not None:
        print("note: --workers has no effect with the sequential backend; "
              "pass --backend thread|process to parallelize",
              file=sys.stderr)
    result = _session().run(request)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    if request.analytic:
        from repro.analysis.report import sweep_table

        label = "change rate" if args.what == "change-rate" else "contexts"
        title = (
            "Area ratio vs change rate" if args.what == "change-rate"
            else "Area ratio vs context count"
        )
        rows = [(pt.value, pt.cmos_ratio, pt.fepg_ratio)
                for pt in result.points]
        print(sweep_table(rows, [label, "CMOS", "FePG"], title))
        return 0
    t = TextTable(
        [args.what, "routed", "wirelength", "critical path", "iterations"],
        title=f"{args.what} sweep: {args.workload} on "
              f"{result.grid[0]}x{result.grid[1]}",
    )
    for pt in result.points:
        t.add_row([
            pt.value, pt.routed, pt.wirelength,
            f"{pt.critical_path:.1f}", pt.iterations,
        ])
    print(t.render())
    return 0


def cmd_yield(args: argparse.Namespace) -> int:
    from repro.api import ExecutionConfig, YieldRequest
    from repro.utils.tables import TextTable

    try:
        rates = tuple(
            float(v) for v in args.defect_rate.split(",") if v.strip()
        )
        spares = (
            tuple(int(v) for v in args.spare.split(",") if v.strip())
            if args.spare is not None else None
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    request = YieldRequest(
        workload=args.workload, grid=args.grid, width=args.width,
        rates=rates, trials=args.trials, model=args.model,
        spares=spares, profile=args.profile,
        execution=ExecutionConfig(
            backend=args.backend, workers=args.workers, seed=args.seed,
            effort=args.effort, telemetry=args.telemetry,
        ),
    )
    result = _session().run(request)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    if request.campaign == "spare-width":
        axis, axis_of = "spare tracks", (lambda pt: pt.spare_tracks)
    else:
        axis, axis_of = "defect rate", (lambda pt: pt.defect_rate)
    t = TextTable(
        [axis, "W", "yield", "none/route/reroute/replace/fail",
         "wl ovh", "cp ovh"],
        title=f"Monte Carlo yield: {args.workload} on "
              f"{result.grid[0]}x{result.grid[1]} ({args.model}, "
              f"{args.trials} trials/point)",
    )
    for pt in result.points:
        h = pt.repair_histogram
        t.add_row([
            axis_of(pt), pt.channel_width, f"{pt.yield_fraction:.1%}",
            "/".join(str(h.get(k, 0)) for k in
                     ("none", "route_around", "reroute", "replace", "fail")),
            f"{pt.mean_wirelength_overhead:.3f}",
            f"{pt.mean_critical_path_overhead:.3f}",
        ])
    print(t.render())
    return 0


def cmd_import(args: argparse.Namespace) -> int:
    import os

    from repro.api import ExecutionConfig, ImportRequest
    from repro.netlist.frontend import EXTENSIONS

    sources = []
    for path in args.files:
        if path == "-":
            if args.format == "auto":
                print("error: stdin needs an explicit --format",
                      file=sys.stderr)
                return 2
            sources.append({"text": sys.stdin.read(),
                            "format": args.format, "name": "<stdin>"})
            continue
        fmt = args.format
        if fmt == "auto":
            fmt = EXTENSIONS.get(os.path.splitext(path)[1].lower())
            if fmt is None:
                print(f"error: cannot infer format of {path!r}; pass "
                      f"--format blif|verilog", file=sys.stderr)
                return 2
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read {path!r}: {exc}", file=sys.stderr)
            return 2
        sources.append({"text": text, "format": fmt, "name": path})
    request = ImportRequest(
        sources=tuple(sources), name=args.name, k=args.k,
        grid=args.grid, width=args.width,
        share_aware=not args.naive, verify=not args.no_verify,
        execution=ExecutionConfig(seed=args.seed, effort=args.effort,
                                  telemetry=args.telemetry),
    )
    result = _session().run(request)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(f"program {result.name!r}: {result.n_contexts} context(s) on "
          f"grid {result.grid[0]}x{result.grid[1]}, "
          f"verified={result.verified}")
    for ctx in result.contexts:
        print(f"  {ctx['name']} ({ctx['format']}): {ctx['luts']} LUTs, "
              f"{ctx['dffs']} DFFs, depth {ctx['depth']}, "
              f"{ctx['inputs']}/{ctx['outputs']} io")
    print(f"wirelength={result.wirelength} "
          f"critical_path={result.critical_path:.2f} "
          f"reuse={result.reuse_fraction:.1%}")
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    from repro.netlist.frontend.corpus import run_corpus

    backends = (
        ("sequential", "thread", "process") if args.backend == "all"
        else (args.backend,)
    )
    report = run_corpus(_session(), args.root, backends=backends,
                        update=args.update, check_jobs=args.jobs)
    if args.json:
        print(json.dumps(report, indent=2))
        return 0 if report["ok"] else 1
    for case in report["cases"]:
        runs = " ".join(
            f"{label}={'ok' if match else 'DIFF'}"
            for label, match in case["runs"].items()
        )
        print(f"{case['case']}: {case['status']} ({runs})")
    verdict = "ok" if report["ok"] else "FAILED"
    print(f"corpus {verdict}: {len(report['cases'])} case(s) on "
          f"{'/'.join(report['backends'])}"
          f"{' + jobs' if report['check_jobs'] else ''}")
    return 0 if report["ok"] else 1


def cmd_run(args: argparse.Namespace) -> int:
    from repro.api import ExperimentSpec

    spec = ExperimentSpec.from_file(args.spec)
    if args.resume and args.results_dir is None:
        print("error: --resume requires --results-dir", file=sys.stderr)
        return 2
    if args.results_dir is not None or spec.is_grid:
        # artifact persistence / grid fan-out ride the job layer (one
        # in-process JobManager; same rows, plus a results dir)
        return _run_managed(args, spec)
    session = _session()
    if args.stream:
        # one JSON line per streamed row: long campaigns report as they
        # go, and concatenating the rows reproduces the blocking result
        for stage, item in session.stream_spec(spec):
            print(json.dumps({"stage": stage, "data": item.to_dict()}),
                  flush=True)
        return 0
    result = session.run_spec(spec)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    _print_spec_summary(spec, result)
    return 0


def _print_spec_summary(spec, result) -> None:
    print(f"spec {result.name!r} (workload {result.workload}): "
          f"{len(result.stages)} stages")
    for stage_doc, stage_result in zip(spec.stages, result.stages):
        tag = stage_doc["stage"]
        summary = _stage_summary(stage_result)
        print(f"  {tag}: {summary}")


def _run_managed(args: argparse.Namespace, spec) -> int:
    from repro.service import ArtifactStore, JobManager

    store = (
        ArtifactStore(args.results_dir) if args.results_dir is not None
        else None
    )
    manager = JobManager(session=_session(), workers=2, store=store)
    try:
        handle = manager.submit(spec, resume=args.resume)
        # job events name stages uniquely; the CLI's row lines keep
        # printing the stage *kind*, exactly like the unmanaged path
        kind_of = dict(zip(spec.stage_names(),
                           (s["stage"] for s in spec.stages)))
        if args.stream:
            for ev in handle.events():
                if ev["event"] == "row":
                    print(json.dumps({
                        "stage": kind_of.get(ev["stage"], ev["stage"]),
                        "data": ev["data"],
                    }), flush=True)
            handle.result()  # surface a failure as its exception
            return 0
        result = handle.result()
        results = list(result) if isinstance(result, tuple) else [result]
        if args.json:
            docs = [r.to_dict() for r in results]
            print(json.dumps(docs[0] if len(docs) == 1 else docs, indent=2))
            return 0
        for r in results:
            _print_spec_summary(spec, r)
        return 0
    finally:
        manager.shutdown(wait=False, cancel=True)


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.api import ExperimentSpec
    from repro.utils.telemetry import chrome_trace

    spec = ExperimentSpec.from_file(args.spec)
    if spec.is_grid:
        print("error: trace runs one spec cell; expand the grid and "
              "trace a single cell", file=sys.stderr)
        return 2
    # force telemetry on at the spec level: stages that don't name
    # `telemetry` in their own execution dict inherit it
    doc = spec.to_dict()
    exec_doc = dict(doc.get("execution") or {})
    exec_doc["telemetry"] = True
    doc["execution"] = exec_doc
    spec = ExperimentSpec.from_dict(doc)
    result = _session().run_spec(spec)
    # a batch stage's blocks ride on its rows; every other stage
    # carries one block of its own
    blocks = [m for m in (getattr(r, "metrics", None)
                          for sr in result.stages
                          for r in getattr(sr, "results", (sr,))) if m]
    trace = chrome_trace(blocks)
    with open(args.output, "w") as fh:
        json.dump(trace, fh)
        fh.write("\n")
    workers = {ev.get("pid") for ev in trace["traceEvents"]}
    print(f"wrote {len(trace['traceEvents'])} events "
          f"({len(workers)} worker track(s)) to {args.output}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import run_server

    return run_server(host=args.host, port=args.port,
                      results_dir=args.results_dir, workers=args.workers,
                      executor=args.executor, auth=args.auth,
                      max_queue=args.max_queue, lease_ttl=args.lease_ttl,
                      max_retries=args.max_retries,
                      drain_timeout=args.drain_timeout)


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.fleet import worker_main

    return worker_main(args.url, token=args.token, name=args.name,
                       poll=args.poll, max_jobs=args.max_jobs)


def cmd_artifacts(args: argparse.Namespace) -> int:
    from repro.fleet import artifact_index, gc_artifacts
    from repro.service import ArtifactStore

    store = ArtifactStore(args.results_dir)
    if args.action == "list":
        entries = artifact_index(store)
        if args.json:
            print(json.dumps({
                "artifacts": [e.to_dict() for e in entries],
                "count": len(entries),
                "bytes": sum(e.bytes for e in entries),
            }, indent=2))
            return 0
        print(f"{'kind':<8} {'files':>5} {'bytes':>10}  relpath")
        for entry in entries:
            print(f"{entry.kind:<8} {entry.files:>5} {entry.bytes:>10}  "
                  f"{entry.relpath}")
        print(f"total: {len(entries)} unit(s), "
              f"{sum(e.bytes for e in entries)} bytes")
        return 0
    report = gc_artifacts(store, max_age_days=args.max_age_days,
                          max_count=args.keep, dry_run=args.dry_run)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    verb = "would remove" if args.dry_run else "removed"
    print(f"scanned {report.scanned} unit(s); {verb} {report.deleted} "
          f"({report.bytes_freed} bytes), kept {report.kept}")
    for relpath in report.removed:
        print(f"  - {relpath}")
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    import urllib.error
    import urllib.parse
    import urllib.request

    base = args.url.rstrip("/")

    def call(method: str, path: str, payload=None):
        data = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        if args.token:
            headers["Authorization"] = f"Bearer {args.token}"
        req = urllib.request.Request(base + path, data=data, method=method,
                                     headers=headers)
        return urllib.request.urlopen(req)

    def follow_events(job_id: str) -> None:
        with call("GET", f"/v1/jobs/{job_id}/events") as resp:
            for line in resp:
                print(line.decode("utf-8").rstrip("\n"), flush=True)

    try:
        if args.action == "list":
            params = {}
            if args.state is not None:
                params["state"] = args.state
            if args.limit is not None:
                params["limit"] = str(args.limit)
            path = "/v1/jobs"
            if params:
                path += "?" + urllib.parse.urlencode(params)
            print(call("GET", path).read().decode())
        elif args.action == "submit":
            if args.target is None:
                print("error: submit needs a spec file", file=sys.stderr)
                return 2
            try:
                with open(args.target) as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                # a local file problem, not a server one — diagnose it
                # as such rather than falling into "cannot reach"
                print(f"error: cannot read spec {args.target!r}: {exc}",
                      file=sys.stderr)
                return 2
            resp = json.loads(call("POST", "/v1/jobs", {
                "spec": doc, "resume": args.resume,
                "priority": args.priority,
            }).read())
            print(json.dumps(resp, indent=2))
            if args.watch:
                follow_events(resp["job"]["job_id"])
        else:
            if args.target is None:
                print(f"error: {args.action} needs a job id",
                      file=sys.stderr)
                return 2
            if args.action == "status":
                print(call("GET", f"/v1/jobs/{args.target}").read().decode())
            elif args.action == "result":
                print(call("GET", f"/v1/jobs/{args.target}/result")
                      .read().decode())
            elif args.action == "cancel":
                print(call("DELETE",
                           f"/v1/jobs/{args.target}").read().decode())
            elif args.action == "events":
                follow_events(args.target)
        return 0
    except urllib.error.HTTPError as exc:
        print(f"error: HTTP {exc.code}: "
              f"{exc.read().decode(errors='replace')}", file=sys.stderr)
        return 2
    except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot reach {base}: {exc}", file=sys.stderr)
        return 2


def _stage_summary(result) -> str:
    """One human line per spec stage result (rendered from the same
    per-type payloads the report stage records)."""
    from repro.api import ReportResult
    from repro.api.session import stage_payload

    if isinstance(result, ReportResult):
        return json.dumps(result.summary)
    named = stage_payload(result)
    if named is None:
        return repr(result)
    kind, p = named
    if kind == "map":
        return (f"grid {p['grid'][0]}x{p['grid'][1]}, "
                f"verified={p['verified']}, wirelength={p['wirelength']}")
    if kind == "batch":
        return (f"{len(p['workloads'])} workloads, "
                f"all_verified={p['all_verified']}")
    if kind == "sweep":
        if "routed" not in p:  # analytic axes route nothing
            return f"{p['points']} points"
        return f"{p['points']} points ({p['routed']} routed)"
    if kind == "yield":
        return (f"{p['points']} points, "
                f"yield {p['min_yield']:.1%}..{p['max_yield']:.1%}")
    if kind == "reorder":
        return f"decoder cost {p['cost_before']} -> {p['cost_after']} SEs"
    return json.dumps(p)


_COMMANDS = {
    "patterns": cmd_patterns,
    "decoder": cmd_decoder,
    "area": cmd_area,
    "map": cmd_map,
    "batch": cmd_batch,
    "reorder": cmd_reorder,
    "sweep": cmd_sweep,
    "yield": cmd_yield,
    "import": cmd_import,
    "corpus": cmd_corpus,
    "run": cmd_run,
    "trace": cmd_trace,
    "serve": cmd_serve,
    "worker": cmd_worker,
    "artifacts": cmd_artifacts,
    "jobs": cmd_jobs,
}


def main(argv: Sequence[str] | None = None) -> int:
    from repro.errors import (
        AuthError,
        JobError,
        MappingError,
        RequestError,
        SynthesisError,
    )

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (RequestError, JobError, AuthError, SynthesisError,
            MappingError) as exc:
        # one altitude for every command: invalid request/spec values
        # (including SpecError), job-layer misuse, and netlist
        # import/synthesis failures report as `error: ...` and exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
