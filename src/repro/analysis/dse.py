"""Architecture design-space exploration.

Classic FPGA-architecture methodology applied to the RCM fabric:

- :func:`minimum_channel_width` — bisect the narrowest channel a
  workload routes on (the routability cost of architecture choices),
- :func:`explore_double_fraction` — sweep the single/double track split
  and report routability + critical path (Fig. 10's design knob),
- :func:`explore_fc` — connection-block flexibility vs wirelength.

Each returns plain rows so benches and notebooks can render them.

All exploration rides on the compiled sweep subsystem
(:mod:`repro.analysis.sweep`): points are evaluated on the cached
flat-array substrate with placements shared across points that differ
only in routing resources.  Verdicts and wirelengths match the legacy
per-point flow exactly (``tests/analysis/test_sweep.py`` pins the
equivalence).  Pass a :class:`~repro.analysis.sweep.SweepRunner` with
``backend="process"`` to fan grid points out across cores.

Without a ``runner`` each call uses a fresh
:class:`~repro.analysis.sweep.SweepRunner`: its placement cache holds
strong references to netlists, so it lives for that call only (a
process-wide runner would grow without bound), while compiled
substrates stay shared process-wide.  Named-workload sweeps should
prefer ``Session.run(SweepRequest(...))``; these functions serve
explicit-netlist exploration.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.sweep import (
    SweepJob,
    SweepPoint,
    SweepRunner,
    channel_width_jobs,
    double_fraction_jobs,
    fc_jobs,
)
from repro.arch.params import ArchParams
from repro.errors import RoutingError
from repro.netlist.netlist import Netlist


def _try_route(
    netlist: Netlist,
    params: ArchParams,
    seed: int,
    effort: float,
    runner: SweepRunner | None = None,
) -> SweepPoint:
    """Evaluate one architecture point on the compiled engine."""
    runner = runner if runner is not None else SweepRunner()
    job = SweepJob("point", 0.0, params, netlist, seed, effort)
    (pt,) = runner.iter_run([job])
    return pt


def minimum_channel_width(
    netlist: Netlist,
    base: ArchParams,
    lo: int = 2,
    hi: int = 24,
    seed: int = 0,
    effort: float = 0.3,
    runner: SweepRunner | None = None,
) -> int:
    """Smallest channel width that routes ``netlist`` on ``base``'s grid.

    Standard bisection with a routable upper bound; raises
    :class:`RoutingError` when even ``hi`` fails.  Bisection probes are
    sequential by nature (each depends on the last verdict), but every
    probe reuses the runner's cached placement — the anneal is
    independent of channel width — so only the routing is repeated.
    """
    runner = runner if runner is not None else SweepRunner()

    def routed(width: int) -> bool:
        jobs = channel_width_jobs(
            netlist, base, [width], seed=seed, effort=effort
        )
        (pt,) = runner.iter_run(jobs)
        return pt.routed

    if not routed(hi):
        raise RoutingError(f"unroutable even at W={hi}")
    while lo < hi:
        mid = (lo + hi) // 2
        if routed(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def explore_double_fraction(
    netlist: Netlist,
    base: ArchParams,
    fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75),
    seed: int = 0,
    effort: float = 0.3,
    runner: SweepRunner | None = None,
) -> list[tuple[float, SweepPoint]]:
    """Sweep the double-length track share (Fig. 10's knob)."""
    fractions = list(fractions)
    runner = runner if runner is not None else SweepRunner()
    jobs = double_fraction_jobs(netlist, base, fractions, seed=seed, effort=effort)
    return list(zip(fractions, runner.iter_run(jobs)))


def explore_fc(
    netlist: Netlist,
    base: ArchParams,
    fcs: Sequence[float] = (1.0, 0.5, 0.3),
    seed: int = 0,
    effort: float = 0.3,
    runner: SweepRunner | None = None,
) -> list[tuple[float, SweepPoint]]:
    """Sweep connection-block flexibility."""
    fcs = list(fcs)
    runner = runner if runner is not None else SweepRunner()
    jobs = fc_jobs(netlist, base, fcs, seed=seed, effort=effort)
    return list(zip(fcs, runner.iter_run(jobs)))
