"""Switching-activity estimation for dynamic-power accounting.

Estimates per-net toggle rates by lane-word simulation over a random
stimulus stream: for each net, the fraction of adjacent vector pairs
on which its value changes.  Feeds the dynamic-logic term
of :mod:`repro.core.power` and gives the event-driven simulator's
glitch counts a zero-delay baseline to compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.netlist.logic import random_lanes
from repro.netlist.netlist import Netlist
from repro.utils.rng import ensure_rng


@dataclass
class ActivityReport:
    """Per-net toggle rates over a stimulus stream."""

    rates: dict[str, float]
    n_transitions_total: float
    vectors: int

    def rate(self, net: str) -> float:
        if net not in self.rates:
            raise SimulationError(f"no activity recorded for net {net!r}")
        return self.rates[net]

    def hottest(self, k: int = 5) -> list[tuple[str, float]]:
        return sorted(self.rates.items(), key=lambda kv: -kv[1])[:k]

    def mean_rate(self) -> float:
        if not self.rates:
            return 0.0
        return sum(self.rates.values()) / len(self.rates)


def estimate_activity(
    netlist: Netlist,
    n_vectors: int = 1024,
    seed: int | np.random.Generator | None = 0,
) -> ActivityReport:
    """Toggle rate per net under ``n_vectors`` random vectors.

    Every net's values over the stream are one lane word
    (:meth:`Netlist.evaluate_lanes
    <repro.netlist.netlist.Netlist.evaluate_lanes>`); its toggle count
    is the popcount of ``v ^ (v >> 1)`` over the adjacent lane pairs.
    """
    if n_vectors < 2:
        raise SimulationError("need at least 2 vectors to observe a toggle")
    rng = ensure_rng(seed)
    stimulus = {c.output: random_lanes(rng, n_vectors) for c in netlist.inputs()}
    pairs = n_vectors - 1
    inside = (1 << pairs) - 1
    rates: dict[str, float] = {}
    total = 0.0
    for net, word in netlist.evaluate_lanes(stimulus, n_vectors).items():
        toggles = ((word ^ (word >> 1)) & inside).bit_count()
        rates[net] = toggles / pairs
        total += toggles
    return ActivityReport(rates, total, n_vectors)


def dynamic_logic_energy(
    report: ActivityReport,
    netlist: Netlist,
    energy_per_toggle: float = 1.0,
) -> float:
    """Energy proxy: sum of LUT-output toggle rates.

    Identical mapped circuits draw identical logic energy on any of the
    three fabrics — this term cancels in fabric comparisons but completes
    energy-per-computation accounting.
    """
    total = 0.0
    for cell in netlist.luts():
        total += report.rates.get(cell.output, 0.0)
    return total * energy_per_toggle
