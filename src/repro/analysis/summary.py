"""One-call reproduction: every headline artifact in a single report.

:func:`reproduce_paper` runs the whole evaluation — pattern censuses,
the Fig. 9 synthesis check, the Figs. 13/14 packing, the Section-5 area
points, and (optionally) the measured workload flow — and returns a
structured result plus a rendered text report.  This is the programmatic
equivalent of running the entire benchmark harness, sized to finish in
seconds, and the engine behind ``examples/reproduce_paper.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.experiments import map_program, verify_mapped
from repro.analysis.pattern_stats import pattern_cost_table
from repro.core.area_model import AreaModel
from repro.core.decoder_synth import synthesize_single
from repro.core.patterns import ContextPattern, PatternClass, class_census
from repro.netlist.dfg import paper_example_program
from repro.netlist.sharing import pack_global, pack_local
from repro.utils.tables import TextTable, format_ratio


@dataclass
class ReproductionCheck:
    """One paper claim and how the reproduction scored it."""

    artifact: str
    paper: str
    measured: str
    passed: bool


@dataclass
class ReproductionReport:
    checks: list[ReproductionCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, artifact: str, paper: str, measured: str, passed: bool) -> None:
        self.checks.append(ReproductionCheck(artifact, paper, measured, passed))

    def render(self) -> str:
        t = TextTable(
            ["artifact", "paper", "measured", "ok"],
            title="Reproduction scorecard",
        )
        for c in self.checks:
            t.add_row([c.artifact, c.paper, c.measured, "yes" if c.passed else "NO"])
        return t.render()


def reproduce_paper(include_measured_flow: bool = True, seed: int = 7) -> ReproductionReport:
    """Score every headline claim; see EXPERIMENTS.md for the full story."""
    report = ReproductionReport()

    # Figs. 3-5: classification census
    census = class_census(4)
    report.add(
        "Figs. 3-5 pattern census",
        "2 constant / 4 literal / 10 general",
        f"{census[PatternClass.CONSTANT]} / {census[PatternClass.LITERAL]} / "
        f"{census[PatternClass.GENERAL]}",
        (census[PatternClass.CONSTANT], census[PatternClass.LITERAL],
         census[PatternClass.GENERAL]) == (2, 4, 10),
    )

    # Fig. 9: four SEs, electrically correct
    p = ContextPattern.from_paper_row((1, 0, 0, 0))
    block, net, n_ses = synthesize_single(p)
    ok = n_ses == 4 and block.read_pattern(net) == p.values()
    report.add("Fig. 9 decoder for (1,0,0,0)", "4 SEs", f"{n_ses} SEs, verified", ok)

    # per-class costs
    costs = pattern_cost_table(4)
    report.add(
        "decoder cost per class",
        "1 / 1 / mux tree",
        f"{costs['avg_cost_constant']:.0f} / {costs['avg_cost_literal']:.0f} / "
        f"{costs['avg_cost_general']:.0f} SEs",
        costs["avg_cost_general"] == 4.0,
    )

    # Figs. 13-14: packing
    prog = paper_example_program()
    g, l = pack_global(prog), pack_local(prog)
    report.add(
        "Figs. 13-14 LB packing", "3 LBs -> 2 LBs",
        f"{g.n_lbs} LBs -> {l.n_lbs} LBs",
        (g.n_lbs, l.n_lbs) == (3, 2),
    )

    # Section 5: analytic operating point
    out = AreaModel().paper_operating_points()
    cmos, fepg = out["cmos"].ratio, out["fepg"].ratio
    report.add(
        "Section 5 area (CMOS)", "45%", format_ratio(cmos),
        abs(cmos - 0.45) < 0.02,
    )
    report.add(
        "Section 5 area (FePG)", "37%", format_ratio(fepg),
        abs(fepg - 0.37) < 0.02,
    )

    if include_measured_flow:
        from repro.netlist.techmap import tech_map
        from repro.workloads.generators import ripple_adder
        from repro.workloads.multicontext import mutated_program

        base = tech_map(ripple_adder(4), k=4)
        program = mutated_program(base, n_contexts=4, fraction=0.05, seed=seed)
        mapped = map_program(program, seed=seed)
        stats = mapped.stats()
        verified = verify_mapped(mapped, seed=seed)
        change_rate = stats.switch.change_fraction()
        report.add(
            "end-to-end flow", "functional equivalence",
            f"verified={verified}, change rate {format_ratio(change_rate)}",
            verified and change_rate < 0.05,
        )
        fr = stats.class_fractions()
        report.add(
            "measured redundancy", "<5% of bits change (assumed)",
            f"constant fraction {format_ratio(fr[PatternClass.CONSTANT])}",
            fr[PatternClass.CONSTANT] > 0.9,
        )
    return report
