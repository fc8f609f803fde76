#!/usr/bin/env python
"""Area-model explorer: the Section-5 evaluation and its sensitivity.

Reproduces the paper's headline (proposed MC-FPGA = 45% of conventional
in CMOS, 37% with FePG SEs) and then asks the questions the paper
doesn't: how does the advantage move with the configuration change rate,
the context count, decoder sharing, and the LB packing credit?

Run:  python examples/area_explorer.py
"""

from repro.analysis.experiments import run_area_experiment
from repro.analysis.report import (
    area_comparison_table,
    breakdown_table,
    sweep_table,
)
from repro.analysis.sweep import sweep_change_rate_points, sweep_contexts_points
from repro.core.area_model import AreaConstants, AreaModel, Technology
from repro.utils.tables import TextTable, format_ratio
from repro.workloads.multicontext import workload_suite


def headline() -> None:
    out = AreaModel().paper_operating_points()
    print(area_comparison_table(out))
    print()
    print(breakdown_table(out["cmos"], "Breakdown at the operating point (CMOS)"))
    print()


def measured() -> None:
    suite = workload_suite(small=True, seed=7)
    for name, prog in suite.items():
        out = run_area_experiment(prog, seed=3)
        print(area_comparison_table(out, title=f"Measured — {name}"))
        print()


def sensitivity() -> None:
    for points, label, title in (
        (sweep_change_rate_points([0.0, 0.01, 0.03, 0.05, 0.1, 0.2, 0.5]),
         "change rate", "Sensitivity: area ratio vs change rate"),
        (sweep_contexts_points([2, 4, 8, 16]),
         "contexts", "Sensitivity: area ratio vs context count"),
    ):
        rows = [(pt.value, pt.cmos_ratio, pt.fepg_ratio) for pt in points]
        print(sweep_table(rows, [label, "CMOS", "FePG"], title))
        print()


def levers() -> None:
    model = AreaModel()
    t = TextTable(
        ["sharing factor", "LB packing", "CMOS ratio"],
        title="Mechanism levers at the operating point",
    )
    for share in (1.0, 2.0, 4.0):
        for packing in (1.0, 0.8, 0.67):
            cmp = model.paper_operating_point(
                sharing_factor=share, lb_packing_factor=packing,
                tech=Technology.CMOS,
            )
            t.add_row([share, packing, format_ratio(cmp.ratio)])
    print(t.render())
    print()

    # calibrated vs textbook constants
    t2 = TextTable(["constants", "CMOS", "FePG"],
                   title="Constant-set comparison")
    for name, const in (
        ("paper_calibrated", AreaConstants.paper_calibrated()),
        ("textbook", AreaConstants.textbook()),
    ):
        pair = AreaModel(const).paper_operating_points()
        t2.add_row([name, format_ratio(pair["cmos"].ratio),
                    format_ratio(pair["fepg"].ratio)])
    print(t2.render())


if __name__ == "__main__":
    headline()
    measured()
    sensitivity()
    levers()
