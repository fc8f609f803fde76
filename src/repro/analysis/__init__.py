"""Analysis & experiment drivers: redundancy statistics (Table 1),
pattern-class censuses (Figs. 3-5), report rendering, the one
place-and-route entry (:func:`map_program`), and the end-to-end
experiment flows behind every benchmark."""

from repro.analysis.experiments import (
    ExperimentResult,
    map_program,
    run_area_experiment,
    run_full_flow,
)
from repro.analysis.pattern_stats import pattern_class_table, pattern_cost_table
from repro.analysis.redundancy import redundancy_report, table1_view

__all__ = [
    "ExperimentResult",
    "map_program",
    "pattern_class_table",
    "pattern_cost_table",
    "redundancy_report",
    "run_area_experiment",
    "run_full_flow",
    "table1_view",
]
