"""Analysis & experiment drivers: redundancy statistics (Table 1),
pattern-class censuses (Figs. 3-5), report rendering, and one driver
per experiment:

- mapping: :func:`map_program` (the one place-and-route entry) and
  :func:`verify_mapped`; statistics are ``mapped.stats()``;
- Section-5 area: :func:`run_area_experiment` on a measured program;
  the analytic operating point is
  :meth:`AreaModel.paper_operating_points
  <repro.core.area_model.AreaModel.paper_operating_points>`;
- routing design space: :class:`~repro.analysis.sweep.SweepRunner`
  over the grid builders of :mod:`repro.analysis.sweep`, and
  :func:`minimum_channel_width`;
- the whole scorecard: :func:`~repro.analysis.summary.reproduce_paper`.
"""

from repro.analysis.experiments import (
    map_program,
    run_area_experiment,
    verify_mapped,
)
from repro.analysis.pattern_stats import pattern_class_table, pattern_cost_table
from repro.analysis.redundancy import redundancy_report, table1_view
from repro.analysis.sweep import minimum_channel_width

__all__ = [
    "map_program",
    "minimum_channel_width",
    "pattern_class_table",
    "pattern_cost_table",
    "redundancy_report",
    "run_area_experiment",
    "table1_view",
    "verify_mapped",
]
