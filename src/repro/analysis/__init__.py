"""Analysis & experiment drivers: redundancy statistics (Table 1),
pattern-class censuses (Figs. 3-5), report rendering, and one driver
per experiment:

- mapping: :func:`~repro.analysis.experiments.map_program` (the one
  place-and-route entry) and
  :func:`~repro.analysis.experiments.verify_mapped`; statistics are
  ``mapped.stats()``;
- Section-5 area: :func:`~repro.analysis.experiments.run_area_experiment`
  on a measured program; the analytic operating point is
  :meth:`AreaModel.paper_operating_points
  <repro.core.area_model.AreaModel.paper_operating_points>`;
- routing design space: :class:`~repro.analysis.sweep.SweepRunner`
  over the grid builders of :mod:`repro.analysis.sweep`, and
  :func:`~repro.analysis.sweep.minimum_channel_width`;
- the whole scorecard: :func:`~repro.analysis.summary.reproduce_paper`.

Import each name from the module that defines it; loading the package
loads none of them.
"""
