"""repro — reproduction of "Architecture of a Multi-Context FPGA Using
Reconfigurable Context Memory" (Chong, Ogata, Hariyama, Kameyama,
IPDPS 2005).

The package splits into:

- :mod:`repro.core` — the paper's contribution: context-pattern algebra
  (Figs. 3-5), switch elements (Fig. 8), the reconfigurable context
  memory (Fig. 7), decoder synthesis (Fig. 9), MCMG-LUTs (Fig. 12),
  adaptive logic blocks (Figs. 13-14), FePGs (Fig. 15), the full device
  and the Section-5 area model.
- :mod:`repro.arch` — island-style fabric: parameters, wire segmentation
  (double-length lines, Fig. 10) and the routing substrate
  (:mod:`repro.arch.compiled`): the routing-resource graph as CSR
  adjacency plus node-attribute arrays, built once per
  :class:`ArchParams` through an LRU build cache and shared by every
  mapping job on the same device.
- :mod:`repro.netlist` — truth tables, netlists, DFGs, expression
  synthesis, k-LUT technology mapping, cross-context sharing.
- :mod:`repro.place` / :mod:`repro.route` — simulated-annealing placer
  (integer tile ids, cached net bounding boxes, draw-for-draw scalar
  RNG, precomputed per-grid distance tables) and PathFinder router with
  cross-context route reuse.  Routing runs on the compiled RRG: one
  native call per context route (a Python loop without a compiler),
  array Dijkstra with epoch-stamped search buffers owned by that route,
  and per-net bounding-box pruning.  The original object-graph router
  is kept in the test suite as the reference the equivalence tests
  compare routes against.
- :mod:`repro.sim` — event-driven and multi-context (DPGA-schedule)
  simulators and switching activity; batched combinational evaluation
  of a netlist or a configured device runs one lane-word LUT primitive
  (:func:`repro.netlist.logic.lut_value`).
- :mod:`repro.workloads` — circuit generators and multi-context
  workloads with controllable redundancy.
- :mod:`repro.analysis` — redundancy statistics, pattern censuses, the
  one place-and-route entry
  :func:`~repro.analysis.experiments.map_program` (one compiled RRG
  shared across jobs; share-unaware contexts route in parallel), the
  :class:`~repro.analysis.sweep.SweepRunner` pool loop that batch,
  sweep and yield requests fan out through, and one driver per
  experiment (mapping, the Section-5 area point, the sweeps).
- :mod:`repro.api` — the public facade: typed requests/results with a
  versioned JSON contract, the :class:`~repro.api.Session`
  (``run``/``stream``/``run_spec``) and declarative
  :class:`~repro.api.ExperimentSpec` campaigns.  External harnesses
  and the CLI both ride this surface.

Picking ``workers``: share-aware routing is sequential across contexts
by construction (later contexts adopt earlier routes), so parallelism
applies to share-unaware contexts and to independent batch jobs, sweep
points and yield trials.  The native route and anneal kernels release
the GIL inside their ``ctypes`` calls, so threads overlap only those;
the ``process`` backend runs whole jobs in parallel.
"""

from repro.core import (
    AdaptiveLogicBlock,
    AreaConstants,
    AreaModel,
    ContextPattern,
    DecoderBank,
    MCMGGeometry,
    MCMGLut,
    MultiContextFPGA,
    PatternClass,
    RCMBlock,
    RCMSwitchBlock,
    SEConfig,
    SwitchElement,
    Technology,
    analytic_pattern_mix,
    class_census,
    decoder_cost,
)
from repro.arch import ArchParams
from repro.arch.params import conventional_params, paper_params
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "AdaptiveLogicBlock",
    "ArchParams",
    "AreaConstants",
    "AreaModel",
    "ContextPattern",
    "DecoderBank",
    "MCMGGeometry",
    "MCMGLut",
    "MultiContextFPGA",
    "PatternClass",
    "RCMBlock",
    "RCMSwitchBlock",
    "ReproError",
    "SEConfig",
    "SwitchElement",
    "Technology",
    "analytic_pattern_mix",
    "class_census",
    "conventional_params",
    "decoder_cost",
    "paper_params",
    "__version__",
]
