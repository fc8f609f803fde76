"""The pinned request catalog behind the golden-JSON fixtures.

One small, fast request per result type.  ``tests/api/test_golden.py``
re-executes each on a fresh session and compares the result's
``to_dict()`` against the checked-in fixture, so any accidental change
to a serialized shape (or to the numbers themselves) fails loudly.

Regenerate deliberately (after an intentional schema/behavior change)::

    PYTHONPATH=src python tests/api/regen_golden.py
"""

from repro.api import (
    AreaRequest,
    BatchRequest,
    ExecutionConfig,
    ExperimentSpec,
    ImportRequest,
    MapRequest,
    ReorderRequest,
    SweepRequest,
    YieldRequest,
)

#: A small two-context import (one BLIF, one Verilog source) behind
#: the ``import_result`` fixture.
GOLDEN_BLIF = """\
.model blinker
.inputs a b c
.outputs y q
.names a b ab
11 1
.names ab c y
10 1
01 1
.latch y q re clk 0
.end
"""

GOLDEN_VERILOG = """\
module blinker2 (a, b, c, y);
  input a, b, c;
  output y;
  wire ab;
  and (ab, a, b);
  xor (y, ab, c);
endmodule
"""

GOLDEN_REQUESTS = {
    "map_result": MapRequest(
        workload="adder", contexts=4, mutation=0.05,
        execution=ExecutionConfig(seed=7),
    ),
    "batch_result": BatchRequest(
        workloads=("adder", "cmp"), contexts=4, mutation=0.05,
        execution=ExecutionConfig(seed=7),
    ),
    # the analytic axes (the Section-5 area model, no routing); listed
    # before ``sweep_result`` so that tag-keyed views of this catalog
    # keep the routing sweep as their ``sweep_request``
    "sweep_change_rate_result": SweepRequest(what="change-rate"),
    "sweep_contexts_result": SweepRequest(what="contexts"),
    "sweep_result": SweepRequest(
        what="channel-width", workload="adder", grid=5, values=(6, 8),
        execution=ExecutionConfig(effort=0.2),
    ),
    "yield_result": YieldRequest(
        workload="adder", grid=5, width=7, rates=(0.0, 0.05), trials=3,
        execution=ExecutionConfig(effort=0.2),
    ),
    "area_result": AreaRequest(),
    "import_result": ImportRequest(
        sources=(
            {"text": GOLDEN_BLIF, "format": "blif", "name": "blinker"},
            {"text": GOLDEN_VERILOG, "format": "verilog",
             "name": "blinker2"},
        ),
        name="golden-import", grid=5, width=8,
        execution=ExecutionConfig(seed=7),
    ),
    "reorder_result": ReorderRequest(
        workload="adder", contexts=4, mutation=0.15,
        execution=ExecutionConfig(seed=7),
    ),
}

GOLDEN_SPEC = ExperimentSpec.from_dict({
    "schema_version": 1,
    "name": "golden-spec",
    "workload": "adder",
    "arch": {"grid": 5, "width": 7},
    "execution": {"backend": "sequential", "seed": 0, "effort": 0.2},
    "stages": [
        {"stage": "map"},
        {"stage": "sweep", "what": "channel-width", "values": [6, 7]},
        {"stage": "report"},
    ],
})
