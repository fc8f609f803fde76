#!/usr/bin/env python
"""Time-multiplexing a processing pipeline on one MC-FPGA.

The DPGA use model the paper's introduction motivates: hardware too
small to hold a whole pipeline executes it in *time* — each pipeline
stage becomes a context, and the fabric switches contexts every cycle.

Here a checksum/scramble datapath (CRC step feeding a Gray encoder) is
temporally partitioned across four contexts, mapped share-aware onto the
fabric, verified against the flat circuit, and executed on the
behavioral device with configuration-flip accounting.

Run:  python examples/video_pipeline.py
"""

from repro.analysis.experiments import map_program
from repro.analysis.floorplan import occupancy_stats, render_occupancy
from repro.analysis.redundancy import redundancy_report
from repro.core.fpga import MultiContextFPGA
from repro.netlist.synth import synthesize
from repro.netlist.techmap import tech_map
from repro.sim.context_switch import ContextSchedule, MultiContextExecutor
from repro.workloads.multicontext import temporal_partition


def build_datapath():
    """CRC-4 update followed by Gray encoding of the new CRC state."""
    width, poly = 4, 0x3
    inputs = [f"c{i}" for i in range(width)] + ["d"]
    outputs = {}
    fb = f"(c{width - 1} ^ d)"
    nxt = []
    for i in range(width):
        prev = f"c{i - 1}" if i > 0 else "0"
        expr = f"({prev}) ^ {fb}" if (poly >> i) & 1 else f"({prev})"
        outputs[f"n{i}"] = expr
        nxt.append(expr)
    # gray-encode the next state
    for i in range(width):
        if i + 1 < width:
            outputs[f"g{i}"] = f"({nxt[i]}) ^ ({nxt[i + 1]})"
        else:
            outputs[f"g{i}"] = f"({nxt[i]})"
    return tech_map(synthesize(inputs, outputs, name="crc_gray"), k=4)


def main() -> None:
    flat = build_datapath()
    print(f"flat datapath: {flat.stats()}")

    program = temporal_partition(flat, n_contexts=4)
    print(f"temporal partition: "
          f"{[len(nl.luts()) for nl in program.contexts]} LUTs per context")

    mapped = map_program(program, share_aware=True, seed=5)
    print(f"mapped onto {mapped.params.cols}x{mapped.params.rows} fabric; "
          f"route reuse {mapped.reuse_fraction():.0%}")

    # where did everything land? (contexts sharing tiles show as digits)
    print()
    print(render_occupancy(mapped.placements, mapped.params,
                           title="Tile occupancy across the 4 contexts"))
    stats = occupancy_stats(mapped.placements, mapped.params)
    print(f"utilization {stats['utilization']:.0%}, "
          f"{stats['tiles_shared_pinned']} tiles pinned across contexts")

    # redundancy statistics: the phenomenon the RCM monetizes
    print()
    print(redundancy_report(mapped.stats()).render(
        title="Measured redundancy (pipeline workload)"
    ))

    # execute on the behavioral device
    device = MultiContextFPGA(mapped.params, rrg=mapped.rrg)
    device.configure_program(program, mapped.placements, mapped.routes)

    executor = MultiContextExecutor(program, device=device)
    schedule = ContextSchedule.round_robin(program.n_contexts, rounds=1)
    stimulus = {"c0": 1, "c1": 0, "c2": 1, "c3": 0, "d": 1}
    # keys used by partitioned contexts carry an in_ prefix for imports
    stimulus |= {f"in_{k}": v for k, v in stimulus.items()}

    trace = executor.run(schedule, external_inputs=stimulus)
    print()
    print("execution trace (one pass through the pipeline):")
    for step, outs in enumerate(trace.outputs_per_step):
        interesting = {k: v for k, v in sorted(outs.items())[:6]}
        print(f"  step {step} (context {schedule.steps()[step]}): {interesting}")
    print(f"LUT configuration bits flipped per switch: "
          f"{trace.config_flips_per_switch}")

    # equivalence with the golden (netlist-level) multi-context execution
    golden = MultiContextExecutor(program).run(schedule, stimulus)
    assert golden.outputs_per_step == trace.outputs_per_step
    print("device outputs match the golden multi-context execution: OK")


if __name__ == "__main__":
    main()
