#!/usr/bin/env python
"""Quickstart: the reconfigurable context memory in five minutes.

Walks the paper's core ideas end to end, through the public
:mod:`repro.api` facade wherever a flow is involved:

1. context patterns and their three hardware classes (Figs. 3-5),
2. synthesizing a pattern decoder from switch elements (Fig. 9),
3. mapping a small two-context program onto a behavioral MC-FPGA
   (``Session.map_program``),
4. single-cycle context switching with flip accounting,
5. the headline area comparison via ``Session.run(AreaRequest())``,
6. a whole declarative campaign via ``Session.run_spec``.

Run:  python examples/quickstart.py
"""

from repro import (
    ContextPattern,
    DecoderBank,
    MultiContextFPGA,
    class_census,
)
from repro.api import AreaRequest, ExperimentSpec, Session
from repro.core.decoder_synth import synthesize_single
from repro.netlist.synth import synthesize
from repro.netlist.techmap import tech_map
from repro.workloads.multicontext import mutated_program

#: One session for the whole walkthrough: every step shares its
#: compiled-substrate, placement and netlist caches.
SESSION = Session()


def step1_patterns() -> None:
    print("=" * 64)
    print("1. Context patterns (paper Section 2)")
    print("=" * 64)
    census = class_census(4)
    print(f"The 16 patterns of a 4-context configuration bit: {census}")
    for row in [(0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 0, 0)]:
        p = ContextPattern.from_paper_row(row)
        print(f"  (C3,C2,C1,C0) = {row}  ->  {p.classify()}")
    print()


def step2_decoder() -> None:
    print("=" * 64)
    print("2. Decoder synthesis (Fig. 9)")
    print("=" * 64)
    pattern = ContextPattern.from_paper_row((1, 0, 0, 0))
    block, net, n_ses = synthesize_single(pattern)
    print(f"Pattern (1,0,0,0) synthesized with {n_ses} switch elements")
    print(f"Electrical sweep over contexts: {block.read_pattern(net)}")

    bank = DecoderBank(4)
    for mask in (0b1000, 0b1000, 0b0110):
        dec = bank.request(ContextPattern(mask, 4))
        print(f"  request {mask:04b}: marginal SEs = {dec.marginal_ses}"
              f"{'  (shared!)' if dec.shared else ''}")
    bank.verify()
    print()


def step3_map_program() -> MultiContextFPGA:
    print("=" * 64)
    print("3. Mapping a two-context program")
    print("=" * 64)
    base = tech_map(
        synthesize(
            ["a", "b", "c", "d"],
            {"y0": "(a & b) | (c & d)", "y1": "a ^ b ^ c ^ d"},
        ),
        k=4,
    )
    program = mutated_program(base, n_contexts=2, fraction=0.25, seed=1)
    mapped = SESSION.map_program(program, share_aware=True, seed=1)
    print(f"grid: {mapped.params.cols}x{mapped.params.rows}, "
          f"LUTs per context: {[len(nl.luts()) for nl in program.contexts]}")
    print(f"route reuse across contexts: {mapped.reuse_fraction():.0%}")

    device = MultiContextFPGA(mapped.params, rrg=mapped.rrg)
    device.configure_program(program, mapped.placements, mapped.routes)
    for ctx in range(program.n_contexts):
        device.verify_against_source(ctx, n_vectors=16)
    print("fabric-level evaluation matches the source netlists: OK")

    stats = mapped.stats()
    fracs = stats.class_fractions()
    print("measured pattern classes: "
          + ", ".join(f"{k}: {v:.1%}" for k, v in fracs.items()))
    print()
    return device


def step4_context_switch(device: MultiContextFPGA) -> None:
    print("=" * 64)
    print("4. Context switching")
    print("=" * 64)
    device.switch_context(0)
    flips = device.switch_context(1)
    print(f"switching context 0 -> 1 flips {flips} LUT configuration bits")
    out0 = device.evaluate(0, {"a": 1, "b": 1, "c": 0, "d": 0})
    out1 = device.evaluate(1, {"a": 1, "b": 1, "c": 0, "d": 0})
    print(f"context 0 outputs: {out0}")
    print(f"context 1 outputs: {out1}")
    print()


def step5_area() -> None:
    print("=" * 64)
    print("5. The Section-5 area comparison (Session.run)")
    print("=" * 64)
    result = SESSION.run(AreaRequest())
    for name, paper in (("cmos", "45%"), ("fepg", "37%")):
        ratio = result.technologies[name]["ratio"]
        print(f"  {name:5s}: proposed / conventional = {ratio:.1%} "
              f"(paper: {paper})")
    print()


def step6_spec() -> None:
    print("=" * 64)
    print("6. A declarative campaign (Session.run_spec)")
    print("=" * 64)
    spec = ExperimentSpec.from_dict({
        "schema_version": 1,
        "name": "quickstart",
        "workload": "adder",
        "arch": {"grid": 5, "width": 7},
        "execution": {"backend": "sequential", "seed": 0, "effort": 0.2},
        "stages": [
            {"stage": "map"},
            {"stage": "sweep", "what": "channel-width", "values": [6, 8]},
            {"stage": "report"},
        ],
    })
    result = SESSION.run_spec(spec)
    print(f"spec {result.name!r} ran {len(result.stages)} stages; "
          f"report: {result.stages[-1].summary}")
    print("(spec files live in examples/specs/ — run them with "
          "`python -m repro run examples/specs/ci_smoke.json`)")
    print()


if __name__ == "__main__":
    step1_patterns()
    step2_decoder()
    device = step3_map_program()
    step4_context_switch(device)
    step5_area()
    step6_spec()
    print("done.")
