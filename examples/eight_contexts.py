#!/usr/bin/env python
"""Beyond the paper: an eight-context RCM fabric.

The paper fixes n = 4 "as an example although our approach is also
applicable to architectures with other number of contexts".  This
example takes it at its word: 8 contexts (3 ID bits, 256 patterns),
decoder synthesis with two-level mux trees, a full mapped program, and
the area comparison at n = 8.

Run:  python examples/eight_contexts.py
"""

from collections import Counter

from repro.analysis.experiments import map_program
from repro.core.area_model import AreaModel, analytic_pattern_mix
from repro.core.decoder_synth import DecoderBank, decoder_cost
from repro.core.patterns import ContextPattern, class_census
from repro.netlist.techmap import tech_map
from repro.utils.tables import TextTable, format_ratio
from repro.workloads.generators import ripple_adder
from repro.workloads.multicontext import mutated_program


def pattern_space() -> None:
    print("=" * 64)
    print("The 8-context pattern space (3 ID bits)")
    print("=" * 64)
    census = class_census(8)
    print(f"256 patterns: {census}")
    costs = Counter(decoder_cost(m, 8) for m in range(256))
    t = TextTable(["decoder SEs", "patterns"], title="Cost histogram")
    for c in sorted(costs):
        t.add_row([c, costs[c]])
    print(t.render())
    print()


def decoder_demo() -> None:
    print("=" * 64)
    print("Two-level decoder synthesis, electrically verified")
    print("=" * 64)
    bank = DecoderBank(8)
    samples = [0b10000000, 0b01100110, 0b00011110, 0b11110000]
    for mask in samples:
        dec = bank.request(ContextPattern(mask, 8))
        print(f"  {mask:08b}: marginal SEs = {dec.marginal_ses}")
    bank.verify()
    print(f"bank total: {bank.block.se_count()} SEs "
          f"(isolated sum {sum(decoder_cost(m, 8) for m in samples)})")
    print()


def mapped_program() -> None:
    print("=" * 64)
    print("An 8-context mapped program")
    print("=" * 64)
    base = tech_map(ripple_adder(3), k=4)
    program = mutated_program(base, n_contexts=8, fraction=0.15, seed=3)
    mapped = map_program(program, share_aware=True, seed=3)
    stats = mapped.stats()
    print(f"grid {mapped.params.cols}x{mapped.params.rows}, "
          f"8 contexts, route reuse {mapped.reuse_fraction():.0%}")
    fracs = stats.class_fractions()
    print("pattern classes: "
          + ", ".join(f"{k}: {format_ratio(v)}" for k, v in fracs.items()))
    print(f"measured change rate: {format_ratio(stats.switch.change_fraction())}")
    print()


def area_at_eight() -> None:
    print("=" * 64)
    print("Section-5 comparison at n = 8")
    print("=" * 64)
    mix = analytic_pattern_mix(0.05, 8)
    print(f"analytic mix at 5% change: constant {format_ratio(mix.constant)}, "
          f"literal {format_ratio(mix.literal)}, "
          f"general {format_ratio(mix.general)}")
    from repro.arch.params import paper_params
    from repro.core.area_model import TileCounts

    pair = AreaModel().paper_operating_points(
        n_contexts=8,
        counts=TileCounts.from_arch(paper_params().with_(n_contexts=8)),
    )
    for name, cmp in pair.items():
        print(f"  {name:5s}: proposed / conventional = "
              f"{format_ratio(cmp.ratio)} (4-context paper point: "
              f"{'45%' if name == 'cmos' else '37%'})")
    print("\nthe advantage widens: conventional context memory grows "
          "linearly with n, the RCM grows only with pattern complexity.")


if __name__ == "__main__":
    pattern_space()
    decoder_demo()
    mapped_program()
    area_at_eight()
