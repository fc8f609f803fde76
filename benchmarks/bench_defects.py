"""Fault tolerance — the reliability price of decoder sharing.

Beyond the paper: conventional MC-FPGA cells fail alone; a shared RCM
decoder failing corrupts every switch it feeds.  This bench quantifies
the blast radius on synthesized banks and the soft-error behaviour of
configured devices (the reliability argument for FeRAM configuration).
"""

from repro.analysis.experiments import map_program
from repro.core.decoder_synth import DecoderBank
from repro.core.defects import (
    FaultKind,
    decoder_fault_campaign,
    inject_soft_errors,
)
from repro.core.fpga import MultiContextFPGA
from repro.core.patterns import ContextPattern, PatternClass, classify_mask
from repro.utils.tables import TextTable, format_ratio


class TestDecoderBlastRadius:
    def test_campaign_on_workload_bank(self, benchmark, mapped_suite):
        m = mapped_suite["random_mut"]
        masks = [
            mk for mk in m.stats().switch.used.values()
            if classify_mask(mk, 4) is PatternClass.GENERAL
        ]
        bank = DecoderBank(4)
        for mk in masks:
            bank.request(ContextPattern(mk, 4))

        reports = benchmark.pedantic(
            lambda: decoder_fault_campaign(bank), rounds=1, iterations=1
        )
        worst = max(r.corrupted_decoders for r in reports)
        mean = sum(r.corrupted_decoders for r in reports) / len(reports)
        t = TextTable(
            ["metric", "value"],
            title="Single-SE stuck-at campaign (shared decoder bank)",
        )
        t.add_row(["bank SEs", len(bank.block.ses)])
        t.add_row(["distinct decoders", bank.stats.n_distinct])
        t.add_row(["switches served", len(masks)])
        t.add_row(["worst decoders corrupted by one SE", worst])
        t.add_row(["mean decoders corrupted", f"{mean:.2f}"])
        t.add_row(["conventional equivalent", "1 switch per fault"])
        print("\n" + t.render())
        assert worst >= 1

    def test_sharing_tradeoff_quantified(self, benchmark):
        """Sharing divides area by ~n but multiplies fault impact."""

        def measure():
            shared = DecoderBank(4, share=True)
            isolated = DecoderBank(4, share=False)
            for _ in range(6):
                shared.request(ContextPattern(0b1000, 4))
                isolated.request(ContextPattern(0b1000, 4))
            worst_shared = max(
                r.corrupted_decoders
                for r in decoder_fault_campaign(shared, (FaultKind.STUCK_AT_0,))
            )
            return shared.block.se_count(), isolated.block.se_count(), worst_shared

        se_shared, se_isolated, worst = benchmark.pedantic(
            measure, rounds=1, iterations=1
        )
        print(f"\narea: {se_shared} vs {se_isolated} SEs; "
              f"one fault corrupts up to {worst} shared decoder output(s)")
        assert se_shared < se_isolated


class TestSoftErrors:
    def test_upset_visibility(self, benchmark, suite):
        prog = suite["adder_mut"]
        mapped = map_program(prog, seed=3, effort=0.4)
        device = MultiContextFPGA(mapped.params)
        device.configure_program(prog, mapped.placements, mapped.routes)

        report = benchmark.pedantic(
            lambda: inject_soft_errors(device, n_upsets=32, seed=7),
            rounds=1, iterations=1,
        )
        t = TextTable(["metric", "value"], title="Configuration soft errors")
        t.add_row(["upsets injected", report.flipped_bits])
        t.add_row(["detected by readback", report.detected_by_readback])
        t.add_row(["functionally visible", report.functionally_visible])
        t.add_row(["silent fraction", format_ratio(
            1 - report.functionally_visible / report.flipped_bits
        )])
        print("\n" + t.render())
        assert report.detected_by_readback == report.flipped_bits
