"""Tests for fault injection."""

import pytest

from repro.analysis.experiments import map_program
from repro.core.decoder_synth import DecoderBank
from repro.core.defects import (
    FaultKind,
    decoder_fault_campaign,
    inject_se_fault,
    inject_soft_errors,
)
from repro.core.fpga import MultiContextFPGA
from repro.core.patterns import ContextPattern
from repro.errors import SimulationError
from repro.netlist.synth import synthesize
from repro.netlist.techmap import tech_map
from repro.workloads.multicontext import mutated_program


def small_bank() -> DecoderBank:
    bank = DecoderBank(4)
    for mask in (0b1000, 0b0110, 0b0001):
        bank.request(ContextPattern(mask, 4))
    bank.verify()
    return bank


class TestDecoderFaults:
    def test_fault_corrupts_something(self):
        bank = small_bank()
        hits = [
            inject_se_fault(bank, i, FaultKind.STUCK_AT_0).corrupted_decoders
            for i in range(len(bank.block.ses))
        ]
        assert any(h > 0 for h in hits)

    def test_restoration_after_injection(self):
        bank = small_bank()
        inject_se_fault(bank, 0, FaultKind.STUCK_AT_1)
        bank.verify()  # still intact

    def test_shared_leaf_has_blast_radius(self):
        """A fault in a shared leaf SE corrupts multiple decoders —
        the reliability price of sharing."""
        bank = DecoderBank(4)
        # two GENERAL patterns sharing the S0 leaf
        bank.request(ContextPattern(0b1000, 4))
        bank.request(ContextPattern(0b0010, 4))
        reports = decoder_fault_campaign(bank, (FaultKind.STUCK_AT_0,))
        assert max(r.corrupted_decoders for r in reports) >= 2

    def test_out_of_range(self):
        bank = small_bank()
        with pytest.raises(SimulationError):
            inject_se_fault(bank, 999, FaultKind.STUCK_AT_0)

    def test_campaign_covers_both_polarities(self):
        bank = small_bank()
        reports = decoder_fault_campaign(bank)
        kinds = {r.kind for r in reports}
        assert kinds == {FaultKind.STUCK_AT_0, FaultKind.STUCK_AT_1}
        assert len(reports) == 2 * len(bank.block.ses)


class TestSoftErrors:
    @pytest.fixture(scope="class")
    def device(self):
        base = tech_map(
            synthesize(["a", "b", "c"], {"o": "(a & b) ^ c"}), k=4
        )
        prog = mutated_program(base, n_contexts=2, fraction=0.3, seed=2)
        mapped = map_program(prog, seed=1, effort=0.3)
        dev = MultiContextFPGA(mapped.params)
        dev.configure_program(prog, mapped.placements, mapped.routes)
        return dev, prog

    def test_all_upsets_detected_by_readback(self, device):
        dev, _ = device
        report = inject_soft_errors(dev, n_upsets=6, seed=1)
        assert report.detected_by_readback == report.flipped_bits

    def test_some_upsets_functionally_silent(self, device):
        """Upsets in don't-care plane regions never reach an output."""
        dev, _ = device
        report = inject_soft_errors(dev, n_upsets=24, seed=3)
        assert report.functionally_visible <= report.flipped_bits

    def test_device_restored(self, device):
        dev, prog = device
        inject_soft_errors(dev, n_upsets=10, seed=5)
        for ctx in range(prog.n_contexts):
            dev.verify_against_source(ctx, n_vectors=8)

    def test_unconfigured_rejected(self):
        from repro.arch.params import ArchParams

        dev = MultiContextFPGA(ArchParams(cols=3, rows=3))
        with pytest.raises(SimulationError):
            inject_soft_errors(dev)


class TestJsonBridges:
    """The behavioral fault layer now emits JSON dicts, so its results
    compose with the physical-defect reports of repro.reliability."""

    def test_decoder_report_to_dict(self):
        bank = small_bank()
        report = inject_se_fault(bank, 0, FaultKind.STUCK_AT_0)
        d = report.to_dict()
        assert d["se_index"] == 0
        assert d["kind"] == "sa0"
        assert d["blast_radius"] == pytest.approx(report.blast_radius)

    def test_campaign_summary_is_json_ready(self):
        import json

        from repro.core.defects import decoder_campaign_summary

        bank = small_bank()
        reports = decoder_fault_campaign(bank)
        summary = decoder_campaign_summary(reports)
        assert summary["faults_injected"] == len(reports)
        assert summary["faults_with_corruption"] <= summary["faults_injected"]
        assert 0.0 <= summary["mean_blast_radius"] <= 1.0
        assert summary["max_blast_radius"] >= summary["mean_blast_radius"]
        assert len(summary["reports"]) == len(reports)
        json.dumps(summary)

    def test_soft_error_report_to_dict(self):
        from repro.core.defects import SoftErrorReport

        d = SoftErrorReport(10, 10, 4, 16).to_dict()
        assert d["flipped_bits"] == 10
        assert d["silent_corruption"] == 6
        assert d["vectors_checked"] == 16
