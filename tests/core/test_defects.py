"""Tests for fault injection."""

import numpy as np
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

    @pytest.mark.parametrize("seed", [1, 3, 5, 7])
    def test_visible_count_matches_the_scalar_walk(self, device, seed):
        """Replay the injector's draws (site, then one ``(n_vectors,
        n_inputs)`` stimulus block per upset) and recount the visible
        upsets one vector at a time with the scalar fabric oracle."""
        from fabric_oracle import scalar_evaluate

        dev, prog = device
        n_upsets, n_vectors = 24, 16
        report = inject_soft_errors(dev, n_upsets=n_upsets,
                                    n_vectors=n_vectors, seed=seed)
        rng = np.random.default_rng(seed)
        coords = sorted({c for ctx in dev.contexts.values()
                         for c in ctx.lut_config}, key=lambda c: (c.x, c.y))
        tiles = list(dev.contexts)
        visible = 0
        for _ in range(n_upsets):
            lut = dev.logic_blocks[coords[int(rng.integers(len(coords)))]].lut
            ctx = int(rng.integers(dev.params.n_contexts))
            if ctx not in dev.contexts:
                ctx = tiles[int(rng.integers(len(tiles)))]
            idx = (lut.plane_for_context(ctx) * lut.plane_bits
                   + int(rng.integers(lut.plane_bits)))
            netlist = prog.contexts[ctx]
            names = [c.name for c in netlist.inputs()]
            draws = rng.integers(2, size=(n_vectors, len(names)))
            lut.memory[0, idx] ^= 1
            try:
                visible += any(
                    scalar_evaluate(dev, ctx, vec)
                    != netlist.evaluate_outputs(vec)
                    for vec in ({n: int(v) for n, v in zip(names, row)}
                                for row in draws)
                )
            finally:
                lut.memory[0, idx] ^= 1
        assert report.functionally_visible == visible
        assert 0 < visible < n_upsets  # both outcomes occur

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
