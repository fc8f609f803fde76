"""Fault injection: stuck-at SEs and configuration soft errors.

Two reliability questions the architecture raises and the paper leaves
open:

1. **Blast radius of decoder sharing.**  In a conventional MC-FPGA a
   faulty configuration cell corrupts exactly one switch.  In the RCM a
   shared decoder drives *many* switches (the G2 == G4 sharing), so one
   stuck SE can take out a whole pattern class within a block.  This
   module measures that fan-out cost.

2. **Soft errors in configuration memory.**  SRAM configuration bits
   flip under radiation; ferroelectric cells are famously resistant.
   The injector flips plane bits in a configured device and the checker
   quantifies detection via readback or functional divergence.

Faults are modeled at the behavioral level: stuck-at on an SE's gate
signal, and bit flips in MCMG-LUT plane memory.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.decoder_synth import DecoderBank
from repro.core.fpga import MultiContextFPGA
from repro.core.patterns import ContextPattern
from repro.errors import SimulationError
from repro.netlist.logic import pack_bits
from repro.utils.rng import ensure_rng


class FaultKind(enum.Enum):
    STUCK_AT_0 = "sa0"
    STUCK_AT_1 = "sa1"


@dataclass
class DecoderFaultReport:
    """Impact of one SE fault inside a decoder bank."""

    se_index: int
    kind: FaultKind
    corrupted_decoders: int
    total_decoders: int

    @property
    def blast_radius(self) -> float:
        if self.total_decoders == 0:
            return 0.0
        return self.corrupted_decoders / self.total_decoders

    def to_dict(self) -> dict:
        """JSON-ready row, composable with the physical-defect reports
        of :mod:`repro.reliability` in one artifact."""
        return {
            "se_index": self.se_index,
            "kind": self.kind.value,
            "corrupted_decoders": self.corrupted_decoders,
            "total_decoders": self.total_decoders,
            "blast_radius": self.blast_radius,
        }


def inject_se_fault(bank: DecoderBank, se_index: int, kind: FaultKind) -> DecoderFaultReport:
    """Force one SE's gate stuck at 0/1 and count corrupted decoders.

    The fault is applied by rewriting the SE's memory bits (a stuck gate
    is electrically equivalent to a constant configuration), the bank is
    re-simulated across all contexts, and every decoder whose output
    pattern changed is counted.  The original configuration is restored
    before returning.
    """
    if not 0 <= se_index < len(bank.block.ses):
        raise SimulationError(f"SE index {se_index} out of range")
    from repro.core.switch_element import SEConfig

    target = bank.block.ses[se_index]
    golden: dict[int, tuple[int, ...]] = {}
    for dec in bank.decoders:
        if dec.output_net not in golden:
            golden[dec.output_net] = bank.block.read_pattern(dec.output_net)

    saved = target.element.config
    target.element.config = SEConfig.constant(1 if kind is FaultKind.STUCK_AT_1 else 0)
    corrupted = 0
    try:
        for net, want in golden.items():
            try:
                got = bank.block.read_pattern(net)
            except SimulationError:
                got = None  # contention/float counts as corruption
            if got != want:
                corrupted += 1
    finally:
        target.element.config = saved
    return DecoderFaultReport(se_index, kind, corrupted, len(golden))


def decoder_fault_campaign(
    bank: DecoderBank, kinds: tuple[FaultKind, ...] = (FaultKind.STUCK_AT_0, FaultKind.STUCK_AT_1)
) -> list[DecoderFaultReport]:
    """Exhaustive single-SE stuck-at campaign over a bank."""
    out = []
    for i in range(len(bank.block.ses)):
        for kind in kinds:
            out.append(inject_se_fault(bank, i, kind))
    return out


def conventional_blast_radius() -> float:
    """A conventional cell fault corrupts exactly its own switch."""
    return 0.0  # 0 of the *other* decoders; its own bit is always lost


def decoder_campaign_summary(reports: list[DecoderFaultReport]) -> dict:
    """JSON-ready aggregate of a stuck-at campaign.

    The shape :func:`repro.reliability.combined_reliability_report`
    embeds, so behavioral (decoder blast radius) and physical (fabric
    yield) results land in one machine-readable report.
    """
    radii = [r.blast_radius for r in reports]
    return {
        "faults_injected": len(reports),
        "faults_with_corruption": sum(1 for r in reports if r.corrupted_decoders),
        "mean_blast_radius": sum(radii) / len(radii) if radii else 0.0,
        "max_blast_radius": max(radii, default=0.0),
        "conventional_blast_radius": conventional_blast_radius(),
        "reports": [r.to_dict() for r in reports],
    }


@dataclass
class SoftErrorReport:
    """Outcome of a configuration-upset experiment on a device."""

    flipped_bits: int
    detected_by_readback: int
    functionally_visible: int
    vectors_checked: int

    def to_dict(self) -> dict:
        """JSON-ready summary; ``silent_corruption`` is the
        readback-detected-but-functionally-invisible window FeRAM's
        upset immunity closes."""
        return {
            "flipped_bits": self.flipped_bits,
            "detected_by_readback": self.detected_by_readback,
            "functionally_visible": self.functionally_visible,
            "vectors_checked": self.vectors_checked,
            "silent_corruption": (
                self.detected_by_readback - self.functionally_visible
            ),
        }


def _upset_visible(device: MultiContextFPGA, ctx: int,
                   rng: np.random.Generator, n_vectors: int) -> bool:
    """Whether some of ``n_vectors`` random vectors sees a primary
    output of context ``ctx`` differ from its source netlist."""
    netlist = device._program.contexts[ctx]
    names = [c.name for c in netlist.inputs()]
    draws = rng.integers(2, size=(n_vectors, len(names)))
    stimulus = {n: pack_bits(draws[:, i]) for i, n in enumerate(names)}
    want = netlist.evaluate_lanes(stimulus, n_vectors)
    got = device.evaluate_lanes(ctx, stimulus, n_vectors)
    return any(got[c.name] != want[c.inputs[0]] for c in netlist.outputs())


def inject_soft_errors(
    device: MultiContextFPGA,
    n_upsets: int = 8,
    n_vectors: int = 16,
    seed: int | np.random.Generator | None = 0,
) -> SoftErrorReport:
    """Flip random LUT plane bits; measure detection.

    ``detected_by_readback`` counts upsets visible by comparing plane
    memory against a pre-fault snapshot (always all of them — readback
    is exact); ``functionally_visible`` counts upsets that change at
    least one primary output over ``n_vectors`` random vectors in the
    context whose plane was hit.  Each upset draws its vectors in one
    call and checks them in one lane-word evaluation per side, as
    :meth:`~repro.core.fpga.MultiContextFPGA.verify_against_source`
    does.  The gap between the two counts is the silent-corruption
    window that FeRAM's upset immunity closes.
    The device is restored afterwards.
    """
    if device._program is None:
        raise SimulationError("device is not configured")
    rng = ensure_rng(seed)
    tiles = [c for c, ctx in device.contexts.items()]
    coords = sorted(
        {coord for ctx in device.contexts.values() for coord in ctx.lut_config},
        key=lambda c: (c.x, c.y),
    )
    if not coords:
        raise SimulationError("no configured tiles to upset")

    snapshot = {
        coord: device.logic_blocks[coord].lut.memory.copy() for coord in coords
    }
    detected = functional = 0
    flipped = 0
    try:
        for _ in range(n_upsets):
            coord = coords[int(rng.integers(len(coords)))]
            lb = device.logic_blocks[coord]
            ctx = int(rng.integers(device.params.n_contexts))
            if ctx not in device.contexts:
                ctx = tiles[int(rng.integers(len(tiles)))]
            bit = int(rng.integers(lb.lut.plane_bits))
            plane = lb.lut.plane_for_context(ctx)
            idx = plane * lb.lut.plane_bits + bit
            lb.lut.memory[0, idx] ^= 1
            flipped += 1
            # readback detection
            if not np.array_equal(lb.lut.memory, snapshot[coord]):
                detected += 1
            # functional visibility
            if ctx in device.contexts and _upset_visible(
                    device, ctx, rng, n_vectors):
                functional += 1
            # restore this upset before the next
            lb.lut.memory[:] = snapshot[coord]
    finally:
        for coord, mem in snapshot.items():
            device.logic_blocks[coord].lut.memory[:] = mem
    return SoftErrorReport(flipped, detected, functional, n_vectors)
