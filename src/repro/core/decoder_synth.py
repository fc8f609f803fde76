"""Decoder synthesis: realizing context patterns from switch elements.

Paper Section 3 / Fig. 9: a configuration bit whose context pattern is
CONSTANT or LITERAL costs a single SE; a GENERAL pattern is built from a
pass-gate multiplexer tree over context-ID bits.  Fig. 9 shows the
pattern ``(C3,C2,C1,C0) = (1,0,0,0)`` built from **four** SEs: two SEs
form the 2:1 mux selected by ``S1``/``~S1`` and two SEs inject the leaf
values (constant 0 and the ``S0`` line) onto RCM tracks.

This module provides:

- :func:`decoder_cost` — the minimal number of SEs to generate a pattern
  in isolation (memoized Shannon recursion; reproduces Fig. 9's count of
  4 for any 2-ID-bit GENERAL pattern and generalizes to any ``2**k``
  contexts),
- :class:`DecoderBank` — synthesis of *many* patterns into one RCM block
  with hash-consing, so identical patterns and shared subfunctions/leaves
  are built once (the paper's "redundancy between configuration data of
  different switches", e.g. Table 1's G2 == G4),
- structural realization onto an :class:`~repro.core.rcm.RCMBlock`,
  verified electrically by the RCM fixpoint solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.core.patterns import ContextPattern, PatternClass, classify_mask
from repro.errors import SynthesisError
from repro.utils.bitops import clog2

if TYPE_CHECKING:
    from repro.core.rcm import RCMBlock


def _cofactor_masks(mask_value: int, j: int, n_contexts: int) -> tuple[int, int]:
    """Full-space cofactors of a pattern w.r.t. ID bit ``S_j``.

    The returned masks are patterns over the same ``n_contexts`` whose
    value no longer depends on ``S_j`` (value of ``f`` with ``S_j`` forced
    to 0 resp. 1 substituted at every context).
    """
    f0 = 0
    f1 = 0
    for c in range(n_contexts):
        v0 = (mask_value >> (c & ~(1 << j))) & 1
        v1 = (mask_value >> (c | (1 << j))) & 1
        f0 |= v0 << c
        f1 |= v1 << c
    return f0, f1


@lru_cache(maxsize=None)
def decoder_cost(mask_value: int, n_contexts: int) -> int:
    """Minimal SE count to generate pattern ``mask_value`` in isolation.

    CONSTANT/LITERAL cost 1 (the injection SE — which, when the pattern
    configures a routing switch, *is* the switch).  GENERAL patterns cost
    ``2 + cost(f0) + cost(f1)`` minimized over the Shannon split bit.
    For 4 contexts every GENERAL pattern costs exactly 4 (Fig. 9).
    """
    cls = classify_mask(mask_value, n_contexts)
    if cls in (PatternClass.CONSTANT, PatternClass.LITERAL):
        return 1
    k = clog2(n_contexts)
    best = None
    for j in range(k):
        f0, f1 = _cofactor_masks(mask_value, j, n_contexts)
        if f0 == mask_value and f1 == mask_value:
            continue  # does not depend on this bit
        cost = 2 + decoder_cost(f0, n_contexts) + decoder_cost(f1, n_contexts)
        if best is None or cost < best:
            best = cost
    if best is None:  # unreachable: GENERAL implies dependence on >= 2 bits
        raise SynthesisError(f"no Shannon split found for mask {mask_value:#x}")
    return best


def best_split_bit(mask_value: int, n_contexts: int) -> int:
    """The Shannon split bit achieving :func:`decoder_cost`."""
    k = clog2(n_contexts)
    best_j, best_cost = None, None
    for j in range(k):
        f0, f1 = _cofactor_masks(mask_value, j, n_contexts)
        if f0 == mask_value and f1 == mask_value:
            continue
        cost = 2 + decoder_cost(f0, n_contexts) + decoder_cost(f1, n_contexts)
        if best_cost is None or cost < best_cost:
            best_j, best_cost = j, cost
    if best_j is None:
        raise SynthesisError(f"no split bit for mask {mask_value:#x}")
    return best_j


@dataclass
class SynthesizedDecoder:
    """Outcome of synthesizing one pattern into a bank."""

    pattern: ContextPattern
    output_net: int
    marginal_ses: int
    shared: bool


@dataclass
class BankStats:
    """Aggregate statistics of a decoder bank."""

    n_requests: int = 0
    n_distinct: int = 0
    total_ses: int = 0
    per_class_requests: dict[PatternClass, int] = field(
        default_factory=lambda: {c: 0 for c in PatternClass}
    )

    @property
    def sharing_factor(self) -> float:
        """Average number of configuration bits served per distinct decoder."""
        if self.n_distinct == 0:
            return 0.0
        return self.n_requests / self.n_distinct


class DecoderBank:
    """Synthesize a set of context patterns into one RCM block.

    The bank hash-conses on the pattern mask: requesting the same pattern
    twice returns the existing output net at zero marginal SE cost.  Leaf
    injections (rails, ID literals) and intermediate subfunctions are
    shared the same way, modelling the paper's observation that config
    data of different switches is often identical (Table 1, G2/G4).

    Parameters
    ----------
    block:
        Target RCM block; a fresh unbounded block is created when omitted.
    share:
        When False every request is synthesized from scratch (the
        isolated-decoder cost of Fig. 9) — used by the sharing ablation.
    """

    def __init__(
        self,
        n_contexts: int = 4,
        block: RCMBlock | None = None,
        share: bool = True,
    ) -> None:
        # The RCM model loads with the first bank: the request path
        # imports this module only for :func:`decoder_cost`.
        from repro.core.rcm import RCMBlock
        from repro.utils.bitops import is_pow2

        if not is_pow2(n_contexts):
            raise SynthesisError(f"n_contexts must be a power of two, got {n_contexts}")
        self.n_contexts = n_contexts
        self.k = clog2(n_contexts)
        self.block = block if block is not None else RCMBlock(n_id_bits=self.k)
        if self.block.n_id_bits != self.k:
            raise SynthesisError(
                f"block has {self.block.n_id_bits} ID bits, need {self.k}"
            )
        self.share = share
        self._net_cache: dict[int, int] = {}
        self.stats = BankStats()
        self.decoders: list[SynthesizedDecoder] = []

    # ------------------------------------------------------------------ #
    def request(self, pattern: ContextPattern) -> SynthesizedDecoder:
        """Synthesize (or reuse) a decoder for ``pattern``.

        Returns the output net carrying the configuration bit; sweeping
        the block over all contexts reproduces the pattern exactly.
        """
        if pattern.n_contexts != self.n_contexts:
            raise SynthesisError(
                f"pattern has {pattern.n_contexts} contexts, bank expects {self.n_contexts}"
            )
        before = self.block.se_count()
        shared = self.share and pattern.mask in self._net_cache
        net = self._realize(pattern.mask)
        marginal = self.block.se_count() - before

        self.stats.n_requests += 1
        self.stats.per_class_requests[pattern.classify()] += 1
        if not shared:
            self.stats.n_distinct += 1
        self.stats.total_ses = self.block.se_count()

        result = SynthesizedDecoder(pattern, net, marginal, shared)
        self.decoders.append(result)
        return result

    # ------------------------------------------------------------------ #
    def _realize(self, mask_value: int) -> int:
        if self.share and mask_value in self._net_cache:
            return self._net_cache[mask_value]

        cls = classify_mask(mask_value, self.n_contexts)
        if cls == PatternClass.CONSTANT:
            value = 1 if mask_value else 0
            net = self._inject(self.block.rail(value), f"const{value}_{len(self.block.ses)}")
        elif cls == PatternClass.LITERAL:
            j, inverted = ContextPattern(mask_value, self.n_contexts).literal_form()
            src = self.block.id_net(j, inverted)
            net = self._inject_follow(src, f"lit_{len(self.block.ses)}")
        else:
            from repro.core.switch_element import SEConfig

            j = best_split_bit(mask_value, self.n_contexts)
            f0, f1 = _cofactor_masks(mask_value, j, self.n_contexts)
            net0 = self._realize(f0)
            net1 = self._realize(f1)
            net = self.block.new_net(f"mux_{mask_value:x}_{len(self.block.ses)}")
            # Branch pass-gates: exactly one conducts in any context.
            self.block.add_se(a=net1, b=net, u=self.block.id_net(j, False), config=SEConfig.follow_input())
            self.block.add_se(a=net0, b=net, u=self.block.id_net(j, True), config=SEConfig.follow_input())
        if self.share:
            self._net_cache[mask_value] = net
        return net

    def _inject(self, src_net: int, name: str) -> int:
        """Always-on injection SE copying ``src_net`` onto a fresh track."""
        from repro.core.switch_element import SEConfig

        net = self.block.new_net(name)
        self.block.add_se(a=src_net, b=net, u=None, config=SEConfig.constant(1))
        return net

    def _inject_follow(self, src_net: int, name: str) -> int:
        """Injection SE for a literal: gate follows the ID line itself.

        Electrically we pass the ID-line value through an always-on gate;
        charging one SE matches Fig. 9's accounting (a LITERAL decoder is
        one SE whose variable input U is wired to the ID line).
        """
        from repro.core.switch_element import SEConfig

        net = self.block.new_net(name)
        self.block.add_se(a=src_net, b=net, u=src_net, config=SEConfig.constant(1))
        return net

    # ------------------------------------------------------------------ #
    def verify(self) -> None:
        """Check every synthesized decoder against its pattern, electrically.

        Raises :class:`~repro.errors.SynthesisError` on any mismatch.
        """
        for ctx in range(self.n_contexts):
            evaluation = self.block.evaluate(context=ctx)
            for dec in self.decoders:
                got = evaluation.value(dec.output_net)
                want = dec.pattern.value(ctx)
                if got != want:
                    raise SynthesisError(
                        f"decoder for {dec.pattern} produced {got} in context "
                        f"{ctx}, expected {want}"
                    )


def synthesize_single(pattern: ContextPattern) -> tuple[RCMBlock, int, int]:
    """Synthesize one pattern in isolation (Fig. 9 setting).

    Returns ``(block, output_net, se_count)``; for any 4-context GENERAL
    pattern ``se_count == 4``.
    """
    bank = DecoderBank(pattern.n_contexts, share=True)
    dec = bank.request(pattern)
    bank.verify()
    return bank.block, dec.output_net, bank.block.se_count()


def isolated_cost_table(n_contexts: int = 4) -> dict[int, int]:
    """Map each pattern mask to its isolated decoder cost in SEs.

    For 4 contexts: ``{0b0000: 1, ..., 0b1000: 4, ...}`` — the data behind
    Figs. 3-5's hardware column.
    """
    return {m: decoder_cost(m, n_contexts) for m in range(1 << n_contexts)}
