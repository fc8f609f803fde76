"""Adaptive multi-context logic block (paper Section 4, Figs. 12-14).

A logic block (LB) contains one MCMG-LUT plus a *size controller* that
selects the LUT's granularity (inputs vs. configuration planes).  The
paper contrasts two control styles:

- **global** (Fig. 13): one control signal ``J`` programs every LB in the
  device to the same granularity.  Redundant configuration data gets
  stored when a node's function repeats across contexts (LUT3's two
  identical planes for O3).
- **local** (Fig. 14): each LB has its own controller, built from RCM so
  it costs area only where granularities actually differ.  Nodes shared
  between contexts collapse to a single plane, and the freed memory
  becomes extra LUT inputs — the paper maps its example DFG with 2 local
  LBs vs. 3 global LBs.

The block here is behavioral: it evaluates like hardware would, exposes
the per-LB plane statistics the area model consumes, and can synthesize
its own size-controller bits onto an :class:`~repro.core.rcm.RCMBlock`.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.core.decoder_synth import DecoderBank
from repro.core.mcmg_lut import MCMGGeometry, MCMGLut
from repro.core.patterns import ContextPattern
from repro.errors import ConfigurationError
from repro.utils.bitops import clog2


class SizeControl(enum.Enum):
    """Who drives the MCMG-LUT granularity setting."""

    GLOBAL = "global"
    LOCAL = "local"


class AdaptiveLogicBlock:
    """One LB: MCMG-LUT + (local) size controller.

    Parameters
    ----------
    geometry:
        The MCMG-LUT family (e.g. the evaluation section's 6-input
        2-output, 4 contexts).
    control:
        GLOBAL blocks take their granularity from the device-wide signal;
        LOCAL blocks keep their own programmed granularity.
    """

    def __init__(
        self,
        geometry: MCMGGeometry,
        control: SizeControl = SizeControl.LOCAL,
        name: str = "LB",
    ) -> None:
        self.geometry = geometry
        self.control = control
        self.name = name
        self.lut = MCMGLut(geometry, granularity=0)
        self._local_granularity = 0

    # -- size control ---------------------------------------------------- #
    def set_granularity(self, granularity: int, global_signal: bool = False) -> None:
        """Program the granularity.

        For GLOBAL control only calls with ``global_signal=True`` are
        legal (there is no per-LB controller to program).
        """
        if self.control is SizeControl.GLOBAL and not global_signal:
            raise ConfigurationError(
                f"{self.name}: globally controlled LB cannot be programmed locally"
            )
        self._local_granularity = granularity
        self.lut.set_granularity(granularity)

    @property
    def granularity(self) -> int:
        return self._local_granularity

    # -- programming ------------------------------------------------------#
    def load_plane(self, plane: int, truth_bits: np.ndarray, output: int = 0) -> None:
        self.lut.load_plane(plane, truth_bits, output)

    def load_function(self, plane: int, func, output: int = 0) -> None:
        self.lut.load_function(plane, func, output)

    # -- evaluation ---------------------------------------------------------#
    def evaluate(self, ctx: int, inputs: int, output: int = 0) -> int:
        return self.lut.evaluate(ctx, inputs, output)

    # -- statistics for the area model ------------------------------------ #
    def distinct_planes(self) -> int:
        return max(
            self.lut.distinct_planes(output=o)
            for o in range(self.geometry.n_outputs)
        )

    def needs_size_controller(self) -> bool:
        """A local controller is only *required* when the LB deviates from
        granularity 0 — the paper: "the RCM is used to form the controller
        that is only required when there are different configuration
        planes" (i.e. it costs nothing where unused)."""
        return self.control is SizeControl.LOCAL and self._local_granularity != 0

    def controller_patterns(self) -> list[ContextPattern]:
        """Context patterns of the size-controller select bits.

        The controller must present, in every context, the granularity
        bits to the LUT's address logic.  The granularity is static across
        contexts, so each bit is a CONSTANT pattern — which is exactly why
        building the controller from RCM is cheap (1 SE per bit).
        """
        n_ctx = self.geometry.n_contexts
        width = max(1, clog2(self.geometry.max_extra_inputs + 1))
        pats = []
        for b in range(width):
            bit = (self._local_granularity >> b) & 1
            pats.append(ContextPattern.constant(bit, n_ctx))
        return pats

    def synthesize_controller(self, bank: DecoderBank) -> int:
        """Realize the size controller onto an RCM decoder bank.

        Returns the number of marginal SEs consumed; 0 when this LB's
        patterns were already available in the bank (sharing).
        """
        total = 0
        for pat in self.controller_patterns():
            total += bank.request(pat).marginal_ses
        return total
