"""Multi-context multi-granularity LUT (MCMG-LUT) — paper Fig. 12.

An MCMG-LUT owns a fixed budget of memory bits and trades configuration
planes for LUT inputs: with ``B`` bits, ``base_inputs = k`` and
``n_contexts = n`` (so ``B = n * 2**k``), granularity setting ``e`` gives

- LUT inputs: ``k + e``
- distinct configuration planes: ``n >> e``

for ``0 <= e <= log2(n)``.  Fig. 12's example is ``k=4, n=4, B=64``:
a 4-input LUT with four planes or a 5-input LUT with two planes.

Plane selection uses the *low* ``log2(n) - e`` context-ID bits: with two
planes only ``S0`` is used, exactly as Fig. 12(b) shows.  The extra LUT
inputs take over the vacated address lines, so the plane/input trade is
pure addressing — no memory bit moves, matching "without changing the
number of memory bits, the size of an MCMG-LUT can be increased by
reducing its number of different configuration planes".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.bitops import clog2, is_pow2


@dataclass(frozen=True)
class MCMGGeometry:
    """Static geometry of an MCMG-LUT family."""

    base_inputs: int
    n_contexts: int
    n_outputs: int = 1

    def __post_init__(self) -> None:
        if self.base_inputs < 1:
            raise ConfigurationError(f"base_inputs must be >= 1, got {self.base_inputs}")
        if not is_pow2(self.n_contexts):
            raise ConfigurationError(
                f"n_contexts must be a power of two, got {self.n_contexts}"
            )
        if self.n_outputs < 1:
            raise ConfigurationError(f"n_outputs must be >= 1, got {self.n_outputs}")

    @property
    def max_extra_inputs(self) -> int:
        return clog2(self.n_contexts)

    @property
    def memory_bits_per_output(self) -> int:
        return self.n_contexts * (1 << self.base_inputs)

    @property
    def memory_bits(self) -> int:
        return self.n_outputs * self.memory_bits_per_output

    def inputs_at(self, granularity: int) -> int:
        self._check_gran(granularity)
        return self.base_inputs + granularity

    def planes_at(self, granularity: int) -> int:
        self._check_gran(granularity)
        return self.n_contexts >> granularity

    def _check_gran(self, granularity: int) -> None:
        if not 0 <= granularity <= self.max_extra_inputs:
            raise ConfigurationError(
                f"granularity {granularity} out of range [0, {self.max_extra_inputs}]"
            )


class MCMGLut:
    """One multi-context multi-granularity LUT instance.

    The memory is a flat array of ``n_contexts * 2**base_inputs`` bits per
    output, addressed as ``[plane_select_bits | input_bits]`` where the
    plane-select bits are the low context-ID bits remaining at the current
    granularity.
    """

    def __init__(self, geometry: MCMGGeometry, granularity: int = 0) -> None:
        self.geometry = geometry
        self.set_granularity(granularity)
        self.memory = np.zeros(
            (geometry.n_outputs, geometry.memory_bits_per_output), dtype=np.uint8
        )

    # -- geometry under the current granularity ------------------------- #
    @property
    def granularity(self) -> int:
        return self._granularity

    def set_granularity(self, granularity: int) -> None:
        """Reprogram the size controller (paper Fig. 14's per-LB control).

        The granularity is checked here, once; ``n_inputs``,
        ``n_planes`` and ``plane_bits`` (memory bits per configuration
        plane per output) are plain attributes derived from it.
        """
        geometry = self.geometry
        geometry._check_gran(granularity)
        self.n_inputs = geometry.base_inputs + granularity
        self.n_planes = geometry.n_contexts >> granularity
        self.plane_bits = 1 << self.n_inputs
        self._granularity = granularity

    # -- programming ----------------------------------------------------- #
    def load_plane(self, plane: int, truth_bits: np.ndarray, output: int = 0) -> None:
        """Load a truth table into one configuration plane.

        ``truth_bits[i]`` is the LUT output for input combination ``i``
        (``i`` packed LSB-first from the LUT inputs).
        """
        self._check_plane(plane)
        self._check_output(output)
        arr = np.asarray(truth_bits, dtype=np.uint8).ravel()
        if arr.size != self.plane_bits:
            raise ConfigurationError(
                f"plane needs {self.plane_bits} bits at granularity "
                f"{self.granularity}, got {arr.size}"
            )
        if arr.max(initial=0) > 1:
            raise ConfigurationError("truth bits must be 0/1")
        base = plane * self.plane_bits
        self.memory[output, base : base + self.plane_bits] = arr

    def load_function(self, plane: int, func, output: int = 0) -> None:
        """Load a python callable ``func(*bits) -> 0/1`` into a plane."""
        n = self.n_inputs
        bits = np.zeros(1 << n, dtype=np.uint8)
        for i in range(1 << n):
            bits[i] = 1 if func(*[(i >> j) & 1 for j in range(n)]) else 0
        self.load_plane(plane, bits, output)

    # -- evaluation ------------------------------------------------------ #
    def plane_for_context(self, ctx: int) -> int:
        """Plane selected in context ``ctx``: the low remaining ID bits.

        With 2 planes out of 4 contexts this is ``S0`` — Fig. 12(b).
        """
        if not 0 <= ctx < self.geometry.n_contexts:
            raise ConfigurationError(f"context {ctx} out of range")
        return ctx & (self.n_planes - 1)

    def evaluate(self, ctx: int, inputs: int, output: int = 0) -> int:
        """LUT output for packed ``inputs`` (bit j = input j) in ``ctx``."""
        self._check_output(output)
        if not 0 <= inputs < (1 << self.n_inputs):
            raise ConfigurationError(
                f"inputs {inputs:#x} out of range for {self.n_inputs}-input LUT"
            )
        plane = self.plane_for_context(ctx)
        return int(self.memory[output, plane * self.plane_bits + inputs])

    def evaluate_vector(self, ctx: int, inputs: np.ndarray, output: int = 0) -> np.ndarray:
        """Vectorized evaluate over an array of packed input words."""
        self._check_output(output)
        plane = self.plane_for_context(ctx)
        idx = np.asarray(inputs, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= (1 << self.n_inputs)):
            raise ConfigurationError("input word out of range")
        return self.memory[output, plane * self.plane_bits + idx]

    def truth_table(self, ctx: int, output: int = 0) -> np.ndarray:
        """The effective truth table seen in context ``ctx``."""
        plane = self.plane_for_context(ctx)
        base = plane * self.plane_bits
        return self.memory[output, base : base + self.plane_bits].copy()

    # -- analysis ---------------------------------------------------------#
    def distinct_planes(self, output: int = 0) -> int:
        """Number of distinct loaded planes — the redundancy measure that
        decides how many planes a mapping actually needs (Figs. 13-14)."""
        tables = {
            self.memory[output, p * self.plane_bits : (p + 1) * self.plane_bits].tobytes()
            for p in range(self.n_planes)
        }
        return len(tables)

    def _check_plane(self, plane: int) -> None:
        if not 0 <= plane < self.n_planes:
            raise ConfigurationError(
                f"plane {plane} out of range (granularity {self.granularity} "
                f"has {self.n_planes} planes)"
            )

    def _check_output(self, output: int) -> None:
        if not 0 <= output < self.geometry.n_outputs:
            raise ConfigurationError(f"output {output} out of range")


def equivalent_settings(geometry: MCMGGeometry) -> list[tuple[int, int, int]]:
    """All ``(granularity, n_inputs, n_planes)`` settings of a geometry.

    For Fig. 12's geometry (4-input base, 4 contexts):
    ``[(0, 4, 4), (1, 5, 2), (2, 6, 1)]``.
    """
    return [
        (e, geometry.inputs_at(e), geometry.planes_at(e))
        for e in range(geometry.max_extra_inputs + 1)
    ]
