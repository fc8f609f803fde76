"""Truth tables: the functional payload of LUTs and DFG nodes.

A :class:`TruthTable` over ``n`` inputs stores its ``2**n`` output bits
as an int (entry ``i`` = output for packed input word ``i``, input ``j``
at bit ``j``).  NumPy conversions are provided for the MCMG-LUT loader.

Batched evaluation works on *lane words*: Python ints whose bit ``i``
is a net's value in vector ``i``.  :func:`lut_value` evaluates one LUT
over every lane at once; it is the one LUT primitive behind every
batched netlist and fabric walk (:meth:`Netlist.evaluate_lanes
<repro.netlist.netlist.Netlist.evaluate_lanes>`,
:meth:`MultiContextFPGA.evaluate_lanes
<repro.core.fpga.MultiContextFPGA.evaluate_lanes>`, cone tables in
technology mapping and signatures in sharing analysis).
:func:`projections` gives the lane words of exhaustive stimulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import SynthesisError
from repro.utils.bitops import mask as ones


@dataclass(frozen=True)
class TruthTable:
    """An ``n_inputs``-variable boolean function."""

    n_inputs: int
    bits: int

    def __post_init__(self) -> None:
        if self.n_inputs < 0:
            raise SynthesisError(f"n_inputs must be >= 0, got {self.n_inputs}")
        if self.n_inputs > 16:
            raise SynthesisError(
                f"truth tables limited to 16 inputs, got {self.n_inputs}"
            )
        if not 0 <= self.bits <= ones(1 << self.n_inputs):
            raise SynthesisError("truth-table bits out of range")

    # -- constructors ----------------------------------------------------- #
    @classmethod
    def from_function(cls, n_inputs: int, func) -> "TruthTable":
        """Build from ``func(*input_bits) -> truthy``.

        >>> TruthTable.from_function(2, lambda a, b: a and b).bits
        8
        """
        bits = 0
        for i in range(1 << n_inputs):
            if func(*[(i >> j) & 1 for j in range(n_inputs)]):
                bits |= 1 << i
        return cls(n_inputs, bits)

    @classmethod
    def constant(cls, value: int, n_inputs: int = 0) -> "TruthTable":
        if value not in (0, 1):
            raise SynthesisError(f"constant must be 0/1, got {value!r}")
        return cls(n_inputs, ones(1 << n_inputs) if value else 0)

    @classmethod
    def identity(cls) -> "TruthTable":
        """The 1-input buffer."""
        return cls(1, 0b10)

    @classmethod
    def inverter(cls) -> "TruthTable":
        return cls(1, 0b01)

    @classmethod
    def var(cls, index: int, n_inputs: int) -> "TruthTable":
        """Projection onto input ``index`` within an ``n_inputs`` table."""
        if not 0 <= index < n_inputs:
            raise SynthesisError(f"var index {index} out of range")
        bits = 0
        for i in range(1 << n_inputs):
            if (i >> index) & 1:
                bits |= 1 << i
        return cls(n_inputs, bits)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "TruthTable":
        a = np.asarray(arr).ravel()
        n = int(np.log2(a.size))
        if 1 << n != a.size:
            raise SynthesisError(f"array size {a.size} is not a power of two")
        return cls(n, pack_bits(a != 0))

    # -- evaluation --------------------------------------------------------#
    def evaluate(self, word: int) -> int:
        """Output for packed input ``word`` (input j at bit j)."""
        if not 0 <= word < (1 << self.n_inputs):
            raise SynthesisError(
                f"input word {word:#x} out of range for {self.n_inputs} inputs"
            )
        return (self.bits >> word) & 1

    def __call__(self, *input_bits: int) -> int:
        word = 0
        if len(input_bits) != self.n_inputs:
            raise SynthesisError(
                f"expected {self.n_inputs} inputs, got {len(input_bits)}"
            )
        for j, b in enumerate(input_bits):
            if b not in (0, 1):
                raise SynthesisError(f"input bits must be 0/1, got {b!r}")
            word |= b << j
        return self.evaluate(word)

    def to_array(self) -> np.ndarray:
        """Truth bits as a uint8 array of length ``2**n_inputs``."""
        size = 1 << self.n_inputs
        return np.unpackbits(
            np.frombuffer(self.bits.to_bytes((size + 7) // 8, "little"),
                          dtype=np.uint8),
            count=size, bitorder="little",
        )

    # -- structure ----------------------------------------------------------#
    def is_constant(self) -> bool:
        return self.bits == 0 or self.bits == ones(1 << self.n_inputs)

    def support(self) -> tuple[int, ...]:
        """Inputs the function actually depends on."""
        deps = []
        for j in range(self.n_inputs):
            for i in range(1 << self.n_inputs):
                if not (i >> j) & 1:
                    if self.evaluate(i) != self.evaluate(i | (1 << j)):
                        deps.append(j)
                        break
        return tuple(deps)

    def cofactor(self, index: int, value: int) -> "TruthTable":
        """Shannon cofactor w.r.t. input ``index`` (result has n-1 inputs)."""
        if not 0 <= index < self.n_inputs:
            raise SynthesisError(f"cofactor index {index} out of range")
        sub = 0
        pos = 0
        for i in range(1 << self.n_inputs):
            if (i >> index) & 1 == value:
                if self.evaluate(i):
                    sub |= 1 << pos
                pos += 1
        return TruthTable(self.n_inputs - 1, sub)

    def shrink_to_support(self) -> tuple["TruthTable", tuple[int, ...]]:
        """Drop unused inputs; returns (table, kept original indices)."""
        sup = self.support()
        if len(sup) == self.n_inputs:
            return self, tuple(range(self.n_inputs))
        bits = 0
        for i in range(1 << len(sup)):
            word = 0
            for pos, orig in enumerate(sup):
                if (i >> pos) & 1:
                    word |= 1 << orig
            if self.evaluate(word):
                bits |= 1 << i
        return TruthTable(len(sup), bits), sup

    # -- composition ----------------------------------------------------------#
    def compose(self, inputs: "list[TruthTable]") -> "TruthTable":
        """Substitute a table for each input; all substitutes must share
        one common input space."""
        if len(inputs) != self.n_inputs:
            raise SynthesisError(
                f"compose needs {self.n_inputs} substitutes, got {len(inputs)}"
            )
        if not inputs:
            return self
        m = inputs[0].n_inputs
        for t in inputs:
            if t.n_inputs != m:
                raise SynthesisError("compose substitutes must share an input space")
        bits = 0
        for word in range(1 << m):
            inner = 0
            for j, t in enumerate(inputs):
                inner |= t.evaluate(word) << j
            if self.evaluate(inner):
                bits |= 1 << word
        return TruthTable(m, bits)

    # -- boolean operators ------------------------------------------------- #
    def _binary(self, other: "TruthTable", op) -> "TruthTable":
        if self.n_inputs != other.n_inputs:
            raise SynthesisError("operand input counts differ")
        size = ones(1 << self.n_inputs)
        return TruthTable(self.n_inputs, op(self.bits, other.bits) & size)

    def __and__(self, other: "TruthTable") -> "TruthTable":
        return self._binary(other, lambda a, b: a & b)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        return self._binary(other, lambda a, b: a | b)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        return self._binary(other, lambda a, b: a ^ b)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.n_inputs, self.bits ^ ones(1 << self.n_inputs))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        width = 1 << self.n_inputs
        return f"TT{self.n_inputs}({self.bits:0{width}b})"


@lru_cache(maxsize=32)
def projections(k: int) -> tuple[int, tuple[int, ...]]:
    """All-ones mask and the ``k`` projection masks over ``2**k`` lanes.

    Bit ``w`` of projection ``j`` is bit ``j`` of ``w``: runs of
    ``2**j`` zeros then ``2**j`` ones, repeated.  As stimulus, lane
    ``w`` is input word ``w``, so a net's lane word over them is its
    truth table.  Each mask is one repeated byte pattern.

    >>> full, (x0, x1) = projections(2)
    >>> bin(full), bin(x0), bin(x1)
    ('0b1111', '0b1010', '0b1100')
    """
    size = 1 << k
    full = (1 << size) - 1
    n_bytes = (size + 7) // 8
    masks = []
    for j in range(k):
        if j < 3:
            period = (b"\xaa", b"\xcc", b"\xf0")[j]
        else:
            run = 1 << (j - 3)
            period = b"\x00" * run + b"\xff" * run
        masks.append(int.from_bytes(period * (n_bytes // len(period)),
                                    "little") & full)
    return full, tuple(masks)


def lut_value(bits: int, inputs: list[int], full: int) -> int:
    """A LUT's output lane word, given its table ``bits`` and its
    inputs' lane words (``full`` has a bit set per lane): a mux tree
    over the table bits, input ``j`` selecting at level ``j``.

    >>> full, (x0, x1) = projections(2)
    >>> lut_value(0b0110, [x0, x1], full) == x0 ^ x1
    True
    """
    level = [full if (bits >> w) & 1 else 0 for w in range(1 << len(inputs))]
    for sel in inputs:
        low = full ^ sel
        level = [
            a if a == b else (a & low) | (b & sel)
            for a, b in zip(level[::2], level[1::2])
        ]
    return level[0]


def pack_bits(bits: np.ndarray) -> int:
    """A 0/1 array as an int whose bit ``i`` is ``bits[i]``.

    >>> pack_bits(np.array([1, 0, 1, 1]))
    13
    """
    return int.from_bytes(
        np.packbits(bits, bitorder="little").tobytes(), "little")


def random_lanes(rng: np.random.Generator, lanes: int) -> int:
    """A lane word with each of its ``lanes`` bits drawn at random."""
    return int.from_bytes(rng.bytes((lanes + 7) // 8), "little") & (
        (1 << lanes) - 1)


def mux_table() -> TruthTable:
    """3-input mux: inputs (d0, d1, sel) -> sel ? d1 : d0."""
    return TruthTable.from_function(3, lambda d0, d1, s: d1 if s else d0)
