"""Deterministic RNG plumbing.

Every stochastic component in the library takes either a seed or an
existing :class:`numpy.random.Generator`; :func:`ensure_rng` normalizes
both into a Generator so experiments are reproducible end to end.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

RngLike = "int | np.random.Generator | None"


def ensure_rng(seed: "int | np.random.Generator | None") -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    - ``None`` → a fixed default seed (0) so library behaviour is
      deterministic unless the caller opts into their own entropy.
    - ``int`` → ``np.random.default_rng(seed)``.
    - an existing ``Generator`` → returned unchanged (shared state).
    """
    if seed is None:
        return np.random.default_rng(0)
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(f"seed must be None, int, or numpy Generator, got {type(seed)!r}")


def scalar_draws(
    rng: np.random.Generator,
) -> tuple[Callable[[int], int], Callable[[], float]]:
    """Fast draw-for-draw stand-ins for ``int(rng.integers(n))`` and
    ``rng.random()``.

    Both call the generator's own C functions through
    ``bit_generator.ctypes`` (about a quarter of the cost of a numpy
    scalar call), and ``integers`` repeats numpy's 32-bit Lemire
    rejection in Python.  Every value and the generator's state after
    each draw match numpy's, so callers may mix these with ordinary
    ``Generator`` methods on the same stream.  ``integers(1)`` draws
    nothing, as numpy does; ``n`` must lie in ``1 .. 2**32``.

    The ctypes calls bypass ``bit_generator.lock``: a caller that may
    share ``rng`` across threads must hold that lock while it draws, and
    release it before calling any ``Generator`` method, which takes the
    lock itself (a plain, non-reentrant ``Lock`` on older numpy
    releases).
    """
    bit_generator = rng.bit_generator
    iface = bit_generator.ctypes
    state = iface.state
    next_uint32 = iface.next_uint32
    next_double = iface.next_double

    def integers(n: int) -> int:
        if n == 1:
            return 0
        if not 1 < n <= 0x1_0000_0000:
            raise ValueError(f"bound {n} outside 1 .. 2**32")
        m = next_uint32(state) * n
        leftover = m & 0xFFFF_FFFF
        if leftover < n:
            threshold = 0x1_0000_0000 % n
            while leftover < threshold:
                m = next_uint32(state) * n
                leftover = m & 0xFFFF_FFFF
        return m >> 32

    def random() -> float:
        return next_double(state)

    # ``state`` is a raw pointer into the bit generator: keep it alive
    integers.bit_generator = random.bit_generator = bit_generator
    return integers, random


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``n`` independent child generators.

    Used when a driver fans work out to sub-components that must not
    perturb each other's streams (e.g. per-context circuit mutation).
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
