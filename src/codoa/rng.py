"""Seeded random stream for deterministic optimizer runs."""

from __future__ import annotations

import numbers

import numpy as np

_BLOCK = 4096  # uniforms read ahead per call into the generator


class RandomStream:
    """Deterministic stream of uniform draws on [0, 1).

    A seed is any non-negative integer (numpy's too), used whole; a bool, a
    float or a string raises ``TypeError`` and a negative one numpy's
    ``ValueError``.  The same seed always reproduces the same sequence within
    this implementation; no bit-compatibility with other libraries or
    languages is promised.

    Values are read from the generator ahead of use, a block at a time, and
    served in order; because the generator spends one 64-bit word per
    double, the sequence is the one that drawing each value on demand gives.
    """

    def __init__(self, seed: int) -> None:
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise TypeError(f"seed must be an integer, got {seed!r}")
        self.seed = int(seed)
        self._gen = np.random.default_rng(self.seed)
        self._block = np.empty(0)
        self._at = 0

    def _refill(self, n: int) -> None:
        """Make the block its unread tail joined to enough fresh values for ``n``.

        At least ``_BLOCK`` values are read from the generator, and all of the
        new block is unread.  Blocks are replaced, never refilled in place, so
        arrays handed out keep their values.
        """
        tail = self._block[self._at :]
        self._block = np.concatenate((tail, self._gen.random(max(_BLOCK, n - len(tail)))))
        self._at = 0

    def next(self) -> float:
        """One uniform draw on [0, 1)."""
        at = self._at
        if at >= len(self._block):
            self._refill(1)
            at = 0
        self._at = at + 1
        return self._block.item(at)

    def draw(self, n: int) -> np.ndarray:
        """Vector of ``n`` uniform draws on [0, 1), consumed in order."""
        at = self._at
        end = at + n
        if not at <= end <= len(self._block):  # also catches n < 0
            if n < 0:
                raise ValueError(f"cannot draw a negative number of values, got {n}")
            self._refill(n)
            at, end = 0, n
        self._at = end
        return self._block[at:end]

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed})"
