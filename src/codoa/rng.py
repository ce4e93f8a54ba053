"""Seeded random stream for deterministic optimizer runs."""

from __future__ import annotations

import numpy as np

_BLOCK = 4096  # uniforms read ahead per call into the generator


class RandomStream:
    """Deterministic stream of uniform draws on [0, 1).

    A seed is any non-negative integer, used whole (a negative one raises
    numpy's ``ValueError``).  The same seed always reproduces the same
    sequence within this implementation; no bit-compatibility with other
    libraries or languages is promised.

    Values are read from the generator ahead of use, a block at a time, and
    served in order; because the generator spends one 64-bit word per
    double, the sequence is the one that drawing each value on demand gives.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._gen = np.random.default_rng(self.seed)
        self._block = np.empty(0)
        self._at = 0

    def _take(self, n: int) -> int:
        """Start of the next ``n`` unread values in the block, now marked read.

        When they run past the block's end, the unread tail is joined to a
        fresh block of at least ``_BLOCK`` values.  Blocks are replaced, never
        refilled in place, so arrays handed out keep their values.
        """
        at = self._at
        if at + n > len(self._block):
            tail = self._block[at:]
            self._block = np.concatenate((tail, self._gen.random(max(_BLOCK, n - len(tail)))))
            at = 0
        self._at = at + n
        return at

    def next(self) -> float:
        """One uniform draw on [0, 1)."""
        at = self._take(1)  # before reading self._block, which it may replace
        return float(self._block[at])

    def draw(self, n: int) -> np.ndarray:
        """Vector of ``n`` uniform draws on [0, 1), consumed in order."""
        if n < 0:
            raise ValueError(f"cannot draw a negative number of values, got {n}")
        at = self._take(n)
        return self._block[at : at + n]

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed})"
