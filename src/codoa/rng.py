"""Seeded random stream for deterministic optimizer runs."""

from __future__ import annotations

import numpy as np


class RandomStream:
    """Deterministic stream of uniform draws on [0, 1).

    A seed is any non-negative integer, used whole (a negative one raises
    numpy's ``ValueError``).  The same seed always reproduces the same
    sequence within this implementation; no bit-compatibility with other
    libraries or languages is promised.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._gen = np.random.default_rng(self.seed)

    def next(self) -> float:
        """One uniform draw on [0, 1)."""
        return float(self._gen.random())

    def draw(self, n: int) -> np.ndarray:
        """Vector of ``n`` uniform draws on [0, 1), consumed in order."""
        return self._gen.random(n)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed})"
