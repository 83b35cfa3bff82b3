"""Deterministic pseudo-random generation for the law harness.

All randomized checks in this package draw from SplitMix64, a 64-bit
generator with a published one-line state transition
(state += 0x9E3779B97F4A7C15, then a two-round xor-multiply finalizer).
The implementation is self-contained so that reports are reproducible on
any platform and any Python build, independent of ``random``'s internals.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Seeded 64-bit generator."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi].  The modulo bias is far below
        anything a law check could notice and keeps the stream portable."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]
