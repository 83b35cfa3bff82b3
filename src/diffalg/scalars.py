"""Exact scalar arithmetic: rationals, the combinatorial coefficients and
natural powers.

The coefficient field everywhere in this package is the rationals,
represented by the standard-library :class:`fractions.Fraction`, which is
always stored in lowest terms with a positive denominator.  Nothing in this
package ever rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction


def _check_natural(n: int, name: str) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"{name} must be an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"{name} must be non-negative, got {n}")
    return n


def binom(n: int, k: int) -> int:
    """Binomial coefficient in exact integers; 0 when k > n."""
    _check_natural(n, "n")
    _check_natural(k, "k")
    return math.comb(n, k)


def power(x, n: int, one):
    """x**n for a natural number n by square-and-multiply from x (one for
    n = 0): n.bit_length() - 1 squarings and a product per further set bit."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"exponent must be a natural number, got {n!r}")
    out = x
    for bit in bin(n)[3:]:
        out = out * out
        if bit == "1":
            out = out * x
    return out if n else one


def factorial(n: int) -> int:
    """n! in exact integers."""
    _check_natural(n, "n")
    return math.factorial(n)
