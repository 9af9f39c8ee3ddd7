"""Two-generator one-relator presentations of 2-bridge knot groups.

B(m,n) with m, n odd, -m < n < m, gcd(m,n) = 1 yields the group
<g1, g2 | w g1 w^-1 g2^-1> where w alternates g1 and g2 with exponents
given by the epsilon sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .words import FreeWord, gen


def epsilon_sequence(m: int, n: int) -> tuple[int, ...]:
    """epsilon_i = (-1)^floor(i*n/m) for i = 1..m-1.

    Requires m, n odd, 0 < m, -m < n < m, gcd(m, n) = 1. The result is
    palindromic: epsilon_i = epsilon_{m-i}.
    """
    if m <= 0 or m % 2 == 0:
        raise ValueError("m must be a positive odd integer, got m=%r" % (m,))
    if n % 2 == 0 or not (-m < n < m) or n == 0:
        raise ValueError("n must be odd with -m < n < m, got n=%r" % (n,))
    if math.gcd(m, n) != 1:
        raise ValueError("m and n must be coprime, got (%d, %d)" % (m, n))
    # parity test, not (-1)**k: a negative int exponent would yield a float
    return tuple(-1 if ((i * n) // m) % 2 else 1 for i in range(1, m))


@dataclass(frozen=True)
class TwoBridgePresentation:
    """<g1, g2 | relator> with relator = w g1 w^-1 g2^-1."""

    m: int
    n: int
    epsilon: tuple[int, ...]
    w: FreeWord
    relator: FreeWord

    def __str__(self) -> str:
        return "<g1, g2 | %s> (B(%d,%d))" % (self.relator, self.m, self.n)


def two_bridge(m: int, n: int) -> TwoBridgePresentation:
    """Build the presentation of the 2-bridge knot group of B(m,n)."""
    eps = epsilon_sequence(m, n)
    w = FreeWord()
    for i, e in enumerate(eps, start=1):
        w = w * gen(1 if i % 2 == 1 else 2, e)
    relator = w * gen(1) * w.inverse() * gen(2, -1)
    return TwoBridgePresentation(m=m, n=n, epsilon=eps, w=w, relator=relator)
