"""Two-generator one-relator presentations of 2-bridge knot groups.

B(m,n) with m, n odd, -m < n < m, gcd(m,n) = 1 yields the group
<g1, g2 | w g1 w^-1 g2^-1> where w alternates g1 and g2 with exponents
given by the epsilon sequence.
"""

from __future__ import annotations

import math
from functools import cached_property

from .groupring import fox_derivative
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


class TwoBridgePresentation:
    """<g1, g2 | relator> with relator = w g1 w^-1 g2^-1. Immutable; the
    cached properties below live in its __dict__."""

    def __init__(self, m: int, n: int, epsilon: tuple[int, ...], w: FreeWord, relator: FreeWord) -> None:
        self.__dict__.update(m=m, n=n, epsilon=epsilon, w=w, relator=relator)

    def __setattr__(self, *_):
        raise AttributeError("TwoBridgePresentation is immutable")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return self.m, self.n, self.epsilon, self.w, self.relator

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    @cached_property
    def fox_w(self) -> tuple[dict[FreeWord, int], dict[FreeWord, int]]:
        """(dw/dg1, dw/dg2), computed once per presentation on first use."""
        return fox_derivative(self.w, 1), fox_derivative(self.w, 2)

    @cached_property
    def fox(self) -> tuple[dict[FreeWord, int], dict[FreeWord, int]]:
        """(dr/dg1, dr/dg2) = (1 - w g1 w^-1) dw/dg_i + [i=1] w - [i=2] r in
        Z[F_2], computed once. w g1 w^-1 times a prefix of w of length k is
        the prefix of r of length 2|w| + 1 - k, as r is reduced as written;
        the three parts share no word, since w ends in a g2 letter."""
        r, top = self.relator, 2 * len(self.w) + 1
        return tuple(
            {**d, **{r.prefix(top - len(u)): -c for u, c in d.items()}, **extra}
            for d, extra in zip(self.fox_w, ({self.w: 1}, {r: -1}))
        )

    @cached_property
    def riley(self):
        """The Riley polynomial data (riley.RileyData), computed on first use."""
        from . import riley  # riley builds on this module

        return riley.riley_polynomial(self)

    def __str__(self) -> str:
        return "<g1, g2 | %s> (B(%d,%d))" % (self.relator, self.m, self.n)


def two_bridge(m: int, n: int) -> TwoBridgePresentation:
    """Build the presentation of the 2-bridge knot group of B(m,n)."""
    eps = epsilon_sequence(m, n)
    # neighbouring letters use different generators, so none cancel
    w = FreeWord((1 if i % 2 == 1 else 2, e) for i, e in enumerate(eps, start=1))
    relator = w * gen(1) * w.inverse() * gen(2, -1)
    return TwoBridgePresentation(m=m, n=n, epsilon=eps, w=w, relator=relator)
