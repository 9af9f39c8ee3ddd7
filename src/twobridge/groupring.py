"""Fox's free differential calculus on the integer group ring of a free group.

An element of Z[F] is a dict {word: coefficient} of reduced words with
no zero coefficients; the empty dict is 0. The Fox derivative with
respect to g_i is the unique additive map with d(g_j)/d(g_i) = delta_ij * e
and d(uv)/d(g_i) = du/d(g_i) + u * dv/d(g_i), which forces
d(g_i^-1)/d(g_i) = -g_i^-1.
"""

from __future__ import annotations

from collections import Counter

from .words import FreeWord, gen


def fox_derivative(word: FreeWord, i: int) -> dict[FreeWord, int]:
    """Fox derivative d(word)/d(g_i), read off the prefixes of the word.

    A positive letter g_i after the prefix P contributes +P; a negative
    letter g_i^-1 contributes -(P g_i^-1), which is the next prefix.
    Prefixes of a reduced word are reduced and pairwise distinct, so
    every coefficient is +1 or -1.
    """
    if i < 1:
        raise ValueError("generator index must be >= 1")
    return {word.prefix(k if s == 1 else k + 1): s for k, (g, s) in enumerate(word) if g == i}


def fundamental_identity_defect(word: FreeWord, num_gens: int) -> dict[FreeWord, int]:
    """sum_i d(word)/d(g_i) * (g_i - e) - (word - e); {} for every word."""
    total = Counter({FreeWord(): 1})
    total[word] -= 1
    for i in range(1, num_gens + 1):
        for u, c in fox_derivative(word, i).items():
            total[u * gen(i)] += c
            total[u] -= c
    return {w: c for w, c in total.items() if c}
