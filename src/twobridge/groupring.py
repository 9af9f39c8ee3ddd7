"""Integer group ring of a free group, and Fox's free differential calculus.

Elements are finite integer combinations of reduced words. The Fox
derivative with respect to g_i is the unique additive map with
d(g_j)/d(g_i) = delta_ij * e and d(uv)/d(g_i) = du/d(g_i) + u * dv/d(g_i),
which forces d(g_i^-1)/d(g_i) = -g_i^-1.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .words import FreeWord, gen


class GroupRingElement:
    """Finite integer combination of free-group words."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[FreeWord, int] | None = None):
        clean = {w: c for w, c in (coeffs or {}).items() if c != 0}
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElement is immutable")

    @classmethod
    def zero(cls) -> "GroupRingElement":
        return cls({})

    @classmethod
    def one(cls) -> "GroupRingElement":
        return cls({FreeWord(): 1})

    @classmethod
    def from_word(cls, w: FreeWord, c: int = 1) -> "GroupRingElement":
        return cls({w: c})

    # ring operations ----------------------------------------------------

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElement(out)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement({w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "GroupRingElement":
        if isinstance(other, int):
            return GroupRingElement({w: c * other for w, c in self.coeffs.items()})
        if isinstance(other, FreeWord):
            other = GroupRingElement.from_word(other)
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        out: dict[FreeWord, int] = {}
        for w1, c1 in self.coeffs.items():
            for w2, c2 in other.coeffs.items():
                w = w1 * w2
                out[w] = out.get(w, 0) + c1 * c2
        return GroupRingElement(out)

    def __rmul__(self, other) -> "GroupRingElement":
        if isinstance(other, int):
            return self * other
        if isinstance(other, FreeWord):
            return GroupRingElement.from_word(other) * self
        return NotImplemented

    # structure -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupRingElement) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self) -> Iterator[tuple[FreeWord, int]]:
        return iter(self.coeffs.items())

    def sorted_items(self) -> list[tuple[FreeWord, int]]:
        """Deterministic order: by word length, then by text form."""
        return sorted(self.coeffs.items(), key=lambda wc: (len(wc[0]), str(wc[0])))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for w, c in self.sorted_items():
            term = str(w) if abs(c) == 1 else "%d*(%s)" % (abs(c), w)
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return "GroupRingElement(%s)" % str(self)


def fox_derivative(word: FreeWord, i: int) -> GroupRingElement:
    """Fox derivative d(word)/d(g_i), read off the prefixes of the word.

    A positive letter g_i after the prefix P contributes +P; a negative
    letter g_i^-1 contributes -(P g_i^-1), which is the next prefix.
    Prefixes of a reduced word are reduced and pairwise distinct.
    """
    if i < 1:
        raise ValueError("generator index must be >= 1")
    out = {word.prefix(k if s == 1 else k + 1): s for k, (g, s) in enumerate(word) if g == i}
    return GroupRingElement(out)


def fundamental_identity_defect(word: FreeWord, num_gens: int) -> GroupRingElement:
    """sum_i d(word)/d(g_i) * (g_i - e) - (word - e); zero for every word."""
    total = GroupRingElement.zero()
    for i in range(1, num_gens + 1):
        gi = GroupRingElement.from_word(gen(i)) - GroupRingElement.one()
        total = total + fox_derivative(word, i) * gi
    rhs = GroupRingElement.from_word(word) - GroupRingElement.one()
    return total - rhs


def augmentation(elt: GroupRingElement) -> int:
    """Sum of coefficients (image of the map sending every word to 1)."""
    return sum(c for _, c in elt.items())
