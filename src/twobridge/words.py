"""Reduced words in a finitely generated free group.

A word is a reduced sequence of letters (i, s) where i >= 1 indexes a
generator and s is +1 or -1. Multiplication concatenates and cancels
adjacent inverse letters; the empty word is the identity. Words are
immutable and hashable so they can serve as dict keys.

Text form: generators print as g1, g2, ... with caret exponents,
e.g. "g1 g2^-1 g1^2"; the identity prints as "e".
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

Letter = tuple[int, int]

# the fox subcommand is quadratic in the word's length; at this cap it
# takes about 2 s on a Xeon core (CPython 3.11)
MAX_WORD_LETTERS = 4000

_TOKEN = re.compile(r"^g([1-9][0-9]*)(?:\^(-?[1-9][0-9]*))?$")


def _reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for gen, sign in letters:
        if gen < 1:
            raise ValueError("generator index must be >= 1, got %r" % (gen,))
        if sign not in (1, -1):
            raise ValueError("letter sign must be +1 or -1, got %r" % (sign,))
        if stack and stack[-1][0] == gen and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((gen, sign))
    return tuple(stack)


class FreeWord:
    """An element of the free group, kept in reduced form."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        object.__setattr__(self, "letters", _reduce(letters))

    def __setattr__(self, name, value):
        raise AttributeError("FreeWord is immutable")

    # group operations ------------------------------------------------

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if not isinstance(other, FreeWord):
            return NotImplemented
        return FreeWord(self.letters + other.letters)

    def prefix(self, k: int) -> "FreeWord":
        """The first k letters, not reduced again: a prefix of a reduced word is reduced."""
        w = object.__new__(FreeWord)
        object.__setattr__(w, "letters", self.letters[:k])
        return w

    def suffix(self, k: int) -> "FreeWord":
        """The last k letters, not reduced again: a suffix of a reduced word is reduced."""
        w = object.__new__(FreeWord)
        object.__setattr__(w, "letters", self.letters[len(self.letters) - k :])
        return w

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((g, -s) for g, s in reversed(self.letters)))

    def __pow__(self, k: int) -> "FreeWord":
        if k == 0:
            return FreeWord()
        base = self if k > 0 else self.inverse()
        out = FreeWord()
        for _ in range(abs(k)):
            out = out * base
        return out

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def abelianize(self, num_gens: int | None = None) -> tuple[int, ...]:
        """Total exponent sum per generator, as a tuple g1..gk."""
        k = num_gens if num_gens is not None else max((g for g, _ in self.letters), default=0)
        sums = [0] * k
        for g, s in self.letters:
            if g > k:
                raise ValueError("word uses g%d but num_gens=%d" % (g, k))
            sums[g - 1] += s
        return tuple(sums)

    def exponent_sum(self) -> int:
        """Sum of all letter signs (image under g_i -> t for every i)."""
        return sum(s for _, s in self.letters)

    # structure --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeWord) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    # text and JSON forms ----------------------------------------------

    def runs(self) -> list[list[int]]:
        """Run-length form [[gen, exponent], ...] with merged exponents."""
        out: list[list[int]] = []
        for g, s in self.letters:
            if out and out[-1][0] == g:
                out[-1][1] += s
            else:
                out.append([g, s])
        return out

    @classmethod
    def from_runs(cls, runs: Iterable[Iterable[int]]) -> "FreeWord":
        letters: list[Letter] = []
        for g, e in runs:
            sign = 1 if e > 0 else -1
            letters.extend((g, sign) for _ in range(abs(e)))
        return cls(letters)

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        parts = []
        for g, e in self.runs():
            parts.append("g%d" % g if e == 1 else "g%d^%d" % (g, e))
        return " ".join(parts)

    def __repr__(self) -> str:
        return "FreeWord(%s)" % str(self)


def gen(i: int, e: int = 1) -> FreeWord:
    """The word g_i^e."""
    return FreeWord.from_runs([(i, e)]) if e else FreeWord()


def parse_word(text: str) -> FreeWord:
    """Parse "g1 g2^-1 g1^2" notation; "e" or "" is the identity. At most
    MAX_WORD_LETTERS letters, counted before any cancels."""
    text = text.strip()
    if text in ("", "e", "1"):
        return FreeWord()
    runs = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise ValueError("cannot parse word token %r" % token)
        g = int(m.group(1))
        e = int(m.group(2)) if m.group(2) else 1
        runs.append((g, e))
    letters = sum(abs(e) for _, e in runs)
    if letters > MAX_WORD_LETTERS:
        raise ValueError("word has %d letters, at most %d allowed" % (letters, MAX_WORD_LETTERS))
    return FreeWord.from_runs(runs)


def reduced_words(max_len: int) -> list[FreeWord]:
    """All nonempty reduced words of length <= max_len in g1, g2,
    shortest first; each length extends the previous one's words, in
    order, by g1, g1^-1, g2, g2^-1."""
    words = []
    frontier = [FreeWord()]
    letters = [gen(1), gen(1, -1), gen(2), gen(2, -1)]
    for _ in range(max_len):
        nxt = [v for w in frontier for v in (w * x for x in letters) if len(v) > len(w)]
        words.extend(nxt)
        frontier = nxt
    return words
