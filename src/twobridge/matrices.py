"""Small exact matrices: generic 2x2 over any ring, and integer
matrices mod p with Gaussian-elimination rank."""

from __future__ import annotations

from typing import Callable, Sequence


class Mat2:
    """2x2 matrix with duck-typed entries (any ring with + - *)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls, one, zero) -> "Mat2":
        return cls(one, zero, zero, one)

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __mul__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def trace(self):
        return self.a + self.d

    def det(self):
        return self.a * self.d - self.b * self.c

    def transpose(self) -> "Mat2":
        return Mat2(self.a, self.c, self.b, self.d)

    def sl2_inverse(self) -> "Mat2":
        """Inverse assuming det = 1 (adjugate)."""
        return Mat2(self.d, -self.b, -self.c, self.a)

    def map(self, fn: Callable) -> "Mat2":
        return Mat2(fn(self.a), fn(self.b), fn(self.c), fn(self.d))

    def rows(self) -> list[list]:
        return [[self.a, self.b], [self.c, self.d]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat2)
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __repr__(self) -> str:
        return "Mat2([[%s, %s], [%s, %s]])" % (self.a, self.b, self.c, self.d)


def word_matrix(assign: dict, word, one, zero) -> Mat2:
    """Image of a free word under a det-1 matrix assignment g_i -> Mat2.

    Negative letters use the adjugate, so every assigned matrix must
    have determinant 1.
    """
    out = Mat2.identity(one, zero)
    for g, s in word:
        m = assign[g]
        out = out * (m if s == 1 else m.sl2_inverse())
    return out


# --- integer matrices mod p (lists of lists) ----------------------------


def mat_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul_modp(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    n, k, m = len(A), len(B), len(B[0])
    assert len(A[0]) == k
    return [[sum(A[i][t] * B[t][j] for t in range(k)) % p for j in range(m)] for i in range(n)]


def mat_sub_modp(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    return [[(a - b) % p for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def rank_modp(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p by Gaussian elimination with exact inverses."""
    if not rows:
        return 0
    mat = [[x % p for x in row] for row in rows]
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if mat[r][col] % p != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(n_rows):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [(x - factor * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank

