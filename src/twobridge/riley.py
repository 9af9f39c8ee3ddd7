"""Riley polynomials and character points of 2-bridge knot groups.

The parabolic-free two-variable setup: g1 maps to C(t) = [[t,1],[0,1/t]]
and g2 to D(t,u) = [[t,0],[u,1/t]]. With W the epsilon-word in C and D,
built one letter at a time on its rows (C and D are sparse), phi(t,u) :=
W_11 + (1/t - t) W_12 vanishes exactly on the non-abelian part of the
character scheme. With l = -(lowest + highest t-exponent)/2, t^l * phi
is symmetric under t <-> 1/t, hence a polynomial Phi(x,u) in x = t + 1/t
by t^k + t^-k = V_k(x), where V_0 = 2, V_1 = x, V_k = x V_(k-1) - V_(k-2).
Replacing u by y - x^2 + 2 (with y the trace of g1 g2) gives the plane
model Psi(x,y), normalized monic in its y-leading coefficient.

W is built on packed integers (Kronecker substitution): each entry is
one int with the coefficient of t^i u^j in the S-bit slot
j (2L + 3) + i + L + 1, L = |w|, so t^(+-1) and u are shifts. S comes
from a coefficient bound read off the word: 64 bits for m < 91, 128 for
m < 183, 192 for m < 275. Only phi is decoded.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from operator import and_, lshift, or_

from .laurent import _poly_divmod, _poly_gcd_field
from .matrices import Mat2
from .padics import Zp, power, sqrt_mod_prime
from .presentations import TwoBridgePresentation
from .words import gen


def _add_into(out: dict, terms: dict, k: int = 1) -> dict:
    """out += k * terms in place (k != 0), dropping cancelled keys; returns out."""
    for key, c in terms.items():
        c = out.get(key, 0) + k * c
        if c:
            out[key] = c
        else:
            del out[key]
    return out


class BivariatePoly:
    """Integer polynomials in two commuting variables.

    The first variable may carry negative exponents (Laurent); the
    second is an ordinary polynomial variable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        clean = {}
        for (i, j), c in (terms or {}).items():
            if j < 0:
                raise ValueError("second-variable exponent must be >= 0")
            if c:
                clean[(i, j)] = c
        self.terms = clean

    @classmethod
    def _wrap(cls, terms: dict[tuple[int, int], int]) -> "BivariatePoly":
        """Adopt terms that are already clean (no zero coefficient, no
        negative second exponent) without copying them."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    # constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> "BivariatePoly":
        return cls({(0, 0): c})

    @classmethod
    def first_var(cls, e: int = 1) -> "BivariatePoly":
        return cls({(e, 0): 1})

    @classmethod
    def second_var(cls) -> "BivariatePoly":
        return cls({(0, 1): 1})

    # ring operations ----------------------------------------------------

    def _coerce(self, other):
        return BivariatePoly.constant(other) if isinstance(other, int) else other

    def __add__(self, other):
        other = self._coerce(other)
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return BivariatePoly._wrap(_add_into(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self):
        return BivariatePoly._wrap({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return BivariatePoly._wrap({k: c * other for k, c in self.terms.items()} if other else {})
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                c = out.get(k, 0) + c1 * c2
                if c:
                    out[k] = c
                else:
                    del out[k]
        return BivariatePoly._wrap(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined here")
        return power(self, k, BivariatePoly.constant(1))

    # structure ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        other = self._coerce(other) if isinstance(other, int) else other
        return isinstance(other, BivariatePoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def mirror_first(self) -> "BivariatePoly":
        """Substitute the first variable by its inverse."""
        return BivariatePoly._wrap({(-i, j): c for (i, j), c in self.terms.items()})

    def shift_first(self, l: int) -> "BivariatePoly":
        return BivariatePoly._wrap({(i + l, j): c for (i, j), c in self.terms.items()})

    def max_first(self) -> int:
        return max((i for i, _ in self.terms), default=0)

    def min_first(self) -> int:
        return min((i for i, _ in self.terms), default=0)

    def degree_second(self) -> int:
        return max((j for _, j in self.terms), default=0)

    def coeff_of_second(self, j: int) -> "BivariatePoly":
        return BivariatePoly._wrap({(i, 0): c for (i, jj), c in self.terms.items() if jj == j})

    def substitute_second(self, repl: "BivariatePoly") -> "BivariatePoly":
        """Replace the second variable by repl (given in the target vars),
        by Horner's rule: out = out * repl + column_j from the top j down.
        out * repl is one shifted, scaled copy of out per term of repl,
        each added in place into the first."""
        columns: dict[int, dict[tuple[int, int], int]] = {}
        for (i, j), c in self.terms.items():
            columns.setdefault(j, {})[(i, 0)] = c
        out: dict[tuple[int, int], int] = {}
        for j in range(self.degree_second(), -1, -1):
            prev, out = out, {}
            for (a, b), d in repl.terms.items():
                shifted = {(i + a, k + b): c * d for (i, k), c in prev.items()}
                out = _add_into(out, shifted) if out else shifted
            _add_into(out, columns.get(j, {}))
        return BivariatePoly._wrap(out)

    def derivative_second(self) -> "BivariatePoly":
        return BivariatePoly._wrap({(i, j - 1): c * j for (i, j), c in self.terms.items() if j > 0})

    def eval_modp(self, a: int, b: int, p: int) -> int:
        """Value at (first, second) = (a, b) in F_p; negative first powers
        need a to be a unit."""
        acc = 0
        inv = None
        for (i, j), c in self.terms.items():
            if i >= 0:
                fa = pow(a % p, i, p)
            else:
                if a % p == 0:
                    raise ValueError("negative exponent at a non-unit point")
                if inv is None:
                    inv = pow(a % p, -1, p)
                fa = pow(inv, -i, p)
            acc = (acc + c * fa * pow(b % p, j, p)) % p
        return acc

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        return [(i, j, c) for (i, j), c in sorted(self.terms.items())]

    def _term_str(self, i: int, j: int, c: int, names: tuple[str, str]) -> str:
        factors = []
        if abs(c) != 1 or (i == 0 and j == 0):
            factors.append(str(abs(c)))
        if i != 0:
            factors.append(names[0] if i == 1 else "%s^%d" % (names[0], i))
        if j != 0:
            factors.append(names[1] if j == 1 else "%s^%d" % (names[1], j))
        return "*".join(factors)

    def text(self, names: tuple[str, str] = ("x", "y")) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda ij: (-ij[1], -ij[0]))
        parts = []
        for i, j in keys:
            c = self.terms[(i, j)]
            op = "- " if c < 0 else "+ "
            parts.append(op + self._term_str(i, j, c, names))
        body = " ".join(parts)
        return body[2:] if body.startswith("+ ") else "-" + body[2:]

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return "BivariatePoly(%s)" % self.text()


class PackedRows:
    """W with each entry one signed int, in the layout of riley_word_matrix:
    length L = |w|, slot width S, entries (W_11, W_12, W_21, W_22)."""

    __slots__ = ("length", "slot", "entries")

    def __init__(self, length: int, slot: int, entries: tuple[int, int, int, int]):
        self.length, self.slot, self.entries = length, slot, entries

    def terms(self, v: int) -> dict[tuple[int, int], int]:
        """The nonzero coefficients of the packed entry v, by (i, j): with
        the bias 2^(S-1) in each slot, an XOR with the bias leaves each
        slot in two's complement, read by one struct.unpack (one repeat
        count, as struct caches every format) with only the top 64-bit
        word of a slot signed."""
        S, stride, low = self.slot, 2 * self.length + 3, self.length + 1
        w, n = S // 64, v.bit_length() // S + 2
        bias = ((1 << S * n) - 1) // ((1 << S) - 1) << (S - 1)
        words = struct.unpack("<%dq" % (w * n), ((v + bias) ^ bias).to_bytes(8 * w * n, "little"))
        coeffs = words[w - 1::w]
        for e in range(w - 2, -1, -1):
            coeffs = list(map(or_, map(lshift, coeffs, repeat(64)), map(and_, words[e::w], repeat(2**64 - 1))))
        return {(k % stride - low, k // stride): coeffs[k] for k in compress(range(n), coeffs)}

    def matrix(self) -> Mat2:
        return Mat2(*(BivariatePoly._wrap(self.terms(v)) for v in self.entries))


def _packed_rows(pres: TwoBridgePresentation) -> PackedRows:
    """W packed as in riley_word_matrix. Each letter updates both rows
    (a, b): C^s sends them to (a t^s, s a + b t^-s) and D^s to
    (a t^s + s b u, b t^-s)."""
    L = len(pres.w)
    na = nb = 1  # bounds on the 1-norms of a row's entries
    for g, _ in pres.w:
        if g == 1:
            nb += na
        else:
            na += nb
    S = -(-((3 * max(na, nb)).bit_length() + 1) // 64) * 64
    U = S * (2 * L + 3)
    rows = [[1 << S * (L + 1), 0], [0, 1 << S * (L + 1)]]
    for g, s in pres.w:
        for row in rows:
            a, b = row
            if g == 1:
                row[:] = (a << S, a + (b >> S)) if s == 1 else (a >> S, (b << S) - a)
            else:
                row[:] = ((a << S) + (b << U), b >> S) if s == 1 else ((a >> S) - (b << U), b << S)
    return PackedRows(L, S, (*rows[0], *rows[1]))


def riley_word_matrix(pres: TwoBridgePresentation) -> Mat2:
    """W = C^eps1 D^eps2 C^eps3 ... over Z[t^(+-1), u]: the image of w
    under g1 -> C, g2 -> D, built on packed rows and decoded.

    Layout: with L = |w|, the coefficient of t^i u^j is the S-bit slot
    j (2L + 3) + i + L + 1. W's t-exponents lie in -L..L, so the factor
    t^(+-1) of phi stays inside a u-row, and a right shift by S bits is
    exact. Bound: a letter C^s gives a row (a, b) 1-norms
    (|a|, <= |a| + |b|) and D^s (<= |a| + |b|, |b|), so they grow at
    most like Fibonacci numbers; S is the least multiple of 64 above
    the bits of 3 max(|a|, |b|) (phi adds a factor 3) plus a sign bit.
    """
    return _packed_rows(pres).matrix()


def _symmetrize(phi: BivariatePoly) -> tuple[int, BivariatePoly]:
    """The l with t^l * phi symmetric under t <-> 1/t (it spans -k..k in t,
    so l = -(lowest + highest)/2), and t^l * phi as a polynomial in
    x = t + 1/t with coefficients polynomial in u."""
    lo, hi = phi.min_first(), phi.max_first()
    l = -(lo + hi) // 2
    sym = phi.shift_first(l)
    if sym != sym.mirror_first():  # also when lo + hi is odd
        raise ValueError("no power of t symmetrizes phi; not a valid input")
    columns: dict[int, dict[tuple[int, int], int]] = {}
    for (i, j), c in sym.terms.items():
        if i >= 0:
            columns.setdefault(i, {})[(0, j)] = c
    out = BivariatePoly._wrap(columns.get(0, {}))
    v_prev, v = BivariatePoly.constant(2), BivariatePoly.first_var(1)  # V_(k-1), V_k
    for k in range(1, sym.max_first() + 1):
        if k in columns:
            out = out + v * BivariatePoly._wrap(columns[k])
        v_prev, v = v, v.shift_first(1) - v_prev
    return l, out


@dataclass(frozen=True)
class RileyData:
    """Riley polynomial of B(m,n) in all three coordinate systems."""

    m: int
    n: int
    rows: PackedRows = field(compare=False, repr=False)  # W, packed
    phi: BivariatePoly       # variables (t, u)
    l: int                   # t^l * phi = phi_xu(t + 1/t, u)
    phi_xu: BivariatePoly    # variables (x, u)
    sign: int                # psi = sign * phi_xu(x, y - x^2 + 2)
    psi: BivariatePoly       # variables (x, y), monic in y when possible

    @cached_property
    def W(self) -> Mat2:
        """The word matrix, decoded from rows on first use."""
        return self.rows.matrix()


def riley_polynomial(pres: TwoBridgePresentation) -> RileyData:
    rows = _packed_rows(pres)
    a, b = rows.entries[:2]
    S = rows.slot
    phi = BivariatePoly._wrap(rows.terms(a + (b >> S) - (b << S)))
    l, phi_xu = _symmetrize(phi)
    x = BivariatePoly.first_var(1)
    y = BivariatePoly.second_var()
    psi0 = phi_xu.substitute_second(y - x * x + 2)
    sign = -1 if psi0.coeff_of_second(psi0.degree_second()) == -1 else 1
    return RileyData(
        m=pres.m, n=pres.n, rows=rows, phi=phi, l=l, phi_xu=phi_xu, sign=sign, psi=psi0 * sign
    )


@dataclass(frozen=True)
class CharacterPoint:
    """A point (x, y) of the character scheme over F_p."""

    x: int
    y: int
    on_abelian_line: bool
    absolutely_irreducible: bool

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "on_abelian_line": self.on_abelian_line,
            "absolutely_irreducible": self.absolutely_irreducible,
        }


class _Residue:
    """An element of F_p[y]/(h) for a monic h of degree n >= 2: its n
    coefficients, constant first. mod is (p, low), low the n coefficients
    of h below y^n, shared by every element of the ring."""

    __slots__ = ("c", "mod")

    def __init__(self, c: list[int], mod: tuple[int, list[int]]):
        self.c = c
        self.mod = mod

    def __mul__(self, other: "_Residue") -> "_Residue":
        p, low = self.mod
        n = len(low)
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(self.c):
            if a:
                for k, b in enumerate(other.c, i):
                    prod[k] += a * b
        # fold from the top down: y^k = -y^(k-n) * (low . (1, y, ..., y^(n-1)))
        for k in range(2 * n - 2, n - 1, -1):
            a = prod[k] % p
            if a:
                for j, b in enumerate(low, k - n):
                    prod[j] -= a * b
        return _Residue([a % p for a in prod[:n]], self.mod)


def _residue_power(a: int, k: int, h: dict[int, int], p: int) -> dict[int, int]:
    """(y + a)^k mod h over F_p, for h monic of degree >= 2, as an
    exponent -> residue dict."""
    n = max(h)
    mod = (p, [h.get(e, 0) for e in range(n)])
    base = _Residue([a % p, 1] + [0] * (n - 2), mod)
    r = power(base, k, _Residue([1] + [0] * (n - 1), mod)).c
    return {e: c for e, c in enumerate(r) if c}


def _gcd_minus(h: dict[int, int], w: dict[int, int], c: int, p: int) -> dict[int, int]:
    """The monic gcd over F_p of h != 0 and w - c."""
    w = dict(w)
    w[0] = (w.get(0, 0) - c) % p
    return _poly_gcd_field(h, {e: v for e, v in w.items() if v}, p)


def _small_roots(h: dict[int, int], p: int) -> list[int]:
    """The distinct roots in F_p of a monic h of degree <= 2: none, -h_0,
    or the quadratic formula (-b +- sqrt(b^2 - 4c)) / 2."""
    top = max(h)
    if top == 0:
        return []
    if top == 1:
        return [-h.get(0, 0) % p]
    b, c = h.get(1, 0), h.get(0, 0)
    s = sqrt_mod_prime(b * b - 4 * c, p)
    if s is None:
        return []
    half = (p + 1) // 2  # 1/2 in F_p
    return sorted({(-b + s) * half % p, (-b - s) * half % p})


def _roots_modp(f: dict[int, int], p: int) -> list[int]:
    """The distinct roots in F_p of a nonzero f over F_p (exponent ->
    nonzero residue), p an odd prime, sorted.

    A power of y dividing f gives the root 0 and is divided out; f is
    then made monic, and degrees up to 2 are answered by _small_roots.
    Otherwise r = y^((p-1)/2) mod f is computed once: since
    y^p - y = y (y^((p-1)/2) - 1) (y^((p-1)/2) + 1) (Cantor-Zassenhaus),
    gcd(f, r - 1) is the product of (y - s) over the nonzero square
    roots s of f and gcd(f, r + 1) over the non-square ones. Each factor
    of degree >= 3 is split by gcd with (y + a)^((p-1)/2) - 1 for
    a = 1, 2, ...: the roots s with s + a a nonzero square. Two roots
    s1 != s2 of one factor have s1/s2 a square, and (s1 + a)/(s2 + a)
    runs over every non-residue as a runs over F_p minus {0, -s1, -s2},
    so some a < p splits.
    """
    low = min(f)
    roots = [0] if low else []
    top = max(f) - low
    inv = pow(f[top + low], -1, p)
    f = {e - low: c * inv % p for e, c in f.items()}
    if top <= 2:
        return sorted(roots + _small_roots(f, p))
    half = (p - 1) // 2
    r = _residue_power(0, half, f, p)
    todo = [_gcd_minus(f, r, 1, p), _gcd_minus(f, r, -1, p)]
    while todo:
        h = todo.pop()
        if max(h) <= 2:
            roots += _small_roots(h, p)
            continue
        for a in range(1, p):
            s = _gcd_minus(h, _residue_power(a, half, h, p), 1, p)
            if 0 < max(s) < max(h):
                todo += [s, _poly_divmod(h, s, p)[0]]
                break
    return sorted(roots)


def char_points(pres: TwoBridgePresentation, p: int) -> list[CharacterPoint]:
    """All F_p-points of the character scheme (y - x^2 + 2) * Psi = 0,
    in (x, y) order.

    Psi's coefficients are reduced mod p once. For each x0, Psi(x0, y)
    is a polynomial in y over F_p whose roots _roots_modp finds with one
    half-power y^((p-1)/2) mod Psi(x0, y) and two gcds, so the cost is
    about linear in p; when Psi(x0, y) vanishes identically every y is a
    point. The abelian line contributes y = x0^2 - 2. A point is flagged
    absolutely irreducible iff Psi vanishes and the abelian-line factor
    does not.

    p must be an odd prime <= 10^4. The guard's message still speaks of
    an exhaustive scan; it is part of the CLI's pinned output.
    """
    Zp(p, 1)  # raises ValueError unless p is an odd prime
    if p > 10**4:
        raise ValueError("exhaustive scan guarded at p <= 10^4")
    columns: dict[int, list[tuple[int, int]]] = {}
    for (i, j), c in pres.riley.psi.terms.items():
        if c % p:
            columns.setdefault(j, []).append((i, c % p))
    points = []
    for x0 in range(p):
        line_base = (x0 * x0 - 2) % p  # abelian line: y = x^2 - 2
        f = {}
        for j, col in columns.items():
            v = sum(c * pow(x0, i, p) for i, c in col) % p
            if v:
                f[j] = v
        zeros = set(_roots_modp(f, p) if f else range(p))
        for y0 in sorted(zeros | {line_base}):
            on_line = y0 == line_base
            points.append(
                CharacterPoint(
                    x=x0,
                    y=y0,
                    on_abelian_line=on_line,
                    absolutely_irreducible=(y0 in zeros and not on_line),
                )
            )
    return points


def discriminant(tr1, tr2, tr12):
    """Trace discriminant tr1^2+tr2^2+tr12^2 - tr1*tr2*tr12 - 4.

    Nonzero exactly when a representation with these traces is
    absolutely irreducible. Works over any ring with int coercion.
    """
    return tr1 * tr1 + tr2 * tr2 + tr12 * tr12 - tr1 * tr2 * tr12 - 4


def build_modp_rep(
    pres: TwoBridgePresentation, p: int, x0: int, y0: int
) -> tuple[Mat2, Mat2] | None:
    """A representation over F_p with character (x0, y0), if one exists
    with eigenvalue parameter in F_p itself.

    Returns (rho(g1), rho(g2)) as Mat2 over Zp(p,1), or None when
    t^2 - x0 t + 1 has no root mod p. The caller should confirm the
    relation, as relation_holds(pres, Representation(Zp(p, 1), {1: g1,
    2: g2})); for (x0, y0) on the Riley curve it holds.
    """
    ring = Zp(p, 1)
    root = sqrt_mod_prime(x0 * x0 - 4, p)
    if root is None:
        return None
    a = ((x0 + root) * pow(2, -1, p)) % p
    if a % p == 0:
        return None
    u0 = (y0 - x0 * x0 + 2) % p
    ainv = pow(a, -1, p)
    g1 = Mat2(ring(a), ring.one, ring.zero, ring(ainv))
    g2 = Mat2(ring(a), ring.zero, ring(u0), ring(ainv))
    return g1, g2


def relation_holds(pres: TwoBridgePresentation, rep) -> bool:
    """Check rho(w g1) == rho(g2 w), the relation w g1 w^-1 g2^-1 = e.

    rep is a deformations.Representation. Equal trace coordinates decide
    it at once; otherwise the matrix of their difference is built and
    tested for zero, since a reducible pair can give one matrix two
    coordinate vectors. The cache then holds both words for the next
    check on the same representation.
    """
    left, right = rep.coords(pres.w * gen(1)), rep.coords(gen(2) * pres.w)
    if left == right:
        return True
    diff = rep.matrix([u - v for u, v in zip(left, right)])
    return all(e.is_zero for e in (diff.a, diff.b, diff.c, diff.d))
