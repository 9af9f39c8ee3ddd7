"""Riley polynomials and character points of 2-bridge knot groups.

The parabolic-free two-variable setup: g1 maps to C(t) = [[t,1],[0,1/t]]
and g2 to D(t,u) = [[t,0],[u,1/t]]. With W the epsilon-word in C and D,
phi(t,u) := W_11 + (1/t - t) W_12 vanishes exactly on the non-abelian
part of the character scheme; only the first row of W is built, one
letter at a time (C and D are sparse). With l = -(lowest + highest
t-exponent)/2, t^l * phi is symmetric under t <-> 1/t, hence a
polynomial Phi(x,u) in x = t + 1/t by t^k + t^-k = V_k(x), where
V_0 = 2, V_1 = x, V_k = x V_(k-1) - V_(k-2). Replacing u by
y - x^2 + 2 (with y the trace of g1 g2) gives the plane model Psi(x,y),
normalized monic in its y-leading coefficient.

The row is built on packed integers (Kronecker substitution): each
entry is one int. W_11 is even in t and W_12 odd, so each is packed in
t^2 with its parity as offset: the coefficient of t^i u^j sits in the
S-bit slot j (L + 1) + floor(i/2) + L/2, L = |w|, one slot per exponent
of that parity; t^(+-1) is no shift or a one-slot shift, u a shift by
a u-row. S comes from a coefficient bound read off the word: 64 bits
for m < 91, 128 for m < 183, 192 for m < 275, 256 for m < 367. phi is
formed packed and decoded. Both coordinate changes run packed as well,
in X = x^2, each in slots sized from a bound on its result read off its
decoded input; the even and the odd part of the input go apart, and a
Riley input has the even part alone: sum c_k V_k by Clenshaw's
recurrence in z = X - 2, where multiplying by z is a shift and a
subtraction, and u = y - X + 2 by Horner's rule, two shifts and three
adds per power of u. phi, phi_xu and psi are each decoded once.
"""

from __future__ import annotations

import struct
from bisect import insort
from itertools import compress, repeat
from operator import and_, lshift, or_
from typing import Iterator, NamedTuple

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
        return sum(c * pow(a, i, p) * pow(b, j, p) for (i, j), c in self.terms.items()) % p

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


def _slot(bound: int) -> int:
    """The least multiple of 64 bits that holds an integer of absolute
    value <= bound with a sign bit."""
    return -(-(bound.bit_length() + 1) // 64) * 64


def _first_row(pres: TwoBridgePresentation) -> tuple[int, int, int]:
    """The first row (W_11, W_12) of W = C^eps1 D^eps2 C^eps3 ... over
    Z[t^(+-1), u], the image of w under g1 -> C, g2 -> D, as two packed
    ints, with their slot width S. Each letter updates the row (a, b):
    C^s sends it to (a t^s, s a + b t^-s) and D^s to (a t^s + s b u,
    b t^-s).

    Parity: each letter multiplies an entry by t^(+-1), or adds to it the
    other entry times t^(-+1) or u, so after k letters a has t-parity
    k mod 2, b the other one, and both have t-exponents in -k..k. As w
    alternates g1 and g2 from g1, C meets an even a and D an odd one,
    and L = |w| = m - 1 is even, so W_11 is even and W_12 odd in t.

    Layout: t^e u^j sits in the S-bit slot j (L + 1) + floor(e/2) + L/2,
    one slot per exponent of the entry's parity. t leaves floor(e/2) as
    it is on an even entry and t^-1 on an odd one; the other way round
    it moves one slot. So C costs no shift by S bits, C^-1 two, D two
    and D^-1 none, and D^(+-1) one more, of b by a u-row. Margin:
    every entry, and every summand of an update, has t-exponents in
    -L..L, which are the slots 0..L of its u-row; so no one-slot shift
    leaves its u-row, and a right shift by S bits drops only empty
    slots and is exact. Bound: a letter C^s gives a row (a, b) 1-norms
    (|a|, <= |a| + |b|) and D^s (<= |a| + |b|, |b|), so they grow at
    most like Fibonacci numbers; S = _slot(3 max(|a|, |b|)), as phi
    adds a factor 3.
    """
    L = len(pres.w)
    na = nb = 1  # bounds on the 1-norms of a row's entries
    for g, _ in pres.w:
        if g == 1:
            nb += na
        else:
            na += nb
    S = _slot(3 * max(na, nb))
    U = S * (L + 1)
    a, b = 1 << S * (L // 2), 0
    for g, s in pres.w:
        if g == 1:  # a even, b odd
            a, b = (a, a + b) if s == 1 else (a >> S, (b << S) - a)
        else:  # a odd, b even
            a, b = ((a << S) + (b << U), b >> S) if s == 1 else (a - (b << U), b)
    return a, b, S


def _slots(v: int, S: int) -> Iterator[tuple[int, int]]:
    """The pairs (k, c), k rising, of the nonzero coefficients c of
    v = sum c 2^(S k) with |c| < 2^(S-1): with the bias 2^(S-1) in each
    slot, an XOR with the bias leaves each slot in two's complement,
    read by one struct.unpack (one repeat count, as struct caches every
    format) with only the top 64-bit word of a slot signed."""
    w, n = S // 64, v.bit_length() // S + 2
    bias = ((1 << S * n) - 1) // ((1 << S) - 1) << (S - 1)
    words = struct.unpack("<%dq" % (w * n), ((v + bias) ^ bias).to_bytes(8 * w * n, "little"))
    coeffs = words[w - 1::w]
    for e in range(w - 2, -1, -1):
        coeffs = list(map(or_, map(lshift, coeffs, repeat(64)), map(and_, words[e::w], repeat(2**64 - 1))))
    return zip(compress(range(n), coeffs), filter(None, coeffs))


def _unpack(v: int, L: int, S: int, odd: int = 0) -> dict[tuple[int, int], int]:
    """The nonzero coefficients, by (i, j), of an entry v of t-parity odd
    packed as in _first_row for a word of length L in S-bit slots."""
    stride, low = L + 1, L // 2
    return {(2 * (k % stride - low) + odd, k // stride): c for k, c in _slots(v, S)}


def _chebyshev(sym: BivariatePoly) -> tuple[dict[tuple[int, int], int], int]:
    """sym, symmetric under t <-> 1/t, as a polynomial in x = t + 1/t
    with coefficients polynomial in u: its nonzero coefficients by
    (x-exponent, u-exponent), and the slot width S used.

    With c_k(u) the coefficient of t^k (k >= 0), sym = c_0 + sum c_k V_k
    (V_0 = 2, V_1 = x, V_k = x V_(k-1) - V_(k-2)). The even and the odd
    k are summed apart, each in X = x^2 by z = X - 2 = t^2 + t^-2:
    V_2j(x) = V_j(z), and V_(2j+1)(x) = x O_j(z) with O_0 = 1,
    O_1 = z - 1, O_(j+1) = z O_j - O_(j-1). With e_j = c_2j, and then
    e_j = c_(2j+1), Clenshaw's recurrence b_j = e_j + z b_(j+1) - b_(j+2),
    j = J .. 1, gives e_0 + sum_(j >= 1) e_j V_j(z) = e_0 + z b_1 - 2 b_2
    and sum_(j >= 0) e_j O_j(z) = e_0 + (z - 1) b_1 - b_2. Each column
    is packed with u^j in the S-bit slot j, and X is a shift by one
    u-row of U slots (layout: X slow, u fast), so z b is a shift and a
    subtraction. A Riley input is even in t and runs the even part
    alone. Every step is exact on ints, so only the result must fit its
    slots: its coefficients are at most ||sym||_1 F_(K+2), as V_k
    (k >= 1) has 1-norm the Lucas number L_k <= F_(k+2).
    """
    K, U = sym.max_first(), sym.degree_second() + 1
    fib, nxt = 0, 1
    for _ in range(K + 2):
        fib, nxt = nxt, fib + nxt
    S = _slot(sum(map(abs, sym.terms.values())) * fib)
    columns = [0] * (K + 1)
    for (i, j), c in sym.terms.items():
        if i >= 0:
            columns[i] += c << S * j
    X = S * U
    out = {}
    for odd in (0, 1):
        part = columns[odd::2]
        if not any(part):
            continue
        b1 = b2 = 0
        for c in reversed(part[1:]):
            b1, b2 = c + (b1 << X) - 2 * b1 - b2, b1
        v = part[0] + (b1 << X) - (2 + odd) * b1 - (2 - odd) * b2
        out.update({(2 * (k // U) + odd, k % U): c for k, c in _slots(v, S)})
    return out, S


def _symmetrize(phi: BivariatePoly) -> tuple[int, BivariatePoly]:
    """The l with t^l * phi symmetric under t <-> 1/t (it spans -k..k in t,
    so l = -(lowest + highest)/2), and t^l * phi as a polynomial in
    x = t + 1/t with coefficients polynomial in u, by _chebyshev."""
    lo, hi = phi.min_first(), phi.max_first()
    l = -(lo + hi) // 2
    # t^i u^j mirrors to t^(-2l - i) u^j; also unmatched when lo + hi is odd
    if any(phi.terms.get((-2 * l - i, j)) != c for (i, j), c in phi.terms.items()):
        raise RuntimeError("no power of t symmetrizes phi; not a valid input")
    return l, BivariatePoly._wrap(_chebyshev(phi.shift_first(l) if l else phi)[0])


def _substitute_u(phi_xu: BivariatePoly, sign: int) -> tuple[dict[tuple[int, int], int], int]:
    """sign * phi_xu(x, y - x^2 + 2): its nonzero coefficients by
    (x-exponent, y-exponent), and the slot width S used.

    The even and the odd powers of x are substituted apart, each in
    X = x^2, as u = y - X + 2 keeps the parity: phi_xu = E(X, u) +
    x O(X, u). Each row, the coefficient of u^j, is packed with X^i in
    the S-bit slot i, and y is a shift by one X-row of
    R = max(floor(i/2) + j) + 1 slots over phi_xu's terms x^i u^j
    (layout: y slow, X fast). Horner's rule out <- out (y - X + 2) + row_j,
    from the top j down, is two shifts and three adds per power of u,
    and multiplying by X is a one-slot shift. Margin: out before the
    step for u^j has X-degree at most max(floor(i/2) + j' - j - 1) over
    the terms with j' > j, so out X stays below R, inside its y-row. A
    Riley input is even in x and runs the even part alone. Every step is
    exact on ints, so only the result must fit its slots: its
    coefficients are at most sum ||Phi_j||_1 4^j, with Phi_j the
    coefficient of u^j, as (y - x^2 + 2)^j has 1-norm 4^j.
    """
    top = phi_xu.degree_second()
    R = max((i // 2 + j for i, j in phi_xu.terms), default=0) + 1
    norms = [0] * (top + 1)
    for (_, j), c in phi_xu.terms.items():
        norms[j] += abs(c)
    S = _slot(sum(n << 2 * j for j, n in enumerate(norms)))
    parts = [[0] * (top + 1), [0] * (top + 1)]  # the rows of E and of O
    for (i, j), c in phi_xu.terms.items():
        parts[i & 1][j] += c << S * (i >> 1)
    Y = S * R
    out = {}
    for odd, rows in enumerate(parts):
        if not any(rows):
            continue
        v = 0
        for row in reversed(rows):
            v = (v << Y) - (v << S) + 2 * v + row
        out.update({(2 * (k % R) + odd, k // R): c for k, c in _slots(sign * v, S)})
    return out, S


class RileyData(NamedTuple):
    """Riley polynomial of B(m,n) in all three coordinate systems."""

    m: int
    n: int
    phi: BivariatePoly       # variables (t, u)
    l: int                   # t^l * phi = phi_xu(t + 1/t, u)
    phi_xu: BivariatePoly    # variables (x, u)
    sign: int                # psi = sign * phi_xu(x, y - x^2 + 2)
    psi: BivariatePoly       # variables (x, y), monic in y when possible


def riley_polynomial(pres: TwoBridgePresentation) -> RileyData:
    a, b, S = _first_row(pres)
    # b is odd in t: b/t costs no shift, b t one
    phi = BivariatePoly._wrap(_unpack(a + b - (b << S), len(pres.w), S))
    l, phi_xu = _symmetrize(phi)
    # psi's y-leading coefficient is phi_xu's u-leading one
    sign = -1 if phi_xu.coeff_of_second(phi_xu.degree_second()) == -1 else 1
    psi = BivariatePoly._wrap(_substitute_u(phi_xu, sign)[0])
    return RileyData(m=pres.m, n=pres.n, phi=phi, l=l, phi_xu=phi_xu, sign=sign, psi=psi)


class CharacterPoint(NamedTuple):
    """A point (x, y) of the character scheme over F_p."""

    x: int
    y: int
    on_abelian_line: bool
    absolutely_irreducible: bool


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


def _square_roots(p: int) -> dict[int, int]:
    """Each square of F_p mapped to its square root in [0, (p-1)/2]."""
    return {x0 * x0 % p: x0 for x0 in range((p + 1) // 2)}


def _small_roots(h: dict[int, int], p: int, root: dict[int, int]) -> list[int]:
    """The distinct roots in F_p of a monic h of degree <= 2: none, -h_0,
    or the quadratic formula (-b +- sqrt(b^2 - 4c)) / 2, the square root
    read from root = _square_roots(p)."""
    top = max(h)
    if top == 0:
        return []
    if top == 1:
        return [-h.get(0, 0) % p]
    b, c = h.get(1, 0), h.get(0, 0)
    s = root.get((b * b - 4 * c) % p)
    if s is None:
        return []
    half = (p + 1) // 2  # 1/2 in F_p
    return sorted({(-b + s) * half % p, (-b - s) * half % p})


def _roots_modp(f: dict[int, int], p: int, root: dict[int, int]) -> list[int]:
    """The distinct roots in F_p of a nonzero f over F_p (exponent ->
    nonzero residue), p an odd prime, sorted; root = _square_roots(p).

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
        return sorted(roots + _small_roots(f, p, root))
    half = (p - 1) // 2
    r = _residue_power(0, half, f, p)
    todo = [_gcd_minus(f, r, 1, p), _gcd_minus(f, r, -1, p)]
    while todo:
        h = todo.pop()
        if max(h) <= 2:
            roots += _small_roots(h, p, root)
            continue
        for a in range(1, p):
            s = _gcd_minus(h, _residue_power(a, half, h, p), 1, p)
            if 0 < max(s) < max(h):
                todo += [s, _poly_divmod(h, s, p)[0]]
                break
        else:
            raise RuntimeError("no a < %d splits a root factor of degree %d" % (p, max(h)))
    return sorted(roots)


def char_points(pres: TwoBridgePresentation, p: int) -> list[CharacterPoint]:
    """All F_p-points of the character scheme (y - x^2 + 2) * Psi = 0,
    in (x, y) order.

    Psi is even in x (g1 and g2 are conjugate, so rho (x) eps with
    eps(g_i) = -1 has traces (-x, y)); an odd power of x is a defect and
    raises RuntimeError. Psi's coefficients are reduced mod p once, as
    polynomials in y of each power of X = x^2. For each of the p values
    y0, _roots_modp finds the roots X0 of Psi(X, y0), of degree about m/7
    where Psi(x0, y) has degree about m/2 in y, and each square X0 gives
    x0 = +-sqrt(X0); where Psi(X, y0) vanishes, every x0 is a root. The
    abelian line adds y = x0^2 - 2. A point is flagged absolutely
    irreducible iff Psi vanishes and the abelian-line factor does not.

    p must be an odd prime <= 10^4. The guard's message still speaks of
    an exhaustive scan; it is part of the CLI's pinned output.
    """
    Zp(p, 1)  # raises ValueError unless p is an odd prime
    if p > 10**4:
        raise ValueError("exhaustive scan guarded at p <= 10^4")
    psi = pres.riley.psi
    top = psi.degree_second()
    columns: dict[int, list[int]] = {}  # k -> coefficients of X^k, from y^top down
    for (i, j), c in psi.terms.items():
        if i % 2:
            raise RuntimeError("Psi of B(%d, %d) has an odd power of x" % (pres.m, pres.n))
        columns.setdefault(i // 2, [0] * (top + 1))[top - j] = c % p
    root = _square_roots(p)
    zeros: list[list[int]] = [[] for _ in range(p)]  # zeros[x0]: the y0 with Psi(x0, y0) = 0, rising
    for y0 in range(p):
        f = {}
        for k, col in columns.items():
            v = 0
            for c in col:
                v = v * y0 + c
            if v % p:
                f[k] = v % p
        for X0 in _roots_modp(f, p, root) if f else root:  # f = 0: every square X0
            if X0 in root:
                for x0 in {root[X0], -root[X0] % p}:
                    zeros[x0].append(y0)
    points = []
    for x0, ys in enumerate(zeros):
        line_base = (x0 * x0 - 2) % p  # abelian line: y = x^2 - 2
        if line_base not in ys:
            insort(ys, line_base)
        # every y0 of ys off the line is a zero of Psi
        points += [CharacterPoint(x0, y0, y0 == line_base, y0 != line_base) for y0 in ys]
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
