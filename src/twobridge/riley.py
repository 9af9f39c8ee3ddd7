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
"""

from __future__ import annotations

from dataclasses import dataclass

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
            return BivariatePoly({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return BivariatePoly(out)

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
        by Horner's rule: out = out * repl + column_j from the top j down."""
        columns: dict[int, dict[tuple[int, int], int]] = {}
        for (i, j), c in self.terms.items():
            columns.setdefault(j, {})[(i, 0)] = c
        out = BivariatePoly()
        for j in range(self.degree_second(), -1, -1):
            out = out * repl
            if j in columns:
                out = out + BivariatePoly._wrap(columns[j])
        return out

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


def riley_word_matrix(pres: TwoBridgePresentation) -> Mat2:
    """W = C^eps1 D^eps2 C^eps3 ... over Z[t^(+-1), u]: the image of w
    under g1 -> C, g2 -> D.

    Each letter updates both rows (a, b) of W in place of a matrix
    product: C^s sends (a, b) to (a t^s, s a + b t^-s) and D^s sends it
    to (a t^s + s b u, b t^-s).
    """
    rows = [[{(0, 0): 1}, {}], [{}, {(0, 0): 1}]]
    for g, s in pres.w:
        for row in rows:
            a = {(i + s, j): c for (i, j), c in row[0].items()}
            b = {(i - s, j): c for (i, j), c in row[1].items()}
            if g == 1:
                _add_into(b, row[0], s)
            else:
                _add_into(a, {(i, j + 1): c for (i, j), c in row[1].items()}, s)
            row[:] = a, b
    return Mat2(*(BivariatePoly._wrap(e) for row in rows for e in row))


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
    W: Mat2
    phi: BivariatePoly       # variables (t, u)
    l: int                   # t^l * phi = phi_xu(t + 1/t, u)
    phi_xu: BivariatePoly    # variables (x, u)
    sign: int                # psi = sign * phi_xu(x, y - x^2 + 2)
    psi: BivariatePoly       # variables (x, y), monic in y when possible


def riley_polynomial(pres: TwoBridgePresentation) -> RileyData:
    W = riley_word_matrix(pres)
    phi = W.a + W.b.shift_first(-1) - W.b.shift_first(1)
    l, phi_xu = _symmetrize(phi)
    x = BivariatePoly.first_var(1)
    y = BivariatePoly.second_var()
    psi0 = phi_xu.substitute_second(y - x * x + 2)
    sign = -1 if psi0.coeff_of_second(psi0.degree_second()) == -1 else 1
    return RileyData(
        m=pres.m, n=pres.n, W=W, phi=phi, l=l, phi_xu=phi_xu, sign=sign, psi=psi0 * sign
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


def _mulmod(a: dict[int, int], b: dict[int, int], f: dict[int, int], p: int) -> dict[int, int]:
    """a * b mod f over F_p, on exponent -> residue dicts."""
    prod: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            prod[e1 + e2] = prod.get(e1 + e2, 0) + c1 * c2
    return _poly_divmod({e: c % p for e, c in prod.items() if c % p}, f, p)[1]


def _powmod(base: dict[int, int], k: int, f: dict[int, int], p: int) -> dict[int, int]:
    """base^k mod f over F_p by square-and-multiply, for k >= 1."""
    out = _poly_divmod(base, f, p)[1]
    for bit in bin(k)[3:]:
        out = _mulmod(out, out, f, p)
        if bit == "1":
            out = _mulmod(out, base, f, p)
    return out


def _roots_modp(f: dict[int, int], p: int) -> list[int]:
    """The distinct roots in F_p of a nonzero f over F_p, p an odd prime.

    g = gcd(f, y^p - y) is the product of (y - r) over those roots. Each
    factor of g of degree d > 1 is split by gcd with (y + a)^((p-1)/2) - 1
    for a = 0, 1, 2, ...: that gcd collects the roots r with r + a a
    nonzero square. For two roots r1 != r2 the ratio (r1 + a)/(r2 + a)
    runs over every non-residue as a runs over F_p, so some a < p splits.
    """
    if max(f) == 0:
        return []
    yp = _powmod({1: 1}, p, f, p)
    yp[1] = (yp.get(1, 0) - 1) % p
    g = _poly_gcd_field(f, {e: c for e, c in yp.items() if c}, p)
    roots, todo = [], [g] if max(g) else []
    while todo:
        h = todo.pop()
        if max(h) == 1:
            roots.append(-h.get(0, 0) % p)
            continue
        for a in range(p):
            w = _powmod({0: a, 1: 1} if a else {1: 1}, (p - 1) // 2, h, p)
            w[0] = (w.get(0, 0) - 1) % p
            s = _poly_gcd_field(h, {e: c for e, c in w.items() if c}, p)
            if 0 < max(s) < max(h):
                todo += [s, _poly_divmod(h, s, p)[0]]
                break
    return sorted(roots)


def char_points(pres: TwoBridgePresentation, p: int) -> list[CharacterPoint]:
    """All F_p-points of the character scheme (y - x^2 + 2) * Psi = 0,
    in (x, y) order.

    For each x0, Psi(x0, y) is reduced once to a polynomial in y over
    F_p and its roots are found by _roots_modp; when it vanishes
    identically every y is a point. The abelian line contributes
    y = x0^2 - 2. A point is flagged absolutely irreducible iff Psi
    vanishes and the abelian-line factor does not.

    p must be an odd prime <= 10^4. The guard's message still speaks of
    an exhaustive scan; it is part of the CLI's pinned output.
    """
    Zp(p, 1)  # raises ValueError unless p is an odd prime
    if p > 10**4:
        raise ValueError("exhaustive scan guarded at p <= 10^4")
    columns: dict[int, list[tuple[int, int]]] = {}
    for (i, j), c in pres.riley.psi.terms.items():
        columns.setdefault(j, []).append((i, c))
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

    rep is any evaluator taking a word to its Mat2 image, such as a
    deformations.Representation, whose cache then holds both products
    for the next check on the same representation.
    """
    return rep(pres.w * gen(1)) == rep(gen(2) * pres.w)
