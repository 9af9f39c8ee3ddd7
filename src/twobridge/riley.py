"""Riley polynomials and character points of 2-bridge knot groups.

The parabolic-free two-variable setup: g1 maps to C(t) = [[t,1],[0,1/t]]
and g2 to D(t,u) = [[t,0],[u,1/t]]. With W the epsilon-word in C and D,
phi(t,u) := W_11 + (1/t - t) W_12 vanishes exactly on the non-abelian
part of the character scheme. Some power t^l makes t^l * phi symmetric
under t <-> 1/t, hence a polynomial Phi(x,u) in x = t + 1/t; replacing
u by y - x^2 + 2 (with y the trace of g1 g2) gives the plane model
Psi(x,y), normalized monic in its y-leading coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import Mat2, word_matrix
from .padics import Zp, sqrt_mod_prime
from .presentations import TwoBridgePresentation
from .words import gen


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
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return BivariatePoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BivariatePoly({k: -c for k, c in self.terms.items()})

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
        out = BivariatePoly.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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
        return BivariatePoly({(-i, j): c for (i, j), c in self.terms.items()})

    def shift_first(self, l: int) -> "BivariatePoly":
        return BivariatePoly({(i + l, j): c for (i, j), c in self.terms.items()})

    def max_first(self) -> int:
        return max((i for i, _ in self.terms), default=0)

    def min_first(self) -> int:
        return min((i for i, _ in self.terms), default=0)

    def degree_second(self) -> int:
        return max((j for _, j in self.terms), default=0)

    def coeff_of_second(self, j: int) -> "BivariatePoly":
        return BivariatePoly({(i, 0): c for (i, jj), c in self.terms.items() if jj == j})

    def substitute_second(self, repl: "BivariatePoly") -> "BivariatePoly":
        """Replace the second variable by repl (given in the target vars)."""
        out = BivariatePoly()
        powers = {0: BivariatePoly.constant(1)}
        for (i, j), c in sorted(self.terms.items()):
            if j not in powers:
                powers[j] = repl ** j
            out = out + BivariatePoly({(i, 0): c}) * powers[j]
        return out

    def derivative_second(self) -> "BivariatePoly":
        return BivariatePoly({(i, j - 1): c * j for (i, j), c in self.terms.items() if j > 0})

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


_T = BivariatePoly.first_var(1)
_TINV = BivariatePoly.first_var(-1)
_U = BivariatePoly.second_var()
_ZERO = BivariatePoly()
_ONE = BivariatePoly.constant(1)


def matrix_C() -> Mat2:
    return Mat2(_T, _ONE, _ZERO, _TINV)


def matrix_D() -> Mat2:
    return Mat2(_T, _ZERO, _U, _TINV)


def riley_word_matrix(pres: TwoBridgePresentation) -> Mat2:
    """W = C^eps1 D^eps2 C^eps3 ... over Z[t^(+-1), u]: the image of w
    under g1 -> C, g2 -> D."""
    return word_matrix({1: matrix_C(), 2: matrix_D()}, pres.w, _ONE, _ZERO)


def _symmetrize(phi: BivariatePoly) -> tuple[int, BivariatePoly]:
    """Find l with t^l * phi symmetric under t <-> 1/t and rewrite it as
    a polynomial in x = t + 1/t (coefficients polynomial in u)."""
    span = max(abs(phi.max_first()), abs(phi.min_first()))
    shift = None
    for l in sorted(range(-span - 1, span + 2), key=lambda v: (abs(v), v)):
        cand = phi.shift_first(l)
        if cand == cand.mirror_first():
            shift = l
            break
    if shift is None:
        raise ValueError("no power of t symmetrizes phi; not a valid input")
    psi = phi.shift_first(shift)
    x_in_t = _T + _TINV
    out = BivariatePoly()
    while psi.max_first() > 0:
        d = psi.max_first()
        cd = BivariatePoly({(0, j): c for (i, j), c in psi.terms.items() if i == d})
        out = out + cd * BivariatePoly.first_var(1) ** d
        psi = psi - cd * x_in_t**d
    out = out + psi  # remaining terms are t-free
    return shift, out


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
    phi = W.a + (_TINV - _T) * W.b
    l, phi_xu = _symmetrize(phi)
    x = BivariatePoly.first_var(1)
    y = BivariatePoly.second_var()
    psi0 = phi_xu.substitute_second(y - x * x + 2)
    lead = psi0.coeff_of_second(psi0.degree_second())
    sign = 1
    if lead == BivariatePoly.constant(-1):
        sign = -1
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


def char_points(pres: TwoBridgePresentation, p: int) -> list[CharacterPoint]:
    """All F_p-points of the character scheme (y - x^2 + 2) * Psi = 0.

    A point is flagged absolutely irreducible iff Psi vanishes and the
    abelian-line factor does not.
    """
    Zp(p, 1)  # raises ValueError unless p is an odd prime
    if p > 10**4:
        raise ValueError("exhaustive scan guarded at p <= 10^4")
    psi = pres.riley.psi
    points = []
    for x0 in range(p):
        line_base = (x0 * x0 - 2) % p  # abelian line: y = x^2 - 2
        for y0 in range(p):
            on_line = y0 == line_base
            phi_v = psi.eval_modp(x0, y0, p)
            if on_line or phi_v == 0:
                points.append(
                    CharacterPoint(
                        x=x0,
                        y=y0,
                        on_abelian_line=on_line,
                        absolutely_irreducible=(phi_v == 0 and not on_line),
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
