"""One-parameter SL2 deformations of mod-p representations of 2-bridge
knot groups.

Each family lives over the series ring Z_p[[T]] with T = x - alpha: the
generator images have trace exactly alpha + T, satisfy the group
relation exactly in truncated arithmetic, and reduce to a prescribed
mod-p representation at T = 0.  Square roots always take the branch
whose residue lies in {1, ..., (p-1)/2}; a constructor whose result
fails to reproduce the prescribed mod-p matrices raises BranchMismatch
instead of switching branch.

The four built-in families rho1..rho4 share one constructor,
_sl2_family. Along a family, y = tr rho(g1 g2) is the root of the Riley
polynomial Psi(x, y) = 0 (pres.riley.psi) at x = alpha + T that reduces
to the character point's y0: lifted by Newton over Z_p at x = alpha,
then solved in T by its coefficient recurrence from that seed, and
checked once, Psi(x, y) = 0 at full precision (padics.hensel_root).
g1 = [[(x+q)/2, b], [c, (x-q)/2]] with b = +-1 and
q = sqrt(x^2 - 4 - 4bc); g2 is g1 with its diagonal swapped (rho1, rho2,
rho4), so that y = 2 + 4bc, or with its off-diagonal negated (rho3), so
that y = x^2 - 2 - 4bc, and either fixes c. Each build_rhoN states its
knot, prime, alpha, b, character point, residual matrices and
orientation, and reads its named parameters off c: u = x^2 - 3 + 8c
(rho2), s = 1 - c (rho3) and v = c + 1 (rho4).
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .matrices import Mat2
from .padics import PadicInt, PadicSeries, Zp, ZpT, hensel_root, poly_eval, sqrt_positive
from .presentations import TwoBridgePresentation, two_bridge
from .riley import relation_holds
from .words import FreeWord, gen, reduced_words


class BranchMismatch(ArithmeticError):
    """The positive square-root branch does not reproduce the prescribed
    mod-p representation."""


_G1G2 = gen(1) * gen(2)


class Representation:
    """Matrix assignment for the two generators over Zp(p, N) or
    ZpT(p, N, D), each of determinant exactly 1, with a per-word cache.

    A word is cached as its trace coordinates (alpha, beta, gamma, delta):
    rho(word) = alpha I + beta A + gamma B + delta AB with A = rho(g1) and
    B = rho(g2), which exist for every word of a det-1 pair by
    Cayley-Hamilton (Fricke-Vogt). With a = tr A, b = tr B, c = tr AB and
    e = c - ab, a letter acts on M = (alpha, beta, gamma, delta) by

      M B      = (-gamma, -delta, alpha + b gamma, beta + b delta)
      A M      = (-beta, alpha + a beta, -delta, gamma + a delta)
      M A      = (-beta + e gamma - b delta, alpha + a beta + b gamma + c delta,
                  a gamma + delta, -gamma)
      B M      = (e beta - gamma - a delta, b beta + delta,
                  alpha + a beta + b gamma + c delta, -beta)
      M g^-1   = tr(g) M - M g,     g^-1 M = tr(g) M - g M,

    so a letter costs at most two products of dense series (e and c times
    a coordinate); a and b are alpha + T along a family. The rules rest
    on A^2 = aA - I and B^2 = bB - I, so the matrices must have
    determinant exactly 1 (an inverse letter is the adjugate). Any other
    letter has no image and raises ValueError.

    The coordinate cache starts from the identity, the letters and
    g1 g2 = AB. A word w that is not cached is rho(first letter) times
    rho(w minus its first letter) when that suffix is cached, and
    otherwise its longest cached prefix times its remaining letters, one
    at a time, with each new prefix cached. Calling rep(w) returns the
    matrix from a second cache, which starts from the given identity,
    letters and inverses; AB is multiplied out on first use, and any
    other word's matrix is built from its coordinates once and kept.
    Where the coordinates are not unique (a reducible pair, for which
    I, A, B, AB span less than all 2 x 2 matrices), two coordinate
    vectors can name one matrix; compare matrices, not coordinates, to
    decide equality.
    """

    __slots__ = ("ring", "matrices", "_traces", "_cache", "_mats", "fox_images")

    def __init__(self, ring, matrices: dict[int, Mat2]):
        self.ring = ring
        self.matrices = dict(matrices)
        A, B = self.matrices[1], self.matrices[2]
        a, b = A.trace(), B.trace()
        c = A.a * B.a + A.b * B.c + A.c * B.b + A.d * B.d
        self._traces = (a, b, c, c - a * b)
        one, zero = ring.one, ring.zero
        self._cache: dict[FreeWord, tuple] = {
            FreeWord(): (one, zero, zero, zero),
            gen(1): (zero, one, zero, zero),
            gen(1, -1): (a, -one, zero, zero),
            gen(2): (zero, zero, one, zero),
            gen(2, -1): (b, zero, -one, zero),
            _G1G2: (zero, zero, zero, one),
        }
        self._mats: dict[FreeWord, Mat2] = {
            FreeWord(): Mat2.identity(one, zero),
            gen(1): A,
            gen(1, -1): A.sl2_inverse(),
            gen(2): B,
            gen(2, -1): B.sl2_inverse(),
        }
        # homology.fox_images' results, keyed by the word w of the relator
        self.fox_images: dict[FreeWord, tuple[Mat2, Mat2]] = {}

    def __call__(self, word: FreeWord) -> Mat2:
        m = self._mats.get(word)
        if m is None:
            m = self._mats[word] = self._ab() if word == _G1G2 else self.matrix(self.coords(word))
        return m

    def coords(self, word: FreeWord) -> tuple:
        """The trace coordinates of rho(word), cached."""
        return self._cache.get(word) or self._coords(word)

    def _coords(self, word: FreeWord) -> tuple:
        cache, letters = self._cache, word.letters
        tail = cache.get(word.suffix(len(word) - 1))
        if tail is not None:
            m = cache[word] = self.left(letters[0], tail)
            return m
        k = len(word) - 1  # the identity is cached, so this stops
        while word.prefix(k) not in cache:
            k -= 1
        m = cache[word.prefix(k)]
        for j in range(k, len(word)):
            m = cache[word.prefix(j + 1)] = self.right(m, letters[j])
        return m

    def right(self, m: tuple, letter) -> tuple:
        """The coordinates of M times rho(letter)."""
        al, be, ga, de = m
        a, b, c, e = self._traces
        if letter == (2, 1):
            return (-ga, -de, al + b * ga, be + b * de)
        if letter == (2, -1):
            return (ga + b * al, de + b * be, -al, -be)
        u = b * ga + c * de
        if letter == (1, 1):
            return (e * ga - be - b * de, al + a * be + u, a * ga + de, -ga)
        if letter == (1, -1):
            return (be + a * al - e * ga + b * de, -al - u, -de, ga + a * de)
        raise ValueError("no image for the letter g%d^%d; only g1 and g2 have one" % letter)

    def left(self, letter, m: tuple) -> tuple:
        """The coordinates of rho(letter) times M."""
        al, be, ga, de = m
        a, b, c, e = self._traces
        if letter == (1, 1):
            return (-be, al + a * be, -de, ga + a * de)
        if letter == (1, -1):
            return (be + a * al, -al, de + a * ga, -ga)
        u = a * be + c * de
        if letter == (2, 1):
            return (e * be - ga - a * de, b * be + de, al + u + b * ga, -be)
        if letter == (2, -1):
            return (b * al - e * be + ga + a * de, -de, -al - u, be + b * de)
        raise ValueError("no image for the letter g%d^%d; only g1 and g2 have one" % letter)

    def matrix(self, m) -> Mat2:
        """alpha I + beta A + gamma B + delta AB for m = (alpha, beta, gamma,
        delta); its lower-right entry is its trace, 2 alpha + a beta +
        b gamma + c delta, minus its upper-left one."""
        al, be, ga, de = m
        a, b, c, _ = self._traces
        A, B, AB = self.matrices[1], self.matrices[2], self._ab()
        top = al + be * A.a + ga * B.a + de * AB.a
        return Mat2(
            top,
            be * A.b + ga * B.b + de * AB.b,
            be * A.c + ga * B.c + de * AB.c,
            al + al + a * be + b * ga + c * de - top,
        )

    def _ab(self) -> Mat2:
        m = self._mats.get(_G1G2)
        if m is None:
            m = self._mats[_G1G2] = self.matrices[1] * self.matrices[2]
        return m

    @property
    def p(self) -> int:
        return self.ring.p

    @property
    def one(self):
        return self.ring.one

    @property
    def zero(self):
        return self.ring.zero

    def residual(self) -> "Representation":
        """Entrywise reduction mod the maximal ideal, over Zp(p, 1)."""
        field = Zp(self.p, 1)
        mats = {i: m.map(lambda e: field(e.residue())) for i, m in self.matrices.items()}
        return Representation(field, mats)

    def residue_matrices(self) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
        out = []
        for i in (1, 2):
            r = self.matrices[i].map(lambda e: e.residue()).rows()
            out.append((tuple(r[0]), tuple(r[1])))
        return tuple(out)


class DeformationFamily(NamedTuple):
    key: str
    pres: TwoBridgePresentation
    p: int
    ring: ZpT
    alpha: PadicInt
    rep: Representation
    char_point: tuple[int, int]
    expected_residual: tuple
    params: dict

    @property
    def trace_series(self) -> PadicSeries:
        return self.ring([self.alpha.r, 1])


def _verify_family(fam: DeformationFamily) -> DeformationFamily:
    for i in (1, 2):
        m = fam.rep.matrices[i]
        if not (m.det() - 1).is_zero:
            raise ArithmeticError("%s: generator %d is not in SL2" % (fam.key, i))
        if m.trace() != fam.trace_series:
            raise ArithmeticError("%s: generator %d has wrong trace" % (fam.key, i))
    if not relation_holds(fam.pres, fam.rep):
        raise ArithmeticError("%s: group relation fails" % fam.key)
    got = fam.rep.residue_matrices()
    if got != fam.expected_residual:
        raise BranchMismatch(
            "%s: residual matrices %r differ from the prescribed %r"
            % (fam.key, got, fam.expected_residual)
        )
    return fam


def _psi_at_x(pres: TwoBridgePresentation, x) -> list:
    """The coefficients, ascending in y, of Psi(x, y) over x's ring: each
    of Psi's y-coefficient columns evaluated at x."""
    psi = pres.riley.psi
    columns = [[psi.terms.get((i, j), 0) for i in range(psi.max_first() + 1)]
               for j in range(psi.degree_second() + 1)]
    return [x.ring.zero + poly_eval(col, x) for col in columns]


def character_curve_value(fam: DeformationFamily) -> PadicSeries:
    """Psi(x, y) in the family's ring, with x = tr rho(g1) and
    y = tr rho(g1 g2): exactly zero when the whole family, not only its
    residual point, lies on the character curve Psi = 0."""
    x = fam.rep(gen(1)).trace()
    y = fam.rep(gen(1) * gen(2)).trace()
    return poly_eval(_psi_at_x(fam.pres, x), y)


def _sl2_family(key, pres, x, b, char_point, expected_residual, params, negate_off_diagonal=False):
    """The family over x.ring with trace series x = alpha + T and g1's
    upper-right entry b = +-1, as in the module docstring; params(x, c)
    names the builder's own parameters, and q joins them."""
    ring = x.ring
    y = hensel_root(_psi_at_x(pres, x), ring.constant(char_point[1]))
    c = (x * x - 2 - y if negate_off_diagonal else y - 2) * ring.base(4 * b).invert_unit()
    q = sqrt_positive(x * x - 4 - c * (4 * b))
    half = ring.base(2).invert_unit()
    g1 = Mat2((x + q) * half, ring.constant(b), c, (x - q) * half)
    g2 = Mat2(g1.a, -g1.b, -c, g1.d) if negate_off_diagonal else Mat2(g1.d, g1.b, c, g1.a)
    fam = DeformationFamily(
        key=key,
        pres=pres,
        p=ring.p,
        ring=ring,
        alpha=x.constant_term(),
        rep=Representation(ring, {1: g1, 2: g2}),
        char_point=char_point,
        expected_residual=expected_residual,
        params={**params(x, c), "q": q},
    )
    return _verify_family(fam)


def build_rho1(N: int = 8, D: int = 8, pres: TwoBridgePresentation | None = None) -> DeformationFamily:
    ring = ZpT(3, N, D)
    return _sl2_family(
        "rho1", pres or two_bridge(3, 1), ring([2, 1]), -1,
        (2, 1), (((0, 2), (1, 2)), ((2, 2), (1, 0))), lambda x, c: {},
    )


def build_rho2(N: int = 8, D: int = 8, pres: TwoBridgePresentation | None = None) -> DeformationFamily:
    ring = ZpT(7, N, D)
    return _sl2_family(
        "rho2", pres or two_bridge(5, 3), ring([-2, 1]), -1,
        (5, 5), (((0, 6), (1, 5)), ((5, 6), (1, 0))), lambda x, c: {"u": x * x - 3 + c * 8},
    )


def build_rho3(N: int = 8, D: int = 8, pres: TwoBridgePresentation | None = None) -> DeformationFamily:
    ring = ZpT(11, N, D)
    base = ring.base
    sqrt5 = sqrt_positive(base(5))
    alpha = (base(3) - sqrt5) * base(2).invert_unit()
    xi = (base(4) - sqrt5) * base(4).invert_unit()
    return _sl2_family(
        "rho3", pres or two_bridge(7, 3), ring([alpha.r, 1]), -1,
        (5, 5), (((5, 10), (1, 0)), ((5, 1), (10, 0))),
        lambda x, c: {"s": 1 - c, "xi": xi, "sqrt5": sqrt5},
        negate_off_diagonal=True,
    )


def build_rho4(N: int = 8, D: int = 8, pres: TwoBridgePresentation | None = None) -> DeformationFamily:
    ring = ZpT(19, N, D)
    base = ring.base
    sqrt5 = sqrt_positive(base(5))
    alpha = (base(3) + sqrt5) * base(2).invert_unit()
    zeta = (base(7) + sqrt5) * base(8).invert_unit()
    return _sl2_family(
        "rho4", pres or two_bridge(7, 3), ring([alpha.r, 1]), 1,
        (6, 6), (((14, 1), (1, 11)), ((11, 1), (1, 14))),
        lambda x, c: {"v": c + 1, "zeta": zeta, "sqrt5": sqrt5},
    )


FAMILY_BUILDERS = {
    "rho1": build_rho1,
    "rho2": build_rho2,
    "rho3": build_rho3,
    "rho4": build_rho4,
}


def build_family(
    key: str, N: int = 8, D: int = 8, pres: TwoBridgePresentation | None = None
) -> DeformationFamily:
    """The family key at (N, D); pres, when given, is its presentation
    from another build, with its Fox images and Riley polynomial cached."""
    try:
        builder = FAMILY_BUILDERS[key]
    except KeyError:
        raise ValueError("unknown family %r; choose from %s" % (key, sorted(FAMILY_BUILDERS)))
    return builder(N=N, D=D, pres=pres)


# --- specialization -------------------------------------------------------


class Specialization(NamedTuple):
    """A family evaluated at a center x = x_value with T = x_value - alpha
    in the maximal ideal; exact, since PadicSeries.specialize raises
    Indeterminate unless (D+1) val(t0) >= N."""

    family: DeformationFamily
    x_value: PadicInt
    t0: PadicInt
    rep: Representation
    params: dict


def specialize_family(fam: DeformationFamily, x_rat: int) -> Specialization:
    base = fam.ring.base
    xv = base(x_rat)
    t0 = xv - fam.alpha
    if t0.is_unit:
        raise ValueError(
            "x = %d does not reduce to alpha mod %d; cannot specialize" % (x_rat, fam.p)
        )
    mats = {i: m.map(lambda e: e.specialize(t0)) for i, m in fam.rep.matrices.items()}
    params = {
        k: (v.specialize(t0) if isinstance(v, PadicSeries) else v)
        for k, v in fam.params.items()
    }
    return Specialization(family=fam, x_value=xv, t0=t0, rep=Representation(base, mats), params=params)


# --- universality certificate --------------------------------------------


class Certificate(NamedTuple):
    """Checks that a family is the universal deformation of its residual
    representation restricted to trace functions:

    trace_ok      both generators have trace exactly alpha + T
    relation_ok   the group relation holds in truncated arithmetic
    residual_ok   T = 0 reproduces the prescribed mod-p matrices
    point_ok      the mod-p character (x0, y0) matches the residual rep
    regular       the character variety is smooth over the x-line at
                  (x0, y0): Psi(x0, y0) = 0 and dPsi/dy(x0, y0) != 0
    """

    key: str
    trace_ok: bool
    relation_ok: bool
    residual_ok: bool
    point_ok: bool
    char_point: tuple[int, int]
    psi_value: int
    psi_derivative: int

    @property
    def regular(self) -> bool:
        return self.psi_value == 0 and self.psi_derivative != 0

    @property
    def ok(self) -> bool:
        return (
            self.trace_ok
            and self.relation_ok
            and self.residual_ok
            and self.point_ok
            and self.regular
        )


def universality_certificate(fam: DeformationFamily) -> Certificate:
    trace_ok = all(fam.rep.matrices[i].trace() == fam.trace_series for i in (1, 2))
    relation_ok = relation_holds(fam.pres, fam.rep)
    residual_ok = fam.rep.residue_matrices() == fam.expected_residual
    x0, y0 = fam.char_point
    res = fam.rep.residual()
    tr1 = res(gen(1)).trace().residue()
    tr12 = res(gen(1) * gen(2)).trace().residue()
    point_ok = tr1 == x0 % fam.p and tr12 == y0 % fam.p and fam.alpha.residue() == x0 % fam.p
    psi = fam.pres.riley.psi
    val = psi.eval_modp(x0, y0, fam.p)
    der = psi.derivative_second().eval_modp(x0, y0, fam.p)
    return Certificate(
        key=fam.key,
        trace_ok=trace_ok,
        relation_ok=relation_ok,
        residual_ok=residual_ok,
        point_ok=point_ok,
        char_point=(x0, y0),
        psi_value=val,
        psi_derivative=der,
    )


# --- trace axioms ---------------------------------------------------------


class AxiomViolation(NamedTuple):
    axiom: str
    words: tuple[str, ...]


class AxiomReport(NamedTuple):
    """Sampled verification that w -> tr rho(w) is a trace function of a
    2-dimensional pseudo-representation."""

    checks: dict
    violation: AxiomViolation | None

    @property
    def ok(self) -> bool:
        return self.violation is None


def trace_axioms(
    rep: Representation,
    max_len: int = 4,
    budget: int = 200,
    seed: int = 0,
    override: dict[FreeWord, object] | None = None,
) -> AxiomReport:
    """Check the defining identities of a trace function on sampled
    reduced words:

      central     T(e) = 2
      symmetry    T(ab) = T(ba)
      square      T(a)^2 - T(a^2) = 2
      product     T(a) T(b) = T(ab) + T(a^-1 b)
      triple      T(a)T(b)T(c) + T(abc) + T(acb)
                    = T(ab)T(c) + T(bc)T(a) + T(ac)T(b)

    T(a b) is tr(rep(a) rep(b)) and T(a b c) is tr((rep(a) rep(b)) rep(c)),
    which is T of the reduced product word as rep has determinant exactly 1.
    override maps reduced product words to replacement trace values; it
    exists so tests can corrupt a single value and watch an axiom fail.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1, got %r" % (max_len,))
    override = override or {}

    def T(*factors: FreeWord):
        if override and (w := FreeWord(x for f in factors for x in f)) in override:
            return override[w]  # looked up by the reduced product word
        *head, n = [rep(f) for f in factors]
        if not head:
            return n.trace()
        m = head[0] * head[1] if len(head) == 2 else head[0]
        return m.a * n.a + m.b * n.c + m.c * n.b + m.d * n.d

    # (name, arity, defect): an identity holds on a sample iff its defect is zero
    identities = (
        ("symmetry", 2, lambda a, b: T(a, b) - T(b, a)),
        ("square", 1, lambda a: T(a) * T(a) - T(a, a) - 2),
        ("product", 2, lambda a, b: T(a) * T(b) - (T(a, b) + T(a.inverse(), b))),
        (
            "triple",
            3,
            lambda a, b, c: T(a) * T(b) * T(c) + T(a, b, c) + T(a, c, b)
            - (T(a, b) * T(c) + T(b, c) * T(a) + T(a, c) * T(b)),
        ),
    )
    nonempty = reduced_words(max_len)
    rng = random.Random(seed)
    checks = {"central": 1}
    checks.update((name, 0) for name, _, _ in identities)
    if not (T(FreeWord()) - 2).is_zero:
        return AxiomReport(checks=checks, violation=AxiomViolation("central", ("e",)))
    for name, arity, defect in identities:
        for _ in range(budget):
            ws = [rng.choice(nonempty) for _ in range(arity)]
            checks[name] += 1
            if not defect(*ws).is_zero:
                violation = AxiomViolation(name, tuple(str(w) for w in ws))
                return AxiomReport(checks=checks, violation=violation)
    return AxiomReport(checks=checks, violation=None)

