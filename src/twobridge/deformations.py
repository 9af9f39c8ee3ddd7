"""One-parameter SL2 deformations of mod-p representations of 2-bridge
knot groups.

Each family lives over the series ring Z_p[[T]] with T = x - alpha: the
generator images have trace exactly alpha + T, satisfy the group
relation exactly in truncated arithmetic, and reduce to a prescribed
mod-p representation at T = 0.  Square roots always take the branch
whose residue lies in {1, ..., (p-1)/2}; a constructor whose result
fails to reproduce the prescribed mod-p matrices raises BranchMismatch
instead of switching branch.

Four built-in families:

  rho1  p=3,  B(3,1), alpha = 2
  rho2  p=7,  B(5,3), alpha = -2
  rho3  p=11, B(7,3), alpha = (3 - sqrt 5)/2, lower off-diagonal from a
        cubic in one auxiliary series s
  rho4  p=19, B(7,3), alpha = (3 + sqrt 5)/2, auxiliary series v
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .matrices import Mat2, word_matrix
from .padics import PadicInt, PadicSeries, Zp, ZpT, hensel_root, sqrt_positive
from .presentations import TwoBridgePresentation, two_bridge
from .riley import relation_holds, riley_polynomial
from .words import FreeWord, gen, reduced_words


class BranchMismatch(ArithmeticError):
    """The positive square-root branch does not reproduce the prescribed
    mod-p representation."""


class Representation:
    """Determinant-1 matrix assignment for the two generators, over
    Zp(p, N) or ZpT(p, N, D); words evaluate through word_matrix with a
    per-word cache."""

    __slots__ = ("ring", "matrices", "_cache")

    def __init__(self, ring, matrices: dict[int, Mat2]):
        self.ring = ring
        self.matrices = dict(matrices)
        self._cache: dict[FreeWord, Mat2] = {}

    @property
    def p(self) -> int:
        return self.ring.p

    @property
    def one(self):
        return self.ring.one

    @property
    def zero(self):
        return self.ring.zero

    def __call__(self, word: FreeWord) -> Mat2:
        m = self._cache.get(word)
        if m is None:
            m = word_matrix(self.matrices, word, self.one, self.zero)
            self._cache[word] = m
        return m

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


@dataclass(frozen=True)
class DeformationFamily:
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


def build_rho1(N: int = 8, D: int = 8) -> DeformationFamily:
    p = 3
    ring = ZpT(p, N, D)
    base = ring.base
    half = base(2).invert_unit()
    quarter = half * half
    alpha = base(2)
    x = ring([alpha.r, 1])
    q = sqrt_positive(x * x - 3)
    g1 = Mat2((x + q) * half, ring.constant(-1), ring.constant(quarter), (x - q) * half)
    g2 = Mat2((x - q) * half, ring.constant(-1), ring.constant(quarter), (x + q) * half)
    fam = DeformationFamily(
        key="rho1",
        pres=two_bridge(3, 1),
        p=p,
        ring=ring,
        alpha=alpha,
        rep=Representation(ring, {1: g1, 2: g2}),
        char_point=(2, 1),
        expected_residual=(((0, 2), (1, 2)), ((2, 2), (1, 0))),
        params={"q": q},
    )
    return _verify_family(fam)


def build_rho2(N: int = 8, D: int = 8) -> DeformationFamily:
    p = 7
    ring = ZpT(p, N, D)
    base = ring.base
    half = base(2).invert_unit()
    inv8 = base(8).invert_unit()
    alpha = base(-2)
    x = ring([alpha.r, 1])
    x2 = x * x
    u = sqrt_positive((x2 - 1) * (x2 - 5))
    q = sqrt_positive((x2 - 5 + u) * half)
    c = -(x2 - 3 - u) * inv8
    g1 = Mat2((x + q) * half, ring.constant(-1), c, (x - q) * half)
    g2 = Mat2((x - q) * half, ring.constant(-1), c, (x + q) * half)
    fam = DeformationFamily(
        key="rho2",
        pres=two_bridge(5, 3),
        p=p,
        ring=ring,
        alpha=alpha,
        rep=Representation(ring, {1: g1, 2: g2}),
        char_point=(5, 5),
        expected_residual=(((0, 6), (1, 5)), ((5, 6), (1, 0))),
        params={"u": u, "q": q},
    )
    return _verify_family(fam)


def _cubic_rho3(ring: ZpT, x: PadicSeries) -> list[PadicSeries]:
    """Ascending coefficients of the auxiliary cubic for rho3:
    64 s^3 - 16(2x^2+5) s^2 + 4(x^4+9x^2+6) s - (4x^4+6x^2+1)."""
    x2 = x * x
    x4 = x2 * x2
    return [
        -(x4 * 4 + x2 * 6 + 1),
        (x4 + x2 * 9 + 6) * 4,
        -(x2 * 2 + 5) * 16,
        ring.constant(64),
    ]


def _cubic_rho4(ring: ZpT, x: PadicSeries) -> list[PadicSeries]:
    """Ascending coefficients of the auxiliary cubic for rho4:
    64 v^3 - 16(x^2+7) v^2 + 28(x^2+2) v - (12x^2+7)."""
    x2 = x * x
    return [
        -(x2 * 12 + 7),
        (x2 + 2) * 28,
        -(x2 + 7) * 16,
        ring.constant(64),
    ]


def build_rho3(N: int = 8, D: int = 8) -> DeformationFamily:
    p = 11
    ring = ZpT(p, N, D)
    base = ring.base
    half = base(2).invert_unit()
    quarter = half * half
    sqrt5 = sqrt_positive(base(5))
    alpha = (base(3) - sqrt5) * half
    xi = (base(4) - sqrt5) * quarter
    x = ring([alpha.r, 1])
    s = hensel_root(_cubic_rho3(ring, x), ring.constant(xi))
    q = sqrt_positive(x * x - s * 4)
    g1 = Mat2((x + q) * half, ring.constant(-1), -s + 1, (x - q) * half)
    g2 = Mat2((x + q) * half, ring.constant(1), s - 1, (x - q) * half)
    fam = DeformationFamily(
        key="rho3",
        pres=two_bridge(7, 3),
        p=p,
        ring=ring,
        alpha=alpha,
        rep=Representation(ring, {1: g1, 2: g2}),
        char_point=(5, 5),
        expected_residual=(((5, 10), (1, 0)), ((5, 1), (10, 0))),
        params={"s": s, "q": q, "xi": xi, "sqrt5": sqrt5},
    )
    return _verify_family(fam)


def build_rho4(N: int = 8, D: int = 8) -> DeformationFamily:
    p = 19
    ring = ZpT(p, N, D)
    base = ring.base
    half = base(2).invert_unit()
    inv8 = base(8).invert_unit()
    sqrt5 = sqrt_positive(base(5))
    beta = (base(3) + sqrt5) * half
    zeta = (base(7) + sqrt5) * inv8
    x = ring([beta.r, 1])
    v = hensel_root(_cubic_rho4(ring, x), ring.constant(zeta))
    q = sqrt_positive(x * x - v * 4)
    g1 = Mat2((x + q) * half, ring.constant(1), v - 1, (x - q) * half)
    g2 = Mat2((x - q) * half, ring.constant(1), v - 1, (x + q) * half)
    fam = DeformationFamily(
        key="rho4",
        pres=two_bridge(7, 3),
        p=p,
        ring=ring,
        alpha=beta,
        rep=Representation(ring, {1: g1, 2: g2}),
        char_point=(6, 6),
        expected_residual=(((14, 1), (1, 11)), ((11, 1), (1, 14))),
        params={"v": v, "q": q, "zeta": zeta, "sqrt5": sqrt5},
    )
    return _verify_family(fam)


FAMILY_BUILDERS = {
    "rho1": build_rho1,
    "rho2": build_rho2,
    "rho3": build_rho3,
    "rho4": build_rho4,
}


def build_family(key: str, N: int = 8, D: int = 8) -> DeformationFamily:
    try:
        builder = FAMILY_BUILDERS[key]
    except KeyError:
        raise ValueError("unknown family %r; choose from %s" % (key, sorted(FAMILY_BUILDERS)))
    return builder(N=N, D=D)


# --- specialization -------------------------------------------------------


@dataclass(frozen=True)
class Specialization:
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


@dataclass(frozen=True)
class Certificate:
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

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "trace_ok": self.trace_ok,
            "relation_ok": self.relation_ok,
            "residual_ok": self.residual_ok,
            "point_ok": self.point_ok,
            "char_point": list(self.char_point),
            "psi_value": self.psi_value,
            "psi_derivative": self.psi_derivative,
            "regular": self.regular,
            "ok": self.ok,
        }


def universality_certificate(fam: DeformationFamily) -> Certificate:
    trace_ok = all(fam.rep.matrices[i].trace() == fam.trace_series for i in (1, 2))
    relation_ok = relation_holds(fam.pres, fam.rep)
    residual_ok = fam.rep.residue_matrices() == fam.expected_residual
    x0, y0 = fam.char_point
    res = fam.rep.residual()
    tr1 = res(gen(1)).trace().residue()
    tr12 = res(gen(1) * gen(2)).trace().residue()
    point_ok = tr1 == x0 % fam.p and tr12 == y0 % fam.p and fam.alpha.residue() == x0 % fam.p
    psi = riley_polynomial(fam.pres).psi
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


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    words: tuple[str, ...]


@dataclass(frozen=True)
class AxiomReport:
    """Sampled verification that w -> tr rho(w) is a trace function of a
    2-dimensional pseudo-representation."""

    checks: dict
    violation: AxiomViolation | None

    @property
    def ok(self) -> bool:
        return self.violation is None

    def to_json(self) -> dict:
        out = {"checks": dict(self.checks), "ok": self.ok}
        out["violation"] = (
            {"axiom": self.violation.axiom, "words": list(self.violation.words)}
            if self.violation
            else None
        )
        return out


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

    override maps reduced words to replacement trace values; it exists
    so tests can corrupt a single value and watch an axiom fail.
    """
    override = override or {}

    def T(w: FreeWord):
        if w in override:
            return override[w]
        return rep(w).trace()

    # (name, arity, defect): an identity holds on a sample iff its defect is zero
    identities = (
        ("symmetry", 2, lambda a, b: T(a * b) - T(b * a)),
        ("square", 1, lambda a: T(a) * T(a) - T(a * a) - 2),
        ("product", 2, lambda a, b: T(a) * T(b) - (T(a * b) + T(a.inverse() * b))),
        (
            "triple",
            3,
            lambda a, b, c: T(a) * T(b) * T(c) + T(a * b * c) + T(a * c * b)
            - (T(a * b) * T(c) + T(b * c) * T(a) + T(a * c) * T(b)),
        ),
    )
    nonempty = reduced_words(max_len, include_identity=False)
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


# --- random SL2 sampling --------------------------------------------------


def _random_residues(rng: random.Random, ring, unit: bool):
    if isinstance(ring, Zp):
        while True:
            r = rng.randrange(ring.modulus)
            if not unit or r % ring.p:
                return ring(r)
    cs = [rng.randrange(ring.base.modulus) for _ in range(ring.D + 1)]
    if unit:
        while cs[0] % ring.p == 0:
            cs[0] = rng.randrange(ring.base.modulus)
    return ring(cs)


def random_sl2(rng: random.Random, ring) -> Mat2:
    """Element of SL2 over Zp or ZpT with determinant exactly 1, built
    constructively: either a is a unit and d = (1 + bc) / a, or a = 0,
    c = -1/b and d is free."""
    if rng.random() < 0.15:
        b = _random_residues(rng, ring, unit=True)
        d = _random_residues(rng, ring, unit=False)
        return Mat2(ring.zero, b, -b.invert_unit(), d)
    a = _random_residues(rng, ring, unit=True)
    b = _random_residues(rng, ring, unit=False)
    c = _random_residues(rng, ring, unit=False)
    d = (b * c + 1) * a.invert_unit()
    return Mat2(a, b, c, d)
