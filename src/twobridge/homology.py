"""Twisted chain complexes of 2-bridge presentations: twisted Alexander
invariants, the L-function and Delta_0(H_0) as gcd normal forms of
2-minors, and adjoint cohomology dimensions.

Chain conventions for <g1,...,gn | r1,...,r_{n-1}> with a representation
rho of degree 2. Both boundary maps are returned as their presentation
matrices, lists of scalar rows:

  boundary1 is the 2 x 2n matrix (rho(g1)-I, ..., rho(gn)-I) of 2x2
  blocks side by side; it presents H0 (generators = its 2 rows).

  boundary2 is the 2n x 2(n-1) matrix whose block (i,j) is the transpose
  of rho(d r_j / d g_i); for n=2 its four rows are the columns a1..a4 of
  (rho(dr/dg1), rho(dr/dg2)), and it presents the cokernel of the second
  boundary map (generators = its 4 rows). It checks the relation (or
  raises ArithmeticError), then takes the blocks from fox_images, summed
  in trace coordinates over the prefixes of w that the relation check
  cached and turned into matrices once per image.

  The composite of the two maps is the Fox identity pushed through rho:
  sum_i rho(dr_j/dg_i) (rho(g_i) - I) = rho(r_j - 1) = 0, exposed here
  as chain_contraction.

The Fox derivatives are computed once per presentation: pres.fox_w
(dw/dg_i) for fox_images, and pres.fox (dr/dg_i), which twisted_alexander
and ad_cohomology push through their residual representation. The other
2 x 2 facts are SL2 identities read off the matrix entries: the Alexander
denominator det(t rho(g_i) - I) = t^2 - tr rho(g_i) t + 1, the torsion
determinant det(rho(w) - I) = 2 - tr rho(w), and Ad(g) on sl2 (_ad3).
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Sequence

from .laurent import LaurentPoly, divide_exact, eq_up_to_unit
from .matrices import Mat2, mat_identity, mat_mul_modp, mat_sub_modp, rank_modp
from .padics import (
    DivisorNormalForm,
    Indeterminate,
    PadicInt,
    PadicSeries,
    Zp,
    gcd_normal_form,
)
from .presentations import TwoBridgePresentation
from .riley import relation_holds
from .words import FreeWord, gen, reduced_words


# --- boundary maps ---------------------------------------------------------


def _linear_coords(rep, terms) -> list:
    """The trace coordinates of sum c rho(w) over the (w, c) in terms."""
    acc = [rep.zero] * 4
    for w, c in terms:
        acc = [s + u * c for s, u in zip(acc, rep.coords(w))]
    return acc


def apply_rep(rep, elt: dict[FreeWord, int]) -> Mat2:
    """Linear extension of a word representation to the group ring."""
    return rep.matrix(_linear_coords(rep, elt.items()))


def _minus_identity(rep, w: FreeWord) -> Mat2:
    """rho(w) - I."""
    return rep(w) - Mat2.identity(rep.one, rep.zero)


def boundary1(pres: TwoBridgePresentation, rep) -> list[list]:
    b1, b2 = (_minus_identity(rep, gen(i)) for i in (1, 2))
    return [r1 + r2 for r1, r2 in zip(b1.rows(), b2.rows())]


def fox_images(pres: TwoBridgePresentation, rep) -> tuple[Mat2, Mat2]:
    """F_i = (I - rho(g2)) rho(dw/dg_i) + [i=1] rho(w) - [i=2] I, which is
    rho(dr/dg_i) by pres.fox's identity when rho satisfies the relation,
    rho(w g1) == rho(g2 w) (relation_holds); for other rho it is not.
    The pair is kept in rep.fox_images, so a representation pays for it
    once per relator."""
    images = rep.fox_images.get(pres.w)
    if images is None:
        images = rep.fox_images[pres.w] = _fox_images(pres, rep)
    return images


def _fox_images(pres: TwoBridgePresentation, rep) -> tuple[Mat2, Mat2]:
    # each F_i in trace coordinates, with (I - rho(g2)) X as X minus one
    # left multiplication by the letter g2, turned into a matrix once
    f1, f2 = (_linear_coords(rep, d.items()) for d in pres.fox_w)
    f1 = [x - y + z for x, y, z in zip(f1, rep.left((2, 1), f1), rep.coords(pres.w))]
    f2 = [x - y for x, y in zip(f2, rep.left((2, 1), f2))]
    f2[0] = f2[0] - rep.one
    return rep.matrix(f1), rep.matrix(f2)


def boundary2(pres: TwoBridgePresentation, rep) -> list[list]:
    if not relation_holds(pres, rep):
        raise ArithmeticError("boundary2 needs a representation that satisfies the relation")
    return [row for f in fox_images(pres, rep) for row in f.transpose().rows()]


def chain_contraction(pres: TwoBridgePresentation, rep) -> Mat2:
    """sum_i F_i (rho(g_i) - I) over fox_images, the composite of the two
    boundary maps. By the Fox identity for w it equals rho(w g1) - rho(g2 w)
    for every assignment, so it is zero exactly when the relation holds."""
    f1, f2 = fox_images(pres, rep)
    return f1 * _minus_identity(rep, gen(1)) + f2 * _minus_identity(rep, gen(2))


# --- twisted Alexander invariant ----------------------------------------


class AlexanderResult(NamedTuple):
    """Numerator, denominator and (when exact) their quotient for one
    choice of deleted generator index."""

    deleted_index: int
    numerator: LaurentPoly
    denominator: LaurentPoly
    quotient: LaurentPoly | None

    def value_at_one(self) -> PadicInt:
        if self.quotient is not None:
            return self.quotient.evaluate(1)
        den = self.denominator.evaluate(1)
        if not den.is_unit:
            raise Indeterminate("denominator vanishes at t=1 and no exact quotient")
        return self.numerator.evaluate(1) * den.invert_unit()

    def matches(self, expected: LaurentPoly) -> bool:
        """The quotient equals expected up to unit; without an exact
        quotient, the numerator equals expected * denominator up to unit."""
        if self.quotient is not None:
            return eq_up_to_unit(self.quotient, expected)
        return eq_up_to_unit(self.numerator, expected * self.denominator)


class TwistedAlexander(NamedTuple):
    results: tuple[AlexanderResult, ...]

    def primary(self) -> AlexanderResult:
        return self.results[0]

    def value_at_one(self) -> PadicInt:
        return self.primary().value_at_one()


def _phi_matrix(rep, elt: dict[FreeWord, int], laur_ring: Zp) -> Mat2:
    """(rho tensor t^abelianization) applied to a group-ring element: its
    words summed in trace coordinates per exponent sum k, each sum turned
    into a matrix once and placed at t^k."""
    by_power: dict[int, list] = {}
    for w, c in elt.items():
        by_power.setdefault(w.exponent_sum(), []).append((w, c))
    zero = LaurentPoly.zero(laur_ring)
    acc = Mat2.identity(zero, zero)
    for k, terms in by_power.items():
        m = rep.matrix(_linear_coords(rep, terms))
        acc = acc + m.map(lambda e: LaurentPoly(laur_ring, {k: e.r}))
    return acc


def _alexander_denominator(rep, i: int) -> LaurentPoly:
    """det Phi(g_i - 1) = det(t g - I) = det(g) t^2 - tr(g) t + 1 for the
    2 x 2 matrix g = rho(g_i); its constant coefficient 1 keeps it nonzero."""
    g = rep(gen(i))
    return LaurentPoly(rep.ring, {2: g.det().r, 1: -g.trace().r, 0: 1})


def twisted_alexander(pres: TwoBridgePresentation, rep) -> TwistedAlexander:
    """Wada invariant for both deleted indices, with the pairwise
    agreement-up-to-unit assertion built in.

    Deleting block row i of the Fox matrix leaves the derivative by the
    other generator; the denominator uses the same index i:
    Delta_i = det Phi(dr/dg_{3-i}) / det Phi(g_i - 1), the denominator
    read off the generator matrix (_alexander_denominator) and never zero.
    Requires a representation with PadicInt entries (residual or
    specialized); series-valued representations go through l_function.
    """
    ring = rep.ring
    if not isinstance(ring, Zp):
        raise TypeError("twisted_alexander needs PadicInt matrix entries")
    results = []
    for i in (1, 2):
        den = _alexander_denominator(rep, i)
        num = _phi_matrix(rep, pres.fox[2 - i], ring).det()  # dr/dg_{3-i}
        quot = divide_exact(num, den)
        results.append(AlexanderResult(deleted_index=i, numerator=num, denominator=den, quotient=quot))
    ra, rb = results
    if ra.quotient is not None and rb.quotient is not None:
        agree = eq_up_to_unit(ra.quotient, rb.quotient)
    else:
        agree = eq_up_to_unit(ra.numerator * rb.denominator, rb.numerator * ra.denominator)
    if not agree:
        raise ArithmeticError("deleted indices 1 and 2 disagree up to unit")
    return TwistedAlexander(results=tuple(results))


# --- torsion criterion ----------------------------------------------------


class TorsionReport(NamedTuple):
    """Certificate that H1 with universal coefficients is torsion."""

    witness: FreeWord | None
    witness_det: PadicInt | None
    delta_at_one: PadicInt | None
    holds: bool

    @classmethod
    def from_results(cls, witness: tuple, delta_at_one: PadicInt | None) -> TorsionReport:
        """The verdict from torsion_witness and the twisted Alexander value
        at t=1 of the same representation (None when it has none)."""
        word, det = witness
        holds = word is not None and delta_at_one is not None and not delta_at_one.is_zero
        return cls(witness=word, witness_det=det, delta_at_one=delta_at_one, holds=holds)


def det_minus_identity(rep, w: FreeWord) -> PadicInt:
    """det(rho(w) - I), which is 2 - tr rho(w) as rho(w) has determinant 1."""
    return 2 - rep(w).trace()


_TORSION_WORD_LEN = 3


def torsion_witness(rep) -> tuple[FreeWord | None, PadicInt | None]:
    """The first reduced word g (shortest first) with det(rho(g) - I) != 0,
    and that determinant; (None, None) when every word up to length
    _TORSION_WORD_LEN gives 0."""
    for w in reduced_words(_TORSION_WORD_LEN):
        d = det_minus_identity(rep, w)
        if not d.is_zero:
            return w, d
    return None, None


def torsion_criterion(pres: TwoBridgePresentation, rep) -> TorsionReport:
    """Search for g with det(rho(g) - I) != 0, and evaluate Delta(1).

    Both conditions nonzero certify that the first twisted homology of
    the universal deformation is a torsion module.
    """
    try:
        delta1 = twisted_alexander(pres, rep).value_at_one()
    except Indeterminate:
        delta1 = None
    return TorsionReport.from_results(torsion_witness(rep), delta1)


# --- the L-function and Delta_0 -------------------------------------------


class FittingResult(NamedTuple):
    """The 2-minors of a presentation matrix and their gcd normal form
    p^mu T^lam."""

    minors: tuple[PadicSeries, ...]
    normal_form: DivisorNormalForm

    @property
    def certified_unit(self) -> bool:
        return self.normal_form.is_unit_form() and self.normal_form.certified


def _two_minors(vectors: Sequence[Sequence[PadicSeries]]) -> FittingResult:
    """u0 v1 - u1 v0 over the pairs (u, v) of 2-vectors in lexicographic
    order, and the gcd normal form of these minors."""
    if not isinstance(vectors[0][0], PadicSeries):
        raise TypeError("the 2-minor ideals need PadicSeries entries, not %s" % type(vectors[0][0]).__name__)
    minors = tuple(u[0] * v[1] - u[1] * v[0] for u, v in combinations(vectors, 2))
    return FittingResult(minors=minors, normal_form=gcd_normal_form(minors))


def l_function(pres: TwoBridgePresentation, rep) -> FittingResult:
    """Delta_2 of the cokernel presented by boundary2 (4 x 2): the gcd
    normal form p^mu T^lam of its six 2-minors, one per pair of rows."""
    return _two_minors(boundary2(pres, rep))


def delta0_h0(pres: TwoBridgePresentation, rep) -> FittingResult:
    """Delta_0 of H_0, presented by boundary1 (2 x 4): the six 2-minors,
    one per pair of columns."""
    return _two_minors(list(zip(*boundary1(pres, rep))))


# --- consistency of the vanishing/non-vanishing dichotomy ---------------


class VanishingReport(NamedTuple):
    """Cross-check of L against the residual Alexander value at t=1.

    With Delta_0(H_0) a unit: L not a unit forces the residual
    Delta(1) = 0; conversely a nonzero residual Delta(1) together with a
    residual det(rho(g) - I) != 0 forces L to be a unit.
    """

    delta0_unit: bool
    l_form: DivisorNormalForm
    residual_delta_at_one: PadicInt
    consistent: bool

    @classmethod
    def from_results(
        cls, d0: FittingResult, lres: FittingResult, residual_tors: TorsionReport
    ) -> VanishingReport:
        """The dichotomy checked on delta0_h0 and l_function of the family
        and on the torsion report of its residual representation."""
        delta1 = residual_tors.delta_at_one
        if delta1 is None:
            raise Indeterminate("residual Delta(1) could not be evaluated")
        l_unit = lres.normal_form.is_unit_form()
        consistent = True
        if d0.certified_unit and not l_unit:
            consistent = delta1.is_zero
        if residual_tors.holds:
            consistent = consistent and l_unit
        return cls(
            delta0_unit=d0.certified_unit,
            l_form=lres.normal_form,
            residual_delta_at_one=delta1,
            consistent=consistent,
        )


def vanishing_link(pres: TwoBridgePresentation, rep, residual_rep) -> VanishingReport:
    return VanishingReport.from_results(
        delta0_h0(pres, rep), l_function(pres, rep), torsion_criterion(pres, residual_rep)
    )


# --- adjoint cohomology ---------------------------------------------------


def _ad3(m: Mat2, p: int) -> list[list[int]]:
    """Matrix of X -> m X m^-1 on sl2 in the basis (E, H, F), mod p,
    written from the entries of m = [[a, b], [c, d]] of determinant 1."""
    a, b, c, d = m.a.r, m.b.r, m.c.r, m.d.r
    return [
        [a * a % p, -2 * a * b % p, -b * b % p],
        [-a * c % p, (a * d + b * c) % p, b * d % p],
        [-c * c % p, 2 * c * d % p, d * d % p],
    ]


def _ad_of_elt(rep, elt: dict[FreeWord, int], p: int) -> list[list[int]]:
    acc = [[0] * 3 for _ in range(3)]
    for w, c in elt.items():
        m = _ad3(rep(w), p)
        for i in range(3):
            for j in range(3):
                acc[i][j] = (acc[i][j] + c * m[i][j]) % p
    return acc


class CohomologyDims(NamedTuple):
    h0: int
    h1: int
    h2: int
    rank_d0: int
    rank_d1: int

    @property
    def euler(self) -> int:
        return self.h0 - self.h1 + self.h2


def ad_cohomology(pres: TwoBridgePresentation, rep) -> CohomologyDims:
    """Dimensions of H^0, H^1, H^2 of the presentation cochain complex
    with adjoint coefficients, over the residue field.

    d0: sl2 -> sl2^2, X -> (g_i.X - X); d1: sl2^2 -> sl2 from the Fox
    derivatives of the relator through the adjoint representation. The
    composite d1 d0 vanishes; ranks are exact over F_p.
    """
    ring = rep.ring
    if not isinstance(ring, Zp) or ring.N != 1:
        raise ValueError("adjoint cohomology is computed over the residue field")
    p = ring.p
    ident3 = mat_identity(3)
    # d0 stacks the blocks Ad(g_i) - I; d1 puts the Fox blocks side by side
    d0_rows = [row for i in (1, 2) for row in mat_sub_modp(_ad3(rep(gen(i)), p), ident3, p)]
    blk1, blk2 = (_ad_of_elt(rep, d, p) for d in pres.fox)
    d1_rows = [r1 + r2 for r1, r2 in zip(blk1, blk2)]
    comp = mat_mul_modp(d1_rows, d0_rows, p)
    if any(any(x % p for x in row) for row in comp):
        raise ArithmeticError("d1 d0 != 0; representation does not satisfy the relation")
    r0 = rank_modp(d0_rows, p)
    r1 = rank_modp(d1_rows, p)
    return CohomologyDims(h0=3 - r0, h1=6 - r1 - r0, h2=3 - r1, rank_d0=r0, rank_d1=r1)
