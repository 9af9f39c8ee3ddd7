"""Twisted chain complexes of 2-bridge presentations: twisted Alexander
invariants, Fitting ideals, the L-function normal form, and adjoint
cohomology dimensions.

Chain conventions for <g1,...,gn | r1,...,r_{n-1}> with a representation
rho of degree 2. Both boundary maps are returned as their presentation
matrices, lists of scalar rows:

  boundary1 is the 2 x 2n matrix (rho(g1)-I, ..., rho(gn)-I) of 2x2
  blocks side by side; it presents H0 (generators = its 2 rows).

  boundary2 is the 2n x 2(n-1) matrix whose block (i,j) is the transpose
  of rho(d r_j / d g_i); for n=2 its four rows are the columns a1..a4 of
  (rho(dr/dg1), rho(dr/dg2)), and it presents the cokernel of the second
  boundary map (generators = its 4 rows).

  The composite of the two maps is the Fox identity pushed through rho:
  sum_i rho(dr_j/dg_i) (rho(g_i) - I) = rho(r_j - 1) = 0, exposed here
  as chain_contraction.

The Fox images dr/dg_i come from pres.fox, computed once per
presentation; boundary2, twisted_alexander and ad_cohomology only push
them through their representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .groupring import GroupRingElement
from .laurent import LaurentPoly, divide_exact, eq_up_to_unit, laurent_gcd
from .matrices import Mat2, det_general, mat_identity, mat_mul_modp, mat_sub_modp, rank_modp
from .padics import (
    DivisorNormalForm,
    Indeterminate,
    PadicInt,
    PadicSeries,
    Zp,
    gcd_normal_form,
)
from .presentations import TwoBridgePresentation
from .words import FreeWord, gen, reduced_words


class DegenerateRepresentation(ArithmeticError):
    """No admissible deleted index for the twisted Alexander invariant."""


# --- boundary maps ---------------------------------------------------------


def apply_rep(rep, elt: GroupRingElement) -> Mat2:
    """Linear extension of a word representation to the group ring."""
    acc = Mat2.identity(rep.zero, rep.zero)
    for w, c in elt.items():
        acc = acc + rep(w).scale(c)
    return acc


def _minus_identity(rep, w: FreeWord) -> Mat2:
    """rho(w) - I."""
    return rep(w) - Mat2.identity(rep.one, rep.zero)


def boundary1(pres: TwoBridgePresentation, rep) -> list[list]:
    b1, b2 = (_minus_identity(rep, gen(i)) for i in (1, 2))
    return [r1 + r2 for r1, r2 in zip(b1.rows(), b2.rows())]


def boundary2(pres: TwoBridgePresentation, rep) -> list[list]:
    return [row for d in pres.fox for row in apply_rep(rep, d).transpose().rows()]


def chain_contraction(pres: TwoBridgePresentation, rep) -> Mat2:
    """sum_i rho(dr/dg_i) (rho(g_i) - I), the composite of the two
    boundary maps. Zero for every representation satisfying the relation."""
    acc = Mat2.identity(rep.zero, rep.zero)
    for i, d in enumerate(pres.fox, 1):
        acc = acc + apply_rep(rep, d) * _minus_identity(rep, gen(i))
    return acc


# --- twisted Alexander invariant ----------------------------------------


@dataclass(frozen=True)
class AlexanderResult:
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

    def to_json(self) -> dict:
        out = {
            "deleted_index": self.deleted_index,
            "numerator": self.numerator.to_json()["coeffs"],
            "denominator": self.denominator.to_json()["coeffs"],
        }
        out["quotient"] = self.quotient.to_json()["coeffs"] if self.quotient else None
        return out


@dataclass(frozen=True)
class TwistedAlexander:
    results: tuple[AlexanderResult, ...]

    def primary(self) -> AlexanderResult:
        return self.results[0]

    def value_at_one(self) -> PadicInt:
        return self.primary().value_at_one()


def _phi_matrix(rep, elt: GroupRingElement, laur_ring: Zp) -> Mat2:
    """(rho tensor t^abelianization) applied to a group-ring element."""
    zero = LaurentPoly.zero(laur_ring)
    acc = Mat2.identity(zero, zero)
    for w, c in elt.items():
        m = rep(w)
        k = w.exponent_sum()
        lift = m.map(lambda e: LaurentPoly(laur_ring, {k: e.r * c}))
        acc = acc + lift
    return acc


def twisted_alexander(pres: TwoBridgePresentation, rep) -> TwistedAlexander:
    """Wada invariant for both deleted indices, with the pairwise
    agreement-up-to-unit assertion built in.

    Deleting block row i of the Fox matrix leaves the derivative by the
    other generator; the denominator uses the same index i:
    Delta_i = det Phi(dr/dg_{3-i}) / det Phi(g_i - 1).
    Requires a representation with PadicInt entries (residual or
    specialized); series-valued representations go through l_function.
    """
    ring = rep.ring
    if not isinstance(ring, Zp):
        raise TypeError("twisted_alexander needs PadicInt matrix entries")
    zero = LaurentPoly.zero(ring)
    results = []
    for i in (1, 2):
        den_elt = GroupRingElement.from_word(gen(i)) - GroupRingElement.one()
        den = det_general(_phi_matrix(rep, den_elt, ring).rows(), zero)
        if den.is_zero:
            continue
        num = det_general(_phi_matrix(rep, pres.fox[2 - i], ring).rows(), zero)  # dr/dg_{3-i}
        quot = divide_exact(num, den)
        results.append(AlexanderResult(deleted_index=i, numerator=num, denominator=den, quotient=quot))
    if not results:
        raise DegenerateRepresentation("det Phi(g_i - 1) = 0 for every generator")
    for ra, rb in combinations(results, 2):
        if ra.quotient is not None and rb.quotient is not None:
            agree = eq_up_to_unit(ra.quotient, rb.quotient)
        else:
            agree = eq_up_to_unit(ra.numerator * rb.denominator, rb.numerator * ra.denominator)
        if not agree:
            raise ArithmeticError(
                "deleted indices %d and %d disagree up to unit" % (ra.deleted_index, rb.deleted_index)
            )
    return TwistedAlexander(results=tuple(results))


# --- torsion criterion ----------------------------------------------------


@dataclass(frozen=True)
class TorsionReport:
    """Certificate that H1 with universal coefficients is torsion."""

    witness: FreeWord | None
    witness_det: PadicInt | None
    delta_at_one: PadicInt | None
    holds: bool

    def to_json(self) -> dict:
        return {
            "witness": str(self.witness) if self.witness else None,
            "witness_det": str(self.witness_det) if self.witness_det is not None else None,
            "delta_at_one": str(self.delta_at_one) if self.delta_at_one is not None else None,
            "holds": self.holds,
        }

    @classmethod
    def from_results(cls, witness: tuple, delta_at_one: PadicInt | None) -> TorsionReport:
        """The verdict from torsion_witness and the twisted Alexander value
        at t=1 of the same representation (None when it has none)."""
        word, det = witness
        holds = word is not None and delta_at_one is not None and not delta_at_one.is_zero
        return cls(witness=word, witness_det=det, delta_at_one=delta_at_one, holds=holds)


def det_minus_identity(rep, w: FreeWord) -> PadicInt:
    """det(rho(w) - I)."""
    return _minus_identity(rep, w).det()


def torsion_witness(rep, max_len: int = 3) -> tuple[FreeWord | None, PadicInt | None]:
    """The first reduced word g (shortest first) with det(rho(g) - I) != 0,
    and that determinant; (None, None) when every word up to max_len gives 0."""
    for w in reduced_words(max_len, include_identity=False):
        d = det_minus_identity(rep, w)
        if not d.is_zero:
            return w, d
    return None, None


def torsion_criterion(pres: TwoBridgePresentation, rep, max_len: int = 3) -> TorsionReport:
    """Search for g with det(rho(g) - I) != 0, and evaluate Delta(1).

    Both conditions nonzero certify that the first twisted homology of
    the universal deformation is a torsion module.
    """
    try:
        delta1 = twisted_alexander(pres, rep).value_at_one()
    except (DegenerateRepresentation, Indeterminate):
        delta1 = None
    return TorsionReport.from_results(torsion_witness(rep, max_len), delta1)


# --- Fitting ideals -------------------------------------------------------


@dataclass(frozen=True)
class FittingResult:
    """E_d of a presentation matrix (generators = rows).

    kind is "unit" (d >= #rows), "zero" (#rows - d > #cols), or
    "proper"; for proper ideals the minors are listed in lexicographic
    (row-combination, column-combination) order.
    """

    d: int
    kind: str
    minors: tuple
    normal_form: object | None

    @property
    def certified_unit(self) -> bool:
        """A certified unit normal form; only proper ideals carry one."""
        nf = self.normal_form
        return isinstance(nf, DivisorNormalForm) and nf.is_unit_form() and nf.certified


def fitting_minors(rows: Sequence[Sequence], d: int) -> FittingResult:
    n = len(rows)
    m = len(rows[0]) if rows else 0
    if d >= n:
        return FittingResult(d=d, kind="unit", minors=(), normal_form=None)
    k = n - d
    if k > m:
        return FittingResult(d=d, kind="zero", minors=(), normal_form=None)
    zero = rows[0][0] * 0
    minors = []
    for rsel in combinations(range(n), k):
        for csel in combinations(range(m), k):
            sub = [[rows[i][j] for j in csel] for i in rsel]
            minors.append(det_general(sub, zero))
    return FittingResult(d=d, kind="proper", minors=tuple(minors), normal_form=None)


def fitting_delta(rows: Sequence[Sequence], d: int) -> FittingResult:
    """Minors plus their gcd normal form.

    PadicSeries entries give a DivisorNormalForm; LaurentPoly entries
    over F_p give a monic Laurent gcd; PadicInt entries give a
    DivisorNormalForm with lam = 0.
    """
    res = fitting_minors(rows, d)
    if res.kind != "proper":
        return res
    sample = res.minors[0]
    if isinstance(sample, PadicSeries):
        nf = gcd_normal_form(res.minors)
    elif isinstance(sample, LaurentPoly):
        nf = laurent_gcd(list(res.minors))
    elif isinstance(sample, PadicInt):
        vals = [m.valuation() for m in res.minors]
        mu = min(vals)
        if mu >= sample.ring.N:
            raise Indeterminate("all minors vanish at precision p^N")
        nf = DivisorNormalForm(mu=mu, lam=0, certified=True)
    else:
        raise TypeError("unsupported entry type %r" % type(sample))
    return FittingResult(d=res.d, kind="proper", minors=res.minors, normal_form=nf)


# --- the L-function -------------------------------------------------------


@dataclass(frozen=True)
class LFunctionResult:
    minors: tuple[PadicSeries, ...]
    normal_form: DivisorNormalForm

    def to_json(self) -> dict:
        return {
            "normal_form": self.normal_form.to_json(),
            "minors": [m.to_json()["coeffs"] for m in self.minors],
        }


def l_function(pres: TwoBridgePresentation, rep) -> LFunctionResult:
    """Delta_2 of the cokernel presented by boundary2: the gcd normal
    form p^mu T^lam of its six 2-minors."""
    res = fitting_delta(boundary2(pres, rep), d=2)
    return LFunctionResult(minors=res.minors, normal_form=res.normal_form)


def delta0_h0(pres: TwoBridgePresentation, rep) -> FittingResult:
    """Delta_0 of H_0, presented by boundary1 (2 generators, 4 relations)."""
    return fitting_delta(boundary1(pres, rep), d=0)


# --- consistency of the vanishing/non-vanishing dichotomy ---------------


@dataclass(frozen=True)
class VanishingReport:
    """Cross-check of L against the residual Alexander value at t=1.

    With Delta_0(H_0) a unit: L not a unit forces the residual
    Delta(1) = 0; conversely a nonzero residual Delta(1) together with a
    residual det(rho(g) - I) != 0 forces L to be a unit.
    """

    delta0_unit: bool
    l_form: DivisorNormalForm
    residual_delta_at_one: PadicInt
    consistent: bool

    def to_json(self) -> dict:
        return {
            "delta0_unit": self.delta0_unit,
            "l": self.l_form.to_json(),
            "residual_delta_at_one": str(self.residual_delta_at_one),
            "consistent": self.consistent,
        }

    @classmethod
    def from_results(
        cls, d0: FittingResult, lres: LFunctionResult, residual_tors: TorsionReport
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
    """Matrix of X -> m X m^-1 on sl2 in the basis (E, H, F), mod p."""
    minv = m.sl2_inverse()
    cols = []
    basis = [Mat2(0, 1, 0, 0), Mat2(1, 0, 0, -1), Mat2(0, 0, 1, 0)]
    for X in basis:
        img = m.map(lambda e: e.r) * X * minv.map(lambda e: e.r)
        cols.append([img.b % p, img.a % p, img.c % p])
    return [[cols[j][i] for j in range(3)] for i in range(3)]


def _ad_of_elt(rep, elt: GroupRingElement, p: int) -> list[list[int]]:
    acc = [[0] * 3 for _ in range(3)]
    for w, c in elt.items():
        m = _ad3(rep(w), p)
        for i in range(3):
            for j in range(3):
                acc[i][j] = (acc[i][j] + c * m[i][j]) % p
    return acc


@dataclass(frozen=True)
class CohomologyDims:
    h0: int
    h1: int
    h2: int
    rank_d0: int
    rank_d1: int

    @property
    def euler(self) -> int:
        return self.h0 - self.h1 + self.h2

    def to_json(self) -> dict:
        return {"h0": self.h0, "h1": self.h1, "h2": self.h2}


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
