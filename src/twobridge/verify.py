"""End-to-end check of one worked example against its reference data.

run_example computes every pipeline stage at one precision and returns
a row-per-check report. Its character-curve row checks that the family
lies on the Riley curve at full precision: Psi(tr rho(g1), tr rho(g1 g2))
is exactly zero in Z/p^N[[T]]/T^(D+1). verify_example repeats the run at
escalated precision and additionally requires the L normal form to be
stable; the stages that read only the residual representation
(ResidualStages), and the presentation with its Fox images and Riley
polynomial, are computed once and shared by both runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .deformations import (
    DeformationFamily,
    Representation,
    build_family,
    character_curve_value,
    specialize_family,
    universality_certificate,
)
from .homology import (
    CohomologyDims,
    TorsionReport,
    TwistedAlexander,
    VanishingReport,
    ad_cohomology,
    chain_contraction,
    delta0_h0,
    det_minus_identity,
    l_function,
    torsion_witness,
    twisted_alexander,
)
from .laurent import LaurentPoly
from .padics import DivisorNormalForm, Indeterminate, PadicInt
from .presentations import TwoBridgePresentation
from .registry import RILEY_PSI_TERMS, get_example
from .riley import char_points
from .words import FreeWord, gen


@dataclass(frozen=True)
class CheckRow:
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class ResidualStages:
    """The stages of run_example that read only the residual
    representation, so do not depend on the precision (N, D); and the
    presentation, which caches its Fox images and Riley polynomial."""

    pres: TwoBridgePresentation
    rep: Representation
    alexander: TwistedAlexander
    delta_at_one: PadicInt
    irreducible_points: frozenset[tuple[int, int]]
    cohomology: CohomologyDims
    torsion_witness: tuple[FreeWord | None, PadicInt | None]


def residual_stages(fam: DeformationFamily) -> ResidualStages:
    res_rep = fam.rep.residual()
    ta = twisted_alexander(fam.pres, res_rep)
    return ResidualStages(
        pres=fam.pres,
        rep=res_rep,
        alexander=ta,
        delta_at_one=ta.value_at_one(),
        irreducible_points=frozenset(
            (pt.x, pt.y) for pt in char_points(fam.pres, fam.p) if pt.absolutely_irreducible
        ),
        cohomology=ad_cohomology(fam.pres, res_rep),
        torsion_witness=torsion_witness(res_rep),
    )


@dataclass(frozen=True)
class RunReport:
    example_id: str
    N: int
    D: int
    rows: tuple[CheckRow, ...]
    l_form: DivisorNormalForm | None
    residual: ResidualStages | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_json(self) -> dict:
        return {
            "example_id": self.example_id,
            "N": self.N,
            "D": self.D,
            "rows": [r.to_json() for r in self.rows],
            "l": self.l_form.to_json() if self.l_form else None,
            "ok": self.ok,
        }


def run_example(
    example_id: str, N: int = 8, D: int = 8, residual: ResidualStages | None = None
) -> RunReport:
    """One run at (N, D); residual, when given, is the example's
    ResidualStages from a run at another precision."""
    ex = get_example(example_id)
    rows: list[CheckRow] = []

    def row(name: str, passed: bool, detail: str = "") -> None:
        rows.append(CheckRow(name=name, passed=bool(passed), detail=detail))

    fam = build_family(ex.family_key, N=N, D=D, pres=residual.pres if residual else None)
    pres, p = fam.pres, fam.p

    data = pres.riley
    got_terms = {(i, j): c for i, j, c in data.psi.sorted_terms()}
    row(
        "riley",
        got_terms == RILEY_PSI_TERMS[(pres.m, pres.n)],
        "psi(x,y) = %s" % data.psi.text(("x", "y")),
    )

    cert = universality_certificate(fam)
    row(
        "certificate",
        cert.ok,
        "trace=%s relation=%s residual=%s point=%s dPsi/dy=%d"
        % (cert.trace_ok, cert.relation_ok, cert.residual_ok, cert.point_ok, cert.psi_derivative),
    )

    psi_xy = character_curve_value(fam)
    row(
        "character-curve",
        psi_xy.is_zero,
        "Psi(tr rho(g1), tr rho(g1 g2)) %s 0 in Z/%d^%d[[T]]/T^%d"
        % ("=" if psi_xy.is_zero else "!=", p, N, D + 1),
    )

    contraction = chain_contraction(pres, fam.rep)
    contraction_zero = all(e.is_zero for r in contraction.rows() for e in r)
    row("chain-contraction", contraction_zero, "sum rho(dr/dg_i)(rho(g_i)-1) = 0")

    res = residual or residual_stages(fam)
    res_rep = res.rep
    det_g2 = det_minus_identity(res_rep, gen(2)).residue()
    row("residual-det-g2", det_g2 == ex.residual_det_g2 % p, "det(rho(g2)-I) = %d mod %d" % (det_g2, p))

    prim = res.alexander.primary()
    delta_match = prim.matches(LaurentPoly(res_rep.ring, dict(ex.residual_delta_coeffs)))
    row("alexander-residual", delta_match, "Delta = %s (up to unit)" % (prim.quotient or prim.numerator))

    delta1 = res.delta_at_one
    row(
        "alexander-residual-at-1",
        delta1.residue() == ex.residual_delta_at_one_residue % p,
        "Delta(1) = %d mod %d" % (delta1.residue(), p),
    )

    row(
        "char-point",
        fam.char_point in res.irreducible_points,
        "(%d, %d) absolutely irreducible over F_%d" % (*fam.char_point, p),
    )

    coh = res.cohomology
    row(
        "adjoint-cohomology",
        coh.h0 == 0 and coh.h1 == coh.h2 and coh.h2 >= 1 and coh.euler == 0,
        "h0=%d h1=%d h2=%d" % (coh.h0, coh.h1, coh.h2),
    )

    d0 = delta0_h0(pres, fam.rep)
    row("delta0", d0.certified_unit == ex.expected_delta0_unit, "Delta_0(H_0) unit: %s" % d0.certified_unit)

    lres = l_function(pres, fam.rep)
    nf = lres.normal_form
    row(
        "l-function",
        (nf.mu, nf.lam) == ex.expected_l and nf.certified,
        "L = p^%d T^%d certified=%s" % (nf.mu, nf.lam, nf.certified),
    )

    if ex.expected_minors is not None:
        expected = ex.expected_minors(fam)
        row(
            "minors-closed-form",
            list(lres.minors) == list(expected),
            "six 2-minors match closed forms coefficientwise",
        )

    res_tors = tors = TorsionReport.from_results(res.torsion_witness, delta1)
    if ex.x_rat is not None:
        spec = specialize_family(fam, ex.x_rat)
        sdet = det_minus_identity(spec.rep, gen(2))
        row("specialized-det-g2", sdet == ex.spec_det_g2, "det(rho(g2)-I) = %s at x=%d" % (sdet, ex.x_rat))
        sta = twisted_alexander(pres, spec.rep)
        smatch = sta.primary().matches(ex.expected_spec_delta(spec))
        row("specialized-alexander", smatch, "Delta at x=%d matches (up to unit)" % ex.x_rat)
        sdelta1 = sta.value_at_one()
        sagree = sdelta1 == ex.expected_spec_delta_at_one(spec)
        if sagree and sdelta1.is_zero:
            # a value in Z/p^N that reads 0 is not shown to be 0
            raise Indeterminate(
                "specialized-alexander-at-1: Delta(1) = 0 mod %d^%d; "
                "N = %d cannot decide whether it is nonzero" % (p, N, N)
            )
        row("specialized-alexander-at-1", sagree, "Delta(1) = %s nonzero" % sdelta1)
        tors = TorsionReport.from_results(torsion_witness(spec.rep), sdelta1)
    row(
        "torsion",
        tors.holds,
        "witness %s, det = %s, Delta(1) = %s" % (tors.witness, tors.witness_det, tors.delta_at_one),
    )

    link = VanishingReport.from_results(d0, lres, res_tors)
    row(
        "vanishing-link",
        link.consistent,
        "Delta_0 unit=%s, L=(mu=%d,lam=%d), residual Delta(1)=%s"
        % (link.delta0_unit, link.l_form.mu, link.l_form.lam, link.residual_delta_at_one),
    )

    return RunReport(example_id=example_id, N=N, D=D, rows=tuple(rows), l_form=nf, residual=res)


# the escalated run adds this to both N and D
ESCALATION_STEP = 4


@dataclass(frozen=True)
class VerifyReport:
    base: RunReport
    escalated: RunReport
    stable: bool

    @property
    def ok(self) -> bool:
        return self.base.ok and self.escalated.ok and self.stable

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "escalated": self.escalated.to_json(),
            "stable": self.stable,
            "ok": self.ok,
        }


def verify_example(example_id: str, N: int = 8, D: int = 8) -> VerifyReport:
    base = run_example(example_id, N=N, D=D)
    escalated = run_example(
        example_id, N=N + ESCALATION_STEP, D=D + ESCALATION_STEP, residual=base.residual
    )
    stable = (
        base.l_form is not None
        and escalated.l_form is not None
        and base.l_form.same_divisor(escalated.l_form)
        and base.l_form.certified == escalated.l_form.certified
    )
    return VerifyReport(base=base, escalated=escalated, stable=stable)
