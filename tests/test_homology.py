"""Twisted chain complexes: Alexander invariants, Fitting ideals,
L-function normal forms, torsion certificates, adjoint cohomology.

The trefoil Alexander goldens below were derived by hand before being
frozen: with the residual matrices g1 = (0 2; 1 2), g2 = (2 2; 1 0)
over F_3, Phi(dr/dg2) = t*rho(g1) - t^2*rho(g1 g2 g1 g2^-1) - I has
determinant 1 + t + 2t^2 + t^3 + t^4, and det(t*rho(g1) - I) =
1 + t + t^2; long division gives 1 + t^2 exactly.
"""

import random

import pytest

from twobridge.deformations import Representation, build_family, specialize_family
from twobridge.groupring import GroupRingElement
from twobridge.homology import (
    AlexanderResult,
    DegenerateRepresentation,
    FittingResult,
    LFunctionResult,
    TorsionReport,
    VanishingReport,
    ad_cohomology,
    apply_rep,
    boundary1,
    boundary2,
    chain_contraction,
    delta0_h0,
    fitting_delta,
    fitting_minors,
    l_function,
    torsion_criterion,
    twisted_alexander,
    vanishing_link,
)
from twobridge.laurent import LaurentPoly, eq_up_to_unit
from twobridge.matrices import Mat2
from twobridge.padics import DivisorNormalForm, Indeterminate, Zp
from twobridge.presentations import two_bridge
from twobridge.riley import build_modp_rep, char_points
from twobridge.words import FreeWord, gen

KEYS = ("rho1", "rho2", "rho3", "rho4")
FAMILIES = {k: build_family(k) for k in KEYS}


def _pair_rep(p, mats):
    ring = Zp(p, 1)
    to_m = lambda rows: Mat2(*(ring(v) for r in rows for v in r))
    return Representation(ring, {1: to_m(mats[0]), 2: to_m(mats[1])})


TREFOIL_RES = _pair_rep(3, (((0, 2), (1, 2)), ((2, 2), (1, 0))))


# --- chain complex basics --------------------------------------------------


def test_boundary_shapes():
    rows = boundary1(two_bridge(3, 1), TREFOIL_RES)
    assert len(rows) == 2 and all(len(r) == 4 for r in rows)
    rows = boundary2(two_bridge(3, 1), TREFOIL_RES)
    assert len(rows) == 4 and all(len(r) == 2 for r in rows)


def test_boundary_blocks():
    # boundary1 puts rho(g_i) - I side by side; boundary2 stacks the
    # transposed images of the Fox derivatives, dr/dg1 on top
    pres, rep = two_bridge(3, 1), TREFOIL_RES
    ring = rep.ring
    ident = Mat2.identity(ring.one, ring.zero)
    b1 = boundary1(pres, rep)
    for i in (1, 2):
        block = Mat2(*(b1[r][c] for r in range(2) for c in (2 * i - 2, 2 * i - 1)))
        assert block == rep(gen(i)) - ident
    b2 = boundary2(pres, rep)
    for i, d in enumerate(pres.fox):
        assert Mat2(*b2[2 * i], *b2[2 * i + 1]) == apply_rep(rep, d).transpose()


def test_apply_rep_linearity():
    ring = TREFOIL_RES.ring
    e = GroupRingElement.one()
    g1 = GroupRingElement.from_word(gen(1))
    got = apply_rep(TREFOIL_RES, e + g1 * 2)
    ident = Mat2.identity(ring.one, ring.zero)
    assert got == ident + TREFOIL_RES(gen(1)).scale(ring(2))


@pytest.mark.parametrize("key", KEYS)
def test_chain_contraction_vanishes(key):
    fam = FAMILIES[key]
    for rep in (fam.rep, fam.rep.residual()):
        m = chain_contraction(fam.pres, rep)
        assert all(e.is_zero for e in (m.a, m.b, m.c, m.d))


def test_chain_contraction_detects_non_representation():
    bad = _pair_rep(3, (((1, 1), (0, 1)), ((1, 0), (1, 1))))
    m = chain_contraction(two_bridge(3, 1), bad)
    assert not all(e.is_zero for e in (m.a, m.b, m.c, m.d))


# --- twisted Alexander -----------------------------------------------------


def test_trefoil_alexander_goldens():
    ta = twisted_alexander(two_bridge(3, 1), TREFOIL_RES)
    ring = TREFOIL_RES.ring
    num = LaurentPoly(ring, {0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    den = LaurentPoly(ring, {0: 1, 1: 1, 2: 1})
    quot = LaurentPoly(ring, {0: 1, 2: 1})
    assert len(ta.results) == 2
    for r in ta.results:
        assert r.numerator == num
        assert r.denominator == den
        assert r.quotient == quot
        assert r.value_at_one() == ring(2)
    assert ta.primary().deleted_index == 1
    assert ta.value_at_one() == ring(2)


def test_figure_eight_alexander_goldens():
    fam = FAMILIES["rho2"]
    ta = twisted_alexander(fam.pres, fam.rep.residual())
    ring = Zp(7, 1)
    quot = LaurentPoly(ring, {-2: 1, -1: 4, 0: 1})
    for r in ta.results:
        assert r.quotient == quot
        assert r.denominator == LaurentPoly(ring, {0: 1, 1: 2, 2: 1})
    assert ta.value_at_one() == ring(6)


def test_residual_alexander_at_one_vanishes_for_rho3_rho4():
    for key, p in (("rho3", 11), ("rho4", 19)):
        fam = FAMILIES[key]
        ta = twisted_alexander(fam.pres, fam.rep.residual())
        assert ta.value_at_one() == Zp(p, 1)(0)


def test_twisted_alexander_rejects_series_entries():
    fam = FAMILIES["rho1"]
    with pytest.raises(TypeError):
        twisted_alexander(fam.pres, fam.rep)


def test_alexander_json_and_indeterminate_value():
    ring = Zp(3, 1)
    den = LaurentPoly(ring, {0: 1, 1: 1, 2: 1})  # vanishes at t=1 mod 3
    r = AlexanderResult(deleted_index=1, numerator=den, denominator=den, quotient=None)
    with pytest.raises(Indeterminate):
        r.value_at_one()
    ok = AlexanderResult(
        deleted_index=1,
        numerator=LaurentPoly(ring, {0: 2}),
        denominator=LaurentPoly(ring, {0: 2}),
        quotient=None,
    )
    assert ok.value_at_one() == ring(1)
    js = r.to_json()
    assert js["deleted_index"] == 1 and js["quotient"] is None


def test_deleted_index_agreement_on_char_point_reps():
    # every rationally realizable a.i. point gives a pair whose two
    # deleted-index invariants agree up to unit
    checked = 0
    for m, n, p in [(3, 1, 3), (5, 3, 7), (7, 3, 11), (7, 3, 19), (3, 1, 7), (5, 3, 5)]:
        pres = two_bridge(m, n)
        for q in char_points(pres, p):
            if not q.absolutely_irreducible:
                continue
            pair = build_modp_rep(pres, p, q.x, q.y)
            if pair is None:
                continue
            rep = Representation(Zp(p, 1), {1: pair[0], 2: pair[1]})
            ta = twisted_alexander(pres, rep)
            # det(t rho(g) - I) has constant coefficient 1: both survive
            assert len(ta.results) == 2
            a, b = ta.results
            if a.quotient is not None and b.quotient is not None:
                assert eq_up_to_unit(a.quotient, b.quotient)
            else:
                assert eq_up_to_unit(
                    a.numerator * b.denominator, b.numerator * a.denominator
                )
            checked += 1
    assert checked >= 20


def test_degenerate_representation_contract():
    assert issubclass(DegenerateRepresentation, ArithmeticError)
    # unreachable through twisted_alexander for 2x2 input: the
    # denominator det(t*rho(g) - I) always has constant coefficient 1
    rng = random.Random(2)
    ring = Zp(5, 1)
    for _ in range(20):
        mats = [[[rng.randrange(5) for _ in range(2)] for _ in range(2)] for _ in range(2)]
        rep = _pair_rep(5, mats)
        from twobridge.homology import _phi_matrix

        elt = GroupRingElement.from_word(gen(1)) - GroupRingElement.one()
        den = _phi_matrix(rep, elt, ring)
        from twobridge.matrices import det_general

        d = det_general(den.rows(), LaurentPoly.zero(ring))
        assert d.coefficient(0) == ring(1)


# --- torsion criterion ------------------------------------------------------


def test_torsion_witnesses():
    fam = FAMILIES["rho1"]
    rpt = torsion_criterion(fam.pres, fam.rep.residual())
    assert rpt.holds
    assert rpt.witness == gen(1) * gen(2)
    assert rpt.witness_det == Zp(3, 1)(1)
    assert rpt.delta_at_one == Zp(3, 1)(2)

    fam = FAMILIES["rho2"]
    rpt = torsion_criterion(fam.pres, fam.rep.residual())
    assert rpt.holds
    assert rpt.witness == gen(1)
    assert rpt.witness_det == Zp(7, 1)(4)

    js = rpt.to_json()
    assert js["holds"] is True and js["witness"] == "g1"


def test_torsion_fails_for_residual_rho3_rho4_but_holds_specialized():
    for key, x_rat in (("rho3", 5), ("rho4", 6)):
        fam = FAMILIES[key]
        res_rpt = torsion_criterion(fam.pres, fam.rep.residual())
        assert res_rpt.witness is not None
        assert not res_rpt.holds  # residual Delta(1) = 0
        assert res_rpt.delta_at_one.is_zero
        spec = specialize_family(fam, x_rat)
        spec_rpt = torsion_criterion(fam.pres, spec.rep)
        assert spec_rpt.holds
        assert spec_rpt.witness == gen(1)
        assert spec_rpt.witness_det == fam.ring.base(2) - spec.x_value


# --- Fitting ideals ---------------------------------------------------------


def test_fitting_edge_kinds():
    R = Zp(5, 2)
    rows = [[R(1), R(2)], [R(3), R(4)]]
    assert fitting_minors(rows, 2).kind == "unit"
    assert fitting_minors(rows, 5).kind == "unit"
    tall = [[R(1)], [R(2)], [R(3)]]
    assert fitting_minors(tall, 1).kind == "zero"  # 2 rows to delete, 1 column
    res = fitting_minors(rows, 1)
    assert res.kind == "proper"
    assert res.minors == (R(1), R(2), R(3), R(4))


def test_fitting_minor_count_and_order():
    R = Zp(5, 1)
    rows = [[R(v) for v in row] for row in ((1, 0), (0, 1), (2, 0), (0, 3))]
    res = fitting_minors(rows, 2)
    # C(4,2) row choices x C(2,2) column choice, lexicographic
    assert len(res.minors) == 6
    # rows (0,1) -> det I = 1; rows (2,3) -> det diag(2,3) = 6 = 1 mod 5
    assert res.minors[0] == R(1)
    assert res.minors[5] == R(1)


def test_fitting_delta_padic_int():
    R = Zp(5, 3)
    rows = [[R(25), R(10)], [R(50), R(125)]]
    res = fitting_delta(rows, 1)
    nf = res.normal_form
    assert isinstance(nf, DivisorNormalForm)
    assert (nf.mu, nf.lam, nf.certified) == (1, 0, True)
    with pytest.raises(Indeterminate):
        fitting_delta([[R(0), R(125)]], 0)


def test_fitting_delta_laurent():
    ring = Zp(5, 1)
    t = lambda d: LaurentPoly(ring, d)
    rows = [[t({0: -1, 1: 1}) * t({0: -2, 1: 1})], [t({0: -1, 1: 1}) * t({0: -3, 1: 1})]]
    res = fitting_delta(rows, 1)
    assert res.normal_form == t({0: -1, 1: 1})


def test_fitting_delta_series():
    fam = FAMILIES["rho1"]
    T = fam.ring.T
    rows = [[T * T, T ** 3], [fam.ring.zero, T ** 4]]
    res = fitting_delta(rows, 1)
    assert (res.normal_form.mu, res.normal_form.lam) == (0, 2)


# --- L-function and Delta_0 -------------------------------------------------


L_EXPECTED = {"rho1": (0, 0), "rho2": (0, 0), "rho3": (0, 2), "rho4": (0, 2)}


@pytest.mark.parametrize("key", KEYS)
def test_l_function_normal_forms(key):
    fam = FAMILIES[key]
    res = l_function(fam.pres, fam.rep)
    assert len(res.minors) == 6
    nf = res.normal_form
    assert (nf.mu, nf.lam) == L_EXPECTED[key]
    assert nf.certified
    js = res.to_json()
    assert js["normal_form"]["mu"] == nf.mu and len(js["minors"]) == 6


@pytest.mark.parametrize("key", KEYS)
def test_delta0_is_unit(key):
    fam = FAMILIES[key]
    res = delta0_h0(fam.pres, fam.rep)
    assert res.kind == "proper"
    assert res.normal_form.is_unit_form()
    assert res.normal_form.certified


@pytest.mark.parametrize("key", KEYS)
def test_vanishing_link_consistent(key):
    fam = FAMILIES[key]
    rpt = vanishing_link(fam.pres, fam.rep, fam.rep.residual())
    assert rpt.consistent
    assert rpt.delta0_unit
    assert (rpt.l_form.mu, rpt.l_form.lam) == L_EXPECTED[key]
    if key in ("rho1", "rho2"):
        assert not rpt.residual_delta_at_one.is_zero
    else:
        assert rpt.residual_delta_at_one.is_zero
    js = rpt.to_json()
    assert js["consistent"] is True


def test_vanishing_rule_negative_branch():
    # Delta_0 a unit and L = T^2 force the residual Delta(1) = 0; a
    # nonzero one is inconsistent, with or without a torsion witness
    F = Zp(3, 1)
    d0 = FittingResult(d=0, kind="proper", minors=(), normal_form=DivisorNormalForm(0, 0, True))
    lres = LFunctionResult(minors=(), normal_form=DivisorNormalForm(0, 2, True))
    for witness in ((None, None), (gen(1), F(1))):
        tors = TorsionReport.from_results(witness, twisted_alexander(two_bridge(3, 1), TREFOIL_RES).value_at_one())
        assert tors.delta_at_one == F(2)
        rpt = VanishingReport.from_results(d0, lres, tors)
        assert rpt.delta0_unit is True
        assert rpt.consistent is False
    for fam in FAMILIES.values():
        res_tors = torsion_criterion(fam.pres, fam.rep.residual())
        rpt = VanishingReport.from_results(delta0_h0(fam.pres, fam.rep), l_function(fam.pres, fam.rep), res_tors)
        assert rpt.consistent is True


# --- adjoint cohomology -----------------------------------------------------


@pytest.mark.parametrize("key", KEYS)
def test_adjoint_cohomology_dimensions(key):
    fam = FAMILIES[key]
    dims = ad_cohomology(fam.pres, fam.rep.residual())
    assert (dims.h0, dims.h1, dims.h2) == (0, 1, 1)
    assert dims.euler == 0
    assert (dims.rank_d0, dims.rank_d1) == (3, 2)
    assert dims.to_json() == {"h0": 0, "h1": 1, "h2": 1}


def test_adjoint_cohomology_requires_residue_field():
    fam = FAMILIES["rho1"]
    with pytest.raises(ValueError):
        ad_cohomology(fam.pres, fam.rep)
    ring = Zp(3, 2)
    rep = Representation(
        ring, {i: m.map(lambda e: ring(e.r)) for i, m in TREFOIL_RES.matrices.items()}
    )
    with pytest.raises(ValueError):
        ad_cohomology(fam.pres, rep)


def test_adjoint_cohomology_rejects_non_representation():
    bad = _pair_rep(3, (((1, 1), (0, 1)), ((1, 0), (1, 1))))
    with pytest.raises(ArithmeticError):
        ad_cohomology(two_bridge(3, 1), bad)
