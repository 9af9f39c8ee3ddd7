"""Twisted chain complexes: Alexander invariants, the 2-minor ideals of
the L-function and Delta_0, torsion certificates, adjoint cohomology.

The trefoil Alexander goldens below were derived by hand before being
frozen: with the residual matrices g1 = (0 2; 1 2), g2 = (2 2; 1 0)
over F_3, Phi(dr/dg2) = t*rho(g1) - t^2*rho(g1 g2 g1 g2^-1) - I has
determinant 1 + t + 2t^2 + t^3 + t^4, and det(t*rho(g1) - I) =
1 + t + t^2; long division gives 1 + t^2 exactly.
"""

import json
import random

import pytest
from oracles import build_modp_rep, group_ring_matrix, k_minors, random_sl2

from twobridge import cli
from twobridge.deformations import Representation, build_family, specialize_family
from twobridge.homology import (
    AlexanderResult,
    FittingResult,
    TorsionReport,
    VanishingReport,
    _ad3,
    _alexander_denominator,
    _phi_matrix,
    ad_cohomology,
    boundary1,
    boundary2,
    chain_contraction,
    delta0_h0,
    det_minus_identity,
    fox_images,
    l_function,
    torsion_criterion,
    twisted_alexander,
    vanishing_link,
)
from twobridge.laurent import LaurentPoly, eq_up_to_unit
from twobridge.matrices import Mat2
from twobridge.padics import DivisorNormalForm, Indeterminate, Zp
from twobridge.presentations import two_bridge
from twobridge.riley import char_points, relation_holds
from twobridge.words import FreeWord, gen, reduced_words

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
        assert Mat2(*b2[2 * i], *b2[2 * i + 1]) == group_ring_matrix(rep, d).transpose()


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


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("N,D", [(8, 8), (30, 30)])
def test_fox_images_match_fox_derivatives(key, N, D):
    # oracle: the factored images against pres.fox pushed through rho
    # term by term, each word multiplied out letter by letter, on the
    # family, its residual and a specialization
    fam = build_family(key, N, D)
    spec = specialize_family(fam, fam.alpha.residue())
    for rep in (fam.rep, fam.rep.residual(), spec.rep):
        assert relation_holds(fam.pres, rep)
        for f, d in zip(fox_images(fam.pres, rep), fam.pres.fox):
            assert f == group_ring_matrix(rep, d)


def test_boundary2_rejects_non_representation():
    pres = two_bridge(3, 1)
    bad = _pair_rep(3, (((1, 1), (0, 1)), ((1, 0), (1, 1))))
    with pytest.raises(ArithmeticError):
        boundary2(pres, bad)
    # the contraction needs no such guard: it is rho(w g1) - rho(g2 w)
    assert chain_contraction(pres, bad) == bad(pres.w * gen(1)) - bad(gen(2) * pres.w)


def test_boundary2_product_budget(monkeypatch, series_products):
    # a built family has checked the relation, which cached the trace
    # coordinates of every prefix of w, so the check inside boundary2
    # costs nothing. The Fox images then cost, per image, one left
    # multiplication by g2 (2 dense products) and one conversion to a
    # matrix (8), and once the basis matrix AB (4; the one Mat2 product).
    # A second call reads the images kept on the representation.
    calls = []
    mul = Mat2.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Mat2, "__mul__", counting)
    for key, dense in (("rho1", 2), ("rho2", 20), ("rho3", 24), ("rho4", 24)):
        fam = build_family(key)
        calls.clear()
        series_products.clear()
        boundary2(fam.pres, fam.rep)
        assert len(calls) == 1, key
        assert sum(series_products) == dense, key
        calls.clear()
        series_products.clear()
        assert relation_holds(fam.pres, fam.rep)
        boundary2(fam.pres, fam.rep)
        assert calls == [] and series_products == [], key


# --- twisted Alexander -----------------------------------------------------


def test_trefoil_alexander_goldens():
    ta = twisted_alexander(two_bridge(3, 1), TREFOIL_RES)
    ring = TREFOIL_RES.ring
    num = LaurentPoly(ring, {0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    den = LaurentPoly(ring, {0: 1, 1: 1, 2: 1})
    quot = LaurentPoly(ring, {0: 1, 2: 1})
    assert [r.deleted_index for r in ta] == [1, 2]
    for r in ta:
        assert r.numerator == num
        assert r.denominator == den
        assert r.quotient == quot
        assert r.value_at_one() == ring(2)


def test_figure_eight_alexander_goldens():
    fam = FAMILIES["rho2"]
    ta = twisted_alexander(fam.pres, fam.rep.residual())
    ring = Zp(7, 1)
    quot = LaurentPoly(ring, {-2: 1, -1: 4, 0: 1})
    for r in ta:
        assert r.quotient == quot
        assert r.denominator == LaurentPoly(ring, {0: 1, 1: 2, 2: 1})
    assert ta[0].value_at_one() == ring(6)


def test_residual_alexander_at_one_vanishes_for_rho3_rho4():
    for key, p in (("rho3", 11), ("rho4", 19)):
        fam = FAMILIES[key]
        ta = twisted_alexander(fam.pres, fam.rep.residual())
        assert ta[0].value_at_one() == Zp(p, 1)(0)


def test_twisted_alexander_rejects_series_entries():
    fam = FAMILIES["rho1"]
    with pytest.raises(TypeError):
        twisted_alexander(fam.pres, fam.rep)


def test_alexander_json_and_indeterminate_value(monkeypatch, capsys):
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
    # every example has an exact quotient, so talex --json renders a
    # missing one only for a result put in its place
    monkeypatch.setattr(cli, "twisted_alexander", lambda pres, rep: (ok,))
    assert cli.main(["talex", "--example", "rho1", "--json"]) == 0
    js = json.loads(capsys.readouterr().out)
    assert js["results"] == [
        {"deleted_index": 1, "numerator": {"0": "2"}, "denominator": {"0": "2"}, "quotient": None}
    ]
    assert js["at_1"] == "1"


def test_deleted_index_agreement_on_char_point_reps():
    # every rationally realizable a.i. point gives a pair whose two
    # deleted-index invariants agree up to unit
    checked = 0
    for m, n, p in [(3, 1, 3), (5, 3, 7), (7, 3, 11), (7, 3, 19), (3, 1, 7), (5, 3, 5)]:
        pres = two_bridge(m, n)
        for q in char_points(pres, p):
            if not q.absolutely_irreducible:
                continue
            pair = build_modp_rep(p, q.x, q.y)
            if pair is None:
                continue
            rep = Representation(Zp(p, 1), {1: pair[0], 2: pair[1]})
            ta = twisted_alexander(pres, rep)
            # det(t rho(g) - I) has constant coefficient 1: both survive
            assert len(ta) == 2
            a, b = ta
            if a.quotient is not None and b.quotient is not None:
                assert eq_up_to_unit(a.quotient, b.quotient)
            else:
                assert eq_up_to_unit(
                    a.numerator * b.denominator, b.numerator * a.denominator
                )
            checked += 1
    assert checked >= 20


def _gen_minus_one(i):
    return {gen(i): 1, FreeWord(): -1}


def _phi_denominator(rep, i):
    """det Phi(g_i - 1) by the Laurent matrix."""
    return _phi_matrix(rep, _gen_minus_one(i), rep.ring).det()


def test_degenerate_representation_contract():
    # the denominator det(t*rho(g) - I) always has constant coefficient 1,
    # so no deleted index is ever dropped for 2x2 input
    rng = random.Random(2)
    ring = Zp(5, 1)
    for _ in range(20):
        mats = [[[rng.randrange(5) for _ in range(2)] for _ in range(2)] for _ in range(2)]
        rep = _pair_rep(5, mats)
        assert _phi_denominator(rep, 1).coefficient(0) == ring(1)


def _random_sl2_reps(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        ring = Zp(rng.choice([3, 5, 7, 11, 13, 17, 19]), rng.choice([1, 3, 8]))
        yield Representation(ring, {1: random_sl2(rng, ring), 2: random_sl2(rng, ring)})


def _residual_and_specialized_reps():
    for key in KEYS:
        yield FAMILIES[key].pres, FAMILIES[key].rep.residual()
    for key, x_rat in (("rho3", 5), ("rho4", 6)):
        yield FAMILIES[key].pres, specialize_family(FAMILIES[key], x_rat).rep


def test_alexander_denominator_matches_phi_determinant():
    for rep in _random_sl2_reps(seed=11, count=200):
        for i in (1, 2):
            assert _alexander_denominator(rep, i) == _phi_denominator(rep, i)
    for pres, rep in _residual_and_specialized_reps():
        ta = twisted_alexander(pres, rep)
        assert [r.denominator for r in ta] == [_phi_denominator(rep, i) for i in (1, 2)]


def _ad3_by_conjugation(m, p):
    minv = m.sl2_inverse().map(lambda e: e.r)
    cols = []
    for X in (Mat2(0, 1, 0, 0), Mat2(1, 0, 0, -1), Mat2(0, 0, 1, 0)):
        img = m.map(lambda e: e.r) * X * minv
        cols.append([img.b % p, img.a % p, img.c % p])
    return [[cols[j][i] for j in range(3)] for i in range(3)]


def test_ad3_matches_conjugation():
    rng = random.Random(12)
    for _ in range(300):
        ring = Zp(rng.choice([3, 5, 7, 11, 13, 17, 19]), 1)
        m = random_sl2(rng, ring)
        assert _ad3(m, ring.p) == _ad3_by_conjugation(m, ring.p)


def test_det_minus_identity_matches_matrix_determinant():
    reps = [rep for _, rep in _residual_and_specialized_reps()]
    reps += list(_random_sl2_reps(seed=13, count=20))
    for rep in reps:
        ident = Mat2.identity(rep.one, rep.zero)
        for w in [FreeWord()] + reduced_words(3):
            assert det_minus_identity(rep, w) == (rep(w) - ident).det(), str(w)


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
    # the residual representation has PadicInt entries: no T to read lam off
    for fn in (l_function, delta0_h0):
        with pytest.raises(TypeError):
            fn(fam.pres, fam.rep.residual())


@pytest.mark.parametrize("key", KEYS)
def test_two_minors_match_the_generic_enumeration(key):
    # at the default (8, 8) and at D = 96, where the series products
    # take the Kronecker path
    for fam in (FAMILIES[key], build_family(key, N=10, D=96)):
        b2, b1 = boundary2(fam.pres, fam.rep), boundary1(fam.pres, fam.rep)
        # 4 x 2 and 2 x 4: C(4, 2) pairs of rows, C(4, 2) pairs of columns
        assert list(l_function(fam.pres, fam.rep).minors) == k_minors(b2, 2)
        assert list(delta0_h0(fam.pres, fam.rep).minors) == k_minors(b1, 2)
        assert len(k_minors(b2, 2)) == len(k_minors(b1, 2)) == 6


@pytest.mark.parametrize("key", KEYS)
def test_delta0_is_unit(key):
    fam = FAMILIES[key]
    res = delta0_h0(fam.pres, fam.rep)
    assert len(res.minors) == 6
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


def test_vanishing_rule_negative_branch():
    # Delta_0 a unit and L = T^2 force the residual Delta(1) = 0; a
    # nonzero one is inconsistent, with or without a torsion witness
    F = Zp(3, 1)
    d0 = FittingResult(minors=(), normal_form=DivisorNormalForm(0, 0, True))
    lres = FittingResult(minors=(), normal_form=DivisorNormalForm(0, 2, True))
    for witness in ((None, None), (gen(1), F(1))):
        tors = TorsionReport.from_results(witness, twisted_alexander(two_bridge(3, 1), TREFOIL_RES)[0].value_at_one())
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
