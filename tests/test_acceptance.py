"""End-to-end guarantees of the shipped pipeline, one section per
promise.

Expected values are frozen here as literals or rebuilt from formulas
written out in this file, independent of the library's own registry of
reference data, so a regression surfaces even if the registry drifts
with it.  All comparisons are exact: integers and residues carry zero
tolerance, series are compared coefficientwise at the stated precision,
and Laurent polynomials compare either exactly or up to the stated
unit ambiguity c*t^k.
"""

import random

import pytest

from oracles import rep_scan
from twobridge.deformations import (
    Representation,
    build_family,
    random_sl2,
    specialize_family,
    trace_axioms,
    universality_certificate,
)
from twobridge.groupring import fundamental_identity_defect
from twobridge.homology import (
    ad_cohomology,
    apply_rep,
    chain_contraction,
    delta0_h0,
    fox_images,
    l_function,
    torsion_criterion,
    twisted_alexander,
    vanishing_link,
)
from twobridge.laurent import LaurentPoly, eq_up_to_unit
from twobridge.padics import (
    Indeterminate,
    Zp,
    ZpT,
    gcd_normal_form,
    hensel_root,
    poly_eval,
    sqrt_positive,
)
from twobridge.presentations import two_bridge
from twobridge.riley import (
    build_modp_rep,
    char_points,
    relation_holds,
    riley_polynomial,
)
from twobridge.words import FreeWord

KEYS = ("rho1", "rho2", "rho3", "rho4")
FAMILIES = {k: build_family(k) for k in KEYS}
SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


# --- 1. Riley polynomials, integer exact -----------------------------------

RILEY_EXPECTED = {
    (3, 1): {(0, 1): 1, (0, 0): -1},
    (5, 3): {(0, 2): 1, (2, 1): -1, (0, 1): -1, (2, 0): 2, (0, 0): -1},
    (7, 3): {
        (0, 3): 1,
        (2, 2): -1,
        (0, 2): -1,
        (2, 1): 3,
        (0, 1): -2,
        (2, 0): -2,
        (0, 0): 1,
    },
}


@pytest.mark.parametrize("mn", sorted(RILEY_EXPECTED))
def test_riley_polynomials_integer_exact(mn):
    data = riley_polynomial(two_bridge(*mn))
    assert data.psi.terms == RILEY_EXPECTED[mn]


# --- 2. trefoil pipeline ----------------------------------------------------


def test_trefoil_pipeline():
    fam = FAMILIES["rho1"]
    assert fam.rep.residue_matrices() == (((0, 2), (1, 2)), ((2, 2), (1, 0)))

    res = fam.rep.residual()
    F3 = res.ring
    ta = twisted_alexander(fam.pres, res)
    expected = LaurentPoly(F3, {0: 1, 2: 1})
    for r in ta.results:
        assert r.quotient is not None
        assert eq_up_to_unit(r.quotient, expected)
        assert r.value_at_one() == F3(2)

    d0 = delta0_h0(fam.pres, fam.rep).normal_form
    assert (d0.mu, d0.lam, d0.certified) == (0, 0, True)
    nf = l_function(fam.pres, fam.rep).normal_form
    assert (nf.mu, nf.lam, nf.certified) == (0, 0, True)


# --- 3. figure-eight pipeline ----------------------------------------------


def test_figure_eight_pipeline():
    fam = FAMILIES["rho2"]
    assert fam.rep.residue_matrices() == (((0, 6), (1, 5)), ((5, 6), (1, 0)))

    res = fam.rep.residual()
    F7 = res.ring
    g2 = res.matrices[2]
    det_g2_minus_1 = (g2.a - F7.one) * (g2.d - F7.one) - g2.b * g2.c
    assert det_g2_minus_1 == F7(4)

    ta = twisted_alexander(fam.pres, res)
    expected = LaurentPoly(F7, {-2: 1, -1: 4, 0: 1})
    for r in ta.results:
        assert r.quotient is not None
        assert eq_up_to_unit(r.quotient, expected)
        assert r.value_at_one() == F7(6)

    # nonzero value at 1 plus a nonzero witness determinant force a unit
    # L; the torsion certificate is the hypothesis side of that route
    tors = torsion_criterion(fam.pres, res)
    assert tors.holds
    nf = l_function(fam.pres, fam.rep).normal_form
    assert (nf.mu, nf.lam, nf.certified) == (0, 0, True)
    assert vanishing_link(fam.pres, fam.rep, res).consistent


# --- 4/5. the two 5_2 families: root, certificate, minors, normal form ------


def _closed_form_minors_p11(fam):
    """The six row-pair minors of the second boundary map, as closed
    forms in the trace coordinate x, the cubic root s and the square
    root q of x^2 - 4s, in lexicographic pair order."""
    half = fam.ring.base(2).invert_unit()
    x, s, q = fam.trace_series, fam.params["s"], fam.params["q"]
    x2 = x * x
    x3 = x2 * x
    x4 = x2 * x2
    a = (s - 1) * x2 * 4 + x - (s * 2 - 1) ** 2 * 4
    b13 = (
        (s - 1) * x4 * 4
        - (s * s * 8 - s * 2 - 5) * x2 * 2
        + (s - 1) * x * 4
        + (s * 4 - 3) * (s * 12 - 5)
    )
    b14 = (
        (s - 1) * x4 * 4
        - (s - 1) * x3 * 8
        - (s * s * 4 - s * 5 + 2) * x2 * 4
        + (s * s * 8 - s * 7 + 2) * x * 4
        - (s * 4 - 1) ** 2
    )
    return [
        (x - 2) * a * 2,
        -(b13 * (x - 2 - q)) * half,
        b14,
        -b14,
        a * (x - 2 + q) * 2,
        (x - 2) * a * 2,
    ]


def _closed_form_minors_p19(fam):
    half = fam.ring.base(2).invert_unit()
    x, v, q = fam.trace_series, fam.params["v"], fam.params["q"]
    x2 = x * x
    x3 = x2 * x
    x4 = x2 * x2
    b = (v - 1) * x2 * 4 + x - (v * 2 - 1) ** 2 * 4
    r = (
        (v - 1) * x4 * 4
        - (v * 8 - 9) * x3
        - (v * v * 8 - v * 10 + 5) * x2 * 2
        + (v * v * 8 - v * 9 + 3) * x * 4
        - (v * 4 - 3) ** 2
    )
    return [
        (x - 2) * b * 2,
        -((v - 1) * x2 * 4 - (v - 1) * x * 4 - (v * 4 - 3) ** 2) * q * half,
        r - (x - 2) * b * q,
        -r - (x - 2) * b * q,
        b * q * 2,
        (x - 2) * b * 2,
    ]


def test_p11_family_protocol():
    fam = FAMILIES["rho3"]
    base = fam.ring.base
    x, s = fam.trace_series, fam.params["s"]
    x2 = x * x
    x4 = x2 * x2

    # the defining cubic of s, satisfied to full precision
    cubic = (
        s * s * s * 64
        - s * s * (x2 * 2 + 5) * 16
        + s * (x4 + x2 * 9 + 6) * 4
        - (x4 * 4 + x2 * 6 + 1)
    )
    assert cubic.is_zero

    # value at the expansion point: (4 - sqrt(5))/4, residue 0
    xi = (base(4) - sqrt_positive(base(5))) * base(4).invert_unit()
    assert s.constant_term() == xi
    assert xi.residue() == 0

    assert universality_certificate(fam).ok
    assert fam.rep.residue_matrices() == (((5, 10), (1, 0)), ((5, 1), (10, 0)))

    # nondegeneracy of g2 at the specialized point x = 5
    spec = specialize_family(fam, 5)
    g2 = spec.rep.matrices[2]
    det = (g2.a - base.one) * (g2.d - base.one) - g2.b * g2.c
    assert det == base(-3)
    assert det.residue() == 8

    lf = l_function(fam.pres, fam.rep)
    assert list(lf.minors) == _closed_form_minors_p11(fam)
    assert (lf.normal_form.mu, lf.normal_form.lam) == (0, 2)
    assert lf.normal_form.certified

    big = build_family("rho3", N=12, D=12)
    nf = l_function(big.pres, big.rep).normal_form
    assert (nf.mu, nf.lam, nf.certified) == (0, 2, True)


def test_p19_family_protocol():
    fam = FAMILIES["rho4"]
    base = fam.ring.base
    x, v = fam.trace_series, fam.params["v"]
    x2 = x * x

    cubic = (
        v * v * v * 64
        - v * v * (x2 + 7) * 16
        + v * (x2 + 2) * 28
        - (x2 * 12 + 7)
    )
    assert cubic.is_zero

    # value at the expansion point: (7 + sqrt(5))/8, residue 2
    zeta = (base(7) + sqrt_positive(base(5))) * base(8).invert_unit()
    assert v.constant_term() == zeta
    assert zeta.residue() == 2

    assert universality_certificate(fam).ok
    assert fam.rep.residue_matrices() == (((14, 1), (1, 11)), ((11, 1), (1, 14)))

    spec = specialize_family(fam, 6)
    g2 = spec.rep.matrices[2]
    det = (g2.a - base.one) * (g2.d - base.one) - g2.b * g2.c
    assert det == base(-4)
    assert det.residue() == 15

    lf = l_function(fam.pres, fam.rep)
    assert list(lf.minors) == _closed_form_minors_p19(fam)
    assert (lf.normal_form.mu, lf.normal_form.lam) == (0, 2)
    assert lf.normal_form.certified

    big = build_family("rho4", N=12, D=12)
    nf = l_function(big.pres, big.rep).normal_form
    assert (nf.mu, nf.lam, nf.certified) == (0, 2, True)


# --- 6. specialized Alexander polynomials -----------------------------------


def test_specialized_alexander_p11():
    fam = FAMILIES["rho3"]
    base = fam.ring.base
    spec = specialize_family(fam, 5)

    # the cubic at x = 5, solved independently from its residue seed
    mu = hensel_root([-2651, 3424, -880, 64], base(0))
    assert mu == spec.params["s"]

    c = (mu * mu * (-8) + mu * 58 - 52) * (-2)
    expected = LaurentPoly(base, {0: c.r, 1: -10, 2: c.r})
    ta = twisted_alexander(fam.pres, spec.rep)
    for r in ta.results:
        assert r.quotient is not None
        assert eq_up_to_unit(r.quotient, expected)

    at1 = ta.value_at_one()
    assert at1 == (mu * mu * (-16) + mu * 116 - 99) * (-2)
    assert at1.r == 86428001
    assert at1.valuation() == 2
    assert not at1.is_zero


def test_specialized_alexander_p19():
    fam = FAMILIES["rho4"]
    base = fam.ring.base
    spec = specialize_family(fam, 6)

    nu = hensel_root([-439, 1064, -688, 64], base(2))
    assert nu == spec.params["v"]

    c = (nu * nu * (-8) + nu * 80 - 74) * (-2)
    expected = LaurentPoly(base, {0: c.r, 1: -12, 2: c.r})
    ta = twisted_alexander(fam.pres, spec.rep)
    for r in ta.results:
        assert r.quotient is not None
        assert eq_up_to_unit(r.quotient, expected)

    at1 = ta.value_at_one()
    assert at1 == (nu * nu * (-16) + nu * 160 - 142) * (-2)
    assert at1.r == 133426322
    assert at1.valuation() == 2
    assert not at1.is_zero


# --- 7. property suites, 200+ fuzz cases each -------------------------------


def _random_word(rng, num_gens, max_len):
    runs = [
        (rng.randrange(1, num_gens + 1), rng.choice((-2, -1, 1, 2)))
        for _ in range(rng.randrange(1, max_len + 1))
    ]
    return FreeWord.from_runs(runs)


def test_property_fox_fundamental_identity():
    rng = random.Random(101)
    checked = 0
    for _ in range(220):
        num_gens = rng.choice((2, 3))
        w = _random_word(rng, num_gens, 8)
        assert fundamental_identity_defect(w, num_gens) == {}
        checked += 1
    assert checked >= 200


def test_property_trace_axioms_random_sl2():
    total = 0
    for i, p in enumerate((3, 5, 7, 11, 13)):
        ring = Zp(p, 1)
        rng = random.Random(300 + i)
        rep = Representation(
            ring, {1: random_sl2(rng, ring), 2: random_sl2(rng, ring)}
        )
        report = trace_axioms(rep, max_len=4, budget=50, seed=i)
        assert report.ok
        total += sum(report.checks.values())
    assert total >= 200


@pytest.fixture(scope="module")
def rep_pool():
    # abelian-line character points can yield matrix pairs that break
    # the relation, so keep only genuine representations
    pool = []
    for (m, n) in ((3, 1), (5, 3), (7, 3)):
        pres = two_bridge(m, n)
        for p in SMALL_PRIMES + (29, 31, 37, 41):
            ring = Zp(p, 1)
            for pt in char_points(pres, p):
                mats = build_modp_rep(pres, p, pt.x, pt.y)
                if mats is None:
                    continue
                rep = Representation(ring, {1: mats[0], 2: mats[1]})
                if not relation_holds(pres, rep):
                    continue
                pool.append((pres, rep))
    return pool


def test_property_deleted_index_independence(rep_pool):
    assert len(rep_pool) >= 200
    for pres, rep in rep_pool:
        ta = twisted_alexander(pres, rep)
        assert len(ta.results) == 2
        r0, r1 = ta.results
        assert eq_up_to_unit(
            r0.numerator * r1.denominator, r1.numerator * r0.denominator
        )


def test_property_boundary_composition_vanishes(rep_pool):
    assert len(rep_pool) >= 200
    for pres, rep in rep_pool:
        m = chain_contraction(pres, rep)
        assert all(e.is_zero for e in (m.a, m.b, m.c, m.d))


def test_property_fox_images_match_fox_derivatives(rep_pool):
    assert len(rep_pool) >= 200
    for pres, rep in rep_pool:
        for f, d in zip(fox_images(pres, rep), pres.fox):
            assert f == apply_rep(rep, d)


def test_property_sqrt_and_hensel_roundtrip():
    rng = random.Random(505)
    cases = 0

    for _ in range(120):
        p = rng.choice(SMALL_PRIMES)
        ring = Zp(p, rng.randrange(2, 7))
        b = ring(rng.randrange(1, p ** ring.N))
        while not b.is_unit:
            b = ring(rng.randrange(1, p ** ring.N))
        a = b * b
        s = sqrt_positive(a)
        assert s * s == a
        assert s in (b, b * (-1))
        assert 1 <= s.residue() <= (p - 1) // 2
        cases += 1

    for _ in range(120):
        p = rng.choice(SMALL_PRIMES)
        ring = Zp(p, rng.randrange(2, 7))
        r = rng.randrange(0, p ** ring.N)
        d = rng.randrange(1, p)
        e = rng.randrange(1, p)
        roots = (r, r + d, r + e)
        coeffs = [
            -roots[0] * roots[1] * roots[2],
            roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2],
            -(roots[0] + roots[1] + roots[2]),
            1,
        ]
        root = hensel_root(coeffs, ring(r % p))
        assert root == ring(r)
        assert poly_eval([ring(cf) for cf in coeffs], root).is_zero
        cases += 1

    # series square roots, same back-substitution contract
    for i in range(12):
        ring = ZpT(5, 3, 4)
        f = ring([rng.randrange(1, 5), rng.randrange(0, 125), rng.randrange(0, 125)])
        a = f * f
        s = sqrt_positive(a)
        assert (s * s - a).is_zero
        cases += 1

    assert cases >= 200


def test_property_gcd_normal_form_unit_invariance():
    rng = random.Random(707)
    done = 0
    while done < 210:
        p = rng.choice((3, 5, 7, 11))
        N = rng.randrange(2, 5)
        D = rng.randrange(1, 6)
        ring = ZpT(p, N, D)
        vec = [
            ring([rng.randrange(0, p ** N) for _ in range(D + 1)])
            for _ in range(rng.randrange(1, 4))
        ]
        c0 = rng.randrange(1, p ** N)
        while c0 % p == 0:
            c0 = rng.randrange(1, p ** N)
        unit = ring([c0] + [rng.randrange(0, p ** N) for _ in range(D)])
        scaled = [v * unit for v in vec]
        try:
            a = gcd_normal_form(vec)
        except Indeterminate:
            with pytest.raises(Indeterminate):
                gcd_normal_form(scaled)
            done += 1
            continue
        b = gcd_normal_form(scaled)
        assert (a.mu, a.lam, a.certified) == (b.mu, b.lam, b.certified)
        done += 1


# --- 8. adjoint cohomology dimensions ---------------------------------------


@pytest.mark.parametrize("key", KEYS)
def test_adjoint_cohomology_dimensions(key):
    fam = FAMILIES[key]
    dims = ad_cohomology(fam.pres, fam.rep.residual())
    assert dims.h0 == 0
    assert dims.h0 - dims.h1 + dims.h2 == 0
    assert dims.h1 == dims.h2
    assert dims.h2 >= 1


# --- 9. character point enumeration vs. brute force -------------------------

DESIGNATED = {
    (3, 1, 3): (2, 1),
    (5, 3, 7): (5, 5),
    (7, 3, 11): (5, 5),
    (7, 3, 19): (6, 6),
}


@pytest.mark.parametrize("combo", sorted(DESIGNATED))
def test_character_point_enumeration_matches_brute_force(combo):
    m, n, p = combo
    pts = char_points(two_bridge(m, n), p)
    by_xy = {(q.x, q.y): q for q in pts}
    designated = DESIGNATED[combo]
    assert designated in by_xy
    assert by_xy[designated].absolutely_irreducible

    scan = rep_scan(m, n, p)
    assert set(by_xy) == set(scan)
    for xy, (on_line, irreducible) in scan.items():
        assert by_xy[xy].on_abelian_line == on_line
        assert by_xy[xy].absolutely_irreducible == irreducible


# --- 10. value at 1 against the L normal form, both directions --------------


def test_alexander_at_one_matches_l_dichotomy():
    expected_at_one = {"rho1": 2, "rho2": 6, "rho3": 0, "rho4": 0}
    for key, value in expected_at_one.items():
        fam = FAMILIES[key]
        res = fam.rep.residual()
        at1 = twisted_alexander(fam.pres, res).value_at_one()
        assert at1 == res.ring(value)
        nf = l_function(fam.pres, fam.rep).normal_form
        if value == 0:
            assert at1.is_zero
            assert nf.lam > 0
        else:
            assert not at1.is_zero
            assert (nf.mu, nf.lam, nf.certified) == (0, 0, True)
