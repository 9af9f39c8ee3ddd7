"""Deformation families rho1..rho4: construction invariants,
certificates, specialization, trace axioms, SL2 sampling."""

import json
import random
import re

import pytest
from oracles import random_sl2

from twobridge import cli
from twobridge.deformations import (
    BranchMismatch,
    Representation,
    _verify_family,
    build_family,
    character_curve_value,
    reduced_words,
    specialize_family,
    trace_axioms,
    universality_certificate,
)
from twobridge.homology import l_function
from twobridge.matrices import Mat2, word_matrix
from twobridge.padics import Indeterminate, Zp, ZpT
from twobridge.presentations import two_bridge
from twobridge.riley import relation_holds
from twobridge.words import FreeWord, gen

KEYS = ("rho1", "rho2", "rho3", "rho4")
FAMILIES = {k: build_family(k) for k in KEYS}

EXPECTED = {
    "rho1": dict(p=3, alpha_res=2, point=(2, 1), dpsi=1),
    "rho2": dict(p=7, alpha_res=5, point=(5, 5), dpsi=5),
    "rho3": dict(p=11, alpha_res=5, point=(5, 5), dpsi=9),
    "rho4": dict(p=19, alpha_res=6, point=(6, 6), dpsi=17),
}


def _lift_certificate(fam, monkeypatch, capsys) -> tuple[int, dict]:
    """The exit code of lift --json on fam and the certificate it prints."""
    monkeypatch.setattr(cli, "build_family", lambda *args, **kwargs: fam)
    code = cli.main(["lift", "--example", fam.key, "--json"])
    return code, json.loads(capsys.readouterr().out)["certificate"]


@pytest.mark.parametrize("key", KEYS)
def test_family_construction(key):
    fam = FAMILIES[key]
    exp = EXPECTED[key]
    assert fam.p == exp["p"]
    assert fam.alpha.residue() == exp["alpha_res"]
    assert fam.char_point == exp["point"]
    for i in (1, 2):
        m = fam.rep.matrices[i]
        assert m.det() == fam.ring.one
        assert m.trace() == fam.trace_series
    assert relation_holds(fam.pres, Representation(fam.ring, fam.rep.matrices))
    assert fam.rep.residue_matrices() == fam.expected_residual


@pytest.mark.parametrize("key", KEYS)
def test_certificate(key, monkeypatch, capsys):
    cert = universality_certificate(FAMILIES[key])
    assert cert.ok
    assert cert.psi_value == 0
    assert cert.psi_derivative == EXPECTED[key]["dpsi"]
    assert cert.regular
    code, js = _lift_certificate(FAMILIES[key], monkeypatch, capsys)
    assert code == 0 and js["ok"] is True and js["char_point"] == list(EXPECTED[key]["point"])


def test_quadratic_constants():
    # alpha, xi and beta, zeta are pinned beyond the residue field
    rho3 = FAMILIES["rho3"]
    assert rho3.alpha.r % 11**2 == 38
    assert rho3.params["sqrt5"].r % 11 == 4
    assert rho3.params["xi"].residue() == 0
    rho4 = FAMILIES["rho4"]
    assert rho4.params["sqrt5"].r % 19 == 9
    assert rho4.params["zeta"].residue() == 2
    # the two sqrt5 branches are consistent: residues in 1..(p-1)/2
    assert 1 <= rho3.params["sqrt5"].residue() <= 5
    assert 1 <= rho4.params["sqrt5"].residue() <= 9


# from the residue field up to long series and high p-adic precision;
# the paper's equations are the oracle for the lift along the Riley curve
PRECISIONS = [(1, 0), (8, 8), (30, 30), (8, 96), (192, 12)]


@pytest.mark.parametrize("N,D", PRECISIONS)
def test_rho1_rho2_square_roots(N, D):
    fam = build_family("rho1", N, D)
    x = fam.trace_series
    q = fam.params["q"]
    assert q * q == x * x - 3
    fam = build_family("rho2", N, D)
    x = fam.trace_series
    x2 = x * x
    u, q = fam.params["u"], fam.params["q"]
    half = fam.ring.base(2).invert_unit()
    assert u * u == (x2 - 1) * (x2 - 5)
    assert q * q == (x2 - 5 + u) * half


@pytest.mark.parametrize("N,D", PRECISIONS)
@pytest.mark.parametrize(
    "key,param", [("rho3", "s"), ("rho4", "v")]
)
def test_auxiliary_cubic_roots(key, param, N, D):
    fam = build_family(key, N, D)
    x = fam.trace_series
    x2 = x * x
    s = fam.params[param]
    if key == "rho3":
        x4 = x2 * x2
        val = (
            s ** 3 * 64
            - s ** 2 * (x2 * 2 + 5) * 16
            + s * (x4 + x2 * 9 + 6) * 4
            - (x4 * 4 + x2 * 6 + 1)
        )
        seed = fam.params["xi"]
    else:
        val = (
            s ** 3 * 64
            - s ** 2 * (x2 + 7) * 16
            + s * (x2 + 2) * 28
            - (x2 * 12 + 7)
        )
        seed = fam.params["zeta"]
    assert val.is_zero
    assert s.residue() == seed.residue()
    q = fam.params["q"]
    assert q * q == x * x - s * 4


def test_perturbed_family_fails_relation():
    fam = FAMILIES["rho1"]
    g1, g2 = fam.rep.matrices[1], fam.rep.matrices[2]
    bad = Mat2(g1.a + fam.ring([0, 1]), g1.b, g1.c, g1.d)
    assert not relation_holds(fam.pres, Representation(fam.ring, {1: bad, 2: g2}))


def test_relation_words_evaluated_once(monkeypatch, series_products):
    # build_family and universality_certificate both check the relation;
    # the second check must read the coordinates the first one cached
    fam = build_family("rho3")
    assert fam.pres.w * gen(1) in fam.rep._cache
    assert gen(2) * fam.pres.w in fam.rep._cache
    rings = []
    mul = Mat2.__mul__

    def counting(self, other):
        rings.append(getattr(self.a, "ring", None))
        return mul(self, other)

    monkeypatch.setattr(Mat2, "__mul__", counting)
    series_products.clear()
    assert universality_certificate(fam).relation_ok
    # the point check multiplies over F_p; nothing over the family's ring
    assert rings and fam.ring not in rings
    assert series_products == []
    # on a fresh representation the first check works in trace
    # coordinates: no Mat2 product, and a dense series product only where
    # e = c - ab or c = tr AB meets a dense coordinate, in the steps by
    # g1^+-1 of w g1 and in the step g2 w
    for key, dense in (("rho1", 0), ("rho2", 2), ("rho3", 3), ("rho4", 3)):
        fam = FAMILIES[key]
        rep = Representation(fam.ring, fam.rep.matrices)
        rings.clear()
        series_products.clear()
        assert relation_holds(fam.pres, rep)
        assert rings == []
        assert sum(series_products) == dense, key
        assert len(series_products) <= 5 * (len(fam.pres.w) + 1), key
        series_products.clear()
        assert relation_holds(fam.pres, rep)
        assert rings == [] and series_products == []


@pytest.mark.parametrize("key", ["rho3", "rho4"])
def test_dense_product_budget_at_sixty(key, series_products):
    # |w| = 6: the first relation check made 40 dense series products when
    # every word was a Mat2 product; l_function made 64 on a fresh
    # representation
    fam = build_family(key, 60, 60)
    rep = Representation(fam.ring, fam.rep.matrices)
    series_products.clear()
    assert relation_holds(fam.pres, rep)
    assert sum(series_products) <= 8
    series_products.clear()
    assert relation_holds(fam.pres, rep)
    assert series_products == []
    rep = Representation(fam.ring, fam.rep.matrices)
    series_products.clear()
    l_function(fam.pres, rep)
    assert sum(series_products) <= 44


@pytest.mark.parametrize("key", ["rho1", "rho3"])
def test_certificate_flags_each_tampering(key, monkeypatch, capsys):
    fam = FAMILIES[key]
    g1, g2 = fam.rep.matrices[1], fam.rep.matrices[2]
    # conjugating g2 alone by [[1, T^D], [0, 1]] keeps det, traces and residue
    tD = fam.ring([0] * fam.ring.D + [1])
    conj = Mat2(fam.ring.one, tD, fam.ring.zero, fam.ring.one)
    conj_inv = Mat2(fam.ring.one, -tD, fam.ring.zero, fam.ring.one)
    x0, y0 = fam.char_point
    tampered = {
        "relation_ok": fam._replace(rep=Representation(fam.ring, {1: g1, 2: conj * g2 * conj_inv})),
        "residual_ok": fam._replace(expected_residual=(((1, 0), (0, 1)), ((1, 0), (0, 1)))),
        "point_ok": fam._replace(char_point=(x0, y0 + 1)),
    }
    flags = ("trace_ok", "relation_ok", "residual_ok", "point_ok", "regular")
    for broken, bad in tampered.items():
        cert = universality_certificate(bad)
        code, js = _lift_certificate(bad, monkeypatch, capsys)
        failed = {f for f in flags if not js[f]}
        assert failed == ({"point_ok", "regular"} if broken == "point_ok" else {broken})
        assert failed == {f for f in flags if not getattr(cert, f)}
        assert not cert.ok and js["ok"] is False and code == 1


def _conjugate_g2_alone(fam):
    """fam with g2 alone conjugated by [[1, T^D], [0, 1]]."""
    ring = fam.ring
    tD = ring([0] * ring.D + [1])
    conj = Mat2(ring.one, tD, ring.zero, ring.one)
    conj_inv = Mat2(ring.one, -tD, ring.zero, ring.one)
    g1, g2 = fam.rep.matrices[1], fam.rep.matrices[2]
    return fam._replace(rep=Representation(ring, {1: g1, 2: conj * g2 * conj_inv}))


@pytest.mark.parametrize("N,D", [(8, 8), (12, 12)])
@pytest.mark.parametrize("key", KEYS)
def test_character_curve_rejects_g2_conjugated_alone(key, N, D):
    # the tampering keeps both determinants and both generator traces but
    # moves y = tr rho(g1 g2) at T^D, off the character curve; the trace
    # identities hold for every det-1 pair, so trace_axioms still passes it
    fam = build_family(key, N, D)
    bad = _conjugate_g2_alone(fam)
    for i in (1, 2):
        m = bad.rep.matrices[i]
        assert m.det() == fam.ring.one and m.trace() == fam.trace_series
    y = fam.rep(gen(1) * gen(2)).trace()
    assert (bad.rep(gen(1) * gen(2)).trace() - y).t_order() == D
    assert character_curve_value(fam).is_zero
    value = character_curve_value(bad)
    assert not value.is_zero and value.t_order() == D
    assert trace_axioms(bad.rep, max_len=3, budget=40).ok


@pytest.mark.parametrize("key", KEYS)
def test_character_curve_at_residue_field_agrees_with_certificate(key):
    fam = build_family(key, 1, 0)
    assert character_curve_value(fam).is_zero == (universality_certificate(fam).psi_value == 0)


@pytest.mark.parametrize("N,D", [(60, 60), (8, 96), (192, 12)])
@pytest.mark.parametrize("key", KEYS)
def test_character_curve_value_is_zero_at_high_precision(key, N, D):
    value = character_curve_value(build_family(key, N, D))
    assert value.ring == ZpT(FAMILIES[key].p, N, D)
    assert value.is_zero


def test_branch_mismatch_detected():
    fam = FAMILIES["rho1"]
    wrong = (((1, 0), (0, 1)), ((1, 0), (0, 1)))
    tampered = fam._replace(expected_residual=wrong)
    with pytest.raises(BranchMismatch):
        _verify_family(tampered)


def test_build_family_rejects_unknown_key():
    with pytest.raises(ValueError):
        build_family("rho9")


@pytest.mark.parametrize("key,x_rat", [("rho3", 5), ("rho4", 6)])
def test_specialization(key, x_rat):
    fam = FAMILIES[key]
    spec = specialize_family(fam, x_rat)
    base = fam.ring.base
    assert spec.t0.valuation() >= 1
    assert spec.x_value == base(x_rat)
    for i in (1, 2):
        m = spec.rep.matrices[i]
        assert m.det() == base.one
    assert relation_holds(fam.pres, Representation(base, spec.rep.matrices))
    assert spec.rep(gen(1)).trace() == base(x_rat)
    # the specialized auxiliary parameter still satisfies its cubic exactly
    x = base(x_rat)
    x2 = x * x
    if key == "rho3":
        mu = spec.params["s"]
        x4 = x2 * x2
        val = (
            mu ** 3 * 64
            - mu ** 2 * (x2 * 2 + 5) * 16
            + mu * (x4 + x2 * 9 + 6) * 4
            - (x4 * 4 + x2 * 6 + 1)
        )
    else:
        nu = spec.params["v"]
        val = (
            nu ** 3 * 64
            - nu ** 2 * (x2 + 7) * 16
            + nu * (x2 + 2) * 28
            - (x2 * 12 + 7)
        )
    assert val.is_zero


@pytest.mark.parametrize("key,x_rat", [("rho3", 5), ("rho4", 6)])
def test_specialization_is_stable_in_the_degree(key, x_rat):
    # val(t0) = 1 at these centres: specialization is exact at (N, D)
    # exactly when D + 1 >= N, and there the extra terms of a longer
    # series (D + k) must not change a digit
    exact = set()
    for N in (2, 4, 8):
        for D in (1, 3, 8):
            try:
                spec = specialize_family(build_family(key, N, D), x_rat)
            except Indeterminate:
                continue
            exact.add((N, D))
            for k in (1, 4):
                more = specialize_family(build_family(key, N, D + k), x_rat)
                assert more.rep.matrices == spec.rep.matrices
                assert more.params == spec.params
    assert exact == {(N, D) for N in (2, 4, 8) for D in (1, 3, 8) if D + 1 >= N}


def test_specialization_requires_maximal_ideal_point():
    with pytest.raises(ValueError):
        specialize_family(FAMILIES["rho3"], 6)  # 6 - alpha is a unit mod 11


def test_specialization_matches_series_reduction():
    fam = FAMILIES["rho1"]
    spec = specialize_family(fam, 2)  # t0 = 0: plain constant-term extraction
    for i in (1, 2):
        top = fam.rep.matrices[i].map(lambda e: e.constant_term())
        assert spec.rep.matrices[i] == top


@pytest.mark.parametrize("key", KEYS)
def test_trace_axioms_on_residuals(key):
    rep = FAMILIES[key].rep.residual()
    report = trace_axioms(rep, max_len=4, budget=200, seed=1)
    assert report.ok
    assert all(report.checks[k] == 200 for k in ("symmetry", "square", "product", "triple"))


def test_trace_axioms_on_series_family():
    fam = build_family("rho1", N=4, D=4)
    report = trace_axioms(fam.rep, max_len=3, budget=50, seed=2)
    assert report.ok


def test_trace_axioms_cache_only_the_sampled_words():
    # a product's trace is read from its factors' images, so the cache of
    # a long-lived representation does not grow by every product word
    fam = build_family("rho2", N=4, D=4)
    rep = Representation(fam.ring, fam.rep.matrices)
    assert trace_axioms(rep, max_len=3, budget=40, seed=0).ok
    assert max(len(w) for w in rep._cache) == 3


def test_trace_axioms_free_group_random_assignment():
    # trace identities hold for any det-1 pair, relation or not
    rng = random.Random(9)
    ring = Zp(7, 2)
    rep = Representation(ring, {1: random_sl2(rng, ring), 2: random_sl2(rng, ring)})
    assert trace_axioms(rep, max_len=3, budget=120, seed=3).ok


def test_trace_axioms_detect_corruption():
    rep = FAMILIES["rho1"].rep.residual()
    ring = rep.ring
    # corrupt the central value: deterministic violation
    bad = trace_axioms(rep, override={FreeWord(): ring(0)})
    assert not bad.ok
    assert bad.violation.axiom == "central"
    # corrupt one generator trace: caught by a sampled axiom
    w = gen(1)
    bad = trace_axioms(
        rep, max_len=1, budget=200, seed=0, override={w: rep(w).trace() + 1}
    )
    assert not bad.ok
    assert bad.violation is not None


@pytest.mark.parametrize("max_len", [0, -1])
def test_trace_axioms_rejects_max_len_below_one(max_len):
    with pytest.raises(ValueError, match="max_len"):
        trace_axioms(FAMILIES["rho1"].rep, max_len=max_len)


def _evaluator_reps():
    rng = random.Random(17)
    ring = Zp(7, 2)
    reps = {"random_sl2": Representation(ring, {1: random_sl2(rng, ring), 2: random_sl2(rng, ring)})}
    for key in KEYS:
        reps[key] = FAMILIES[key].rep
        reps[key + "-residual"] = FAMILIES[key].rep.residual()
    return reps


@pytest.mark.parametrize("name", ["random_sl2"] + [k + s for k in KEYS for s in ("", "-residual")])
def test_representation_matches_word_matrix(name):
    # the prefix-sharing evaluator against products taken from scratch,
    # on fresh caches filled shortest-first and in shuffled order
    rep = _evaluator_reps()[name]
    words = [FreeWord()] + reduced_words(5)
    expected = {w: word_matrix(rep.matrices, w, rep.one, rep.zero) for w in words}
    shuffled = list(words)
    random.Random(5).shuffle(shuffled)
    for order in (words, shuffled):
        fresh = Representation(rep.ring, rep.matrices)
        for w in order:
            assert fresh(w) == expected[w], (name, str(w))


LETTERS = ((1, 1), (1, -1), (2, 1), (2, -1))


@pytest.mark.parametrize("ring", [Zp(3, 4), Zp(11, 2), ZpT(5, 3, 4), ZpT(7, 2, 17)], ids=repr)
def test_trace_coordinates_match_word_matrix(ring):
    # oracle: each letter step in trace coordinates, on both sides, and
    # every reduced word up to length 4 against products taken from
    # scratch, on random det-1 pairs
    rng = random.Random(ring.p * 100 + ring.N)
    for _ in range(2):
        mats = {1: random_sl2(rng, ring), 2: random_sl2(rng, ring)}
        rep = Representation(ring, mats)
        words = [FreeWord()] + reduced_words(4)
        rng.shuffle(words)
        for w in words:
            assert rep(w) == word_matrix(mats, w, ring.one, ring.zero), str(w)
            if len(w) == 4:
                continue
            for x in LETTERS:
                right = word_matrix(mats, w.letters + (x,), ring.one, ring.zero)
                left = word_matrix(mats, (x,) + w.letters, ring.one, ring.zero)
                assert rep.matrix(rep.right(rep.coords(w), x)) == right, (str(w), x)
                assert rep.matrix(rep.left(x, rep.coords(w))) == left, (str(w), x)


@pytest.mark.parametrize(
    "word, letter",
    [
        # rho(first letter) times the cached suffix: the identity, then g1
        (gen(3), "g3^1"),
        (gen(3, -1) * gen(1), "g3^-1"),
        # the longest cached prefix times the remaining letters: g1, then g2 g1^-1
        (gen(1) * gen(5), "g5^1"),
        (gen(2) * gen(1, -1) * gen(4, -1), "g4^-1"),
    ],
    ids=str,
)
def test_representation_rejects_a_letter_it_has_no_image_for(word, letter):
    # rho assigns g1 and g2 only; no other letter may stand in for one of them
    rep = Representation(FAMILIES["rho1"].rep.ring, FAMILIES["rho1"].rep.matrices)
    for evaluate in (rep.coords, rep):
        with pytest.raises(ValueError, match="no image for the letter %s;" % re.escape(letter)):
            evaluate(word)
    m = rep.coords(gen(1))
    for g, s in ((0, 1), (3, 1), (3, -1), (1, 2)):
        with pytest.raises(ValueError, match="no image for the letter g%d\\^%d;" % (g, s)):
            rep.right(m, (g, s))
        with pytest.raises(ValueError, match="no image for the letter g%d\\^%d;" % (g, s)):
            rep.left((g, s), m)


def _reducible_pairs(ring, rng):
    """A = B for random det-1 A, and every pair of upper-triangular
    matrices over the field ring with diagonals (u, 1/u) and (u, 1/u) or
    (1/u, u)."""
    pairs = []
    for _ in range(10):
        a = random_sl2(rng, ring)
        pairs.append((a, a))
    p = ring.p
    for u in range(1, p):
        v = pow(u, -1, p)
        for s in range(p):
            for t in range(p):
                g1 = Mat2(ring(u), ring(s), ring.zero, ring(v))
                pairs.append((g1, Mat2(ring(u), ring(t), ring.zero, ring(v))))
                pairs.append((g1, Mat2(ring(v), ring(t), ring.zero, ring(u))))
    return pairs


@pytest.mark.parametrize("m, n", [(3, 1), (5, 3), (7, 3)])
def test_relation_holds_on_reducible_pairs(m, n):
    # I, A, B, AB span less than all 2 x 2 matrices here, so w g1 and g2 w
    # can have different trace coordinates and one matrix; relation_holds
    # then decides on the matrix of the difference
    pres = two_bridge(m, n)
    lhs, rhs = pres.w * gen(1), gen(2) * pres.w
    rng = random.Random(m * 10 + n)
    fallback = 0
    for ring in (Zp(7, 1), Zp(13, 1)):
        for g1, g2 in _reducible_pairs(ring, rng):
            mats = {1: g1, 2: g2}
            want = word_matrix(mats, lhs, ring.one, ring.zero) == word_matrix(mats, rhs, ring.one, ring.zero)
            rep = Representation(ring, mats)
            assert relation_holds(pres, rep) == want
            fallback += want and rep.coords(lhs) != rep.coords(rhs)
    series = ZpT(5, 3, 4)
    for _ in range(4):
        a = random_sl2(rng, series)
        assert relation_holds(pres, Representation(series, {1: a, 2: a}))
    assert fallback > 0


@pytest.mark.parametrize("key", KEYS)
def test_relation_holds_rejects_a_tampered_pair(key):
    # g2 conjugated alone by [[1, T^D], [0, 1]]: det 1, both traces and the
    # residue kept, and the relation broken; and g2 replaced by a random
    # det-1 matrix over the residue field
    fam = FAMILIES[key]
    g1, g2 = fam.rep.matrices[1], fam.rep.matrices[2]
    tD = fam.ring([0] * fam.ring.D + [1])
    conj = Mat2(fam.ring.one, tD, fam.ring.zero, fam.ring.one)
    bad = conj * g2 * conj.sl2_inverse()
    assert bad.trace() == g2.trace() and (bad.det() - 1).is_zero
    for w in (fam.pres.w * gen(1), gen(2) * fam.pres.w):
        assert word_matrix({1: g1, 2: bad}, w, fam.ring.one, fam.ring.zero) != fam.rep(w)
    assert not relation_holds(fam.pres, Representation(fam.ring, {1: g1, 2: bad}))
    res = fam.rep.residual()
    field = res.ring
    other = random_sl2(random.Random(fam.p), field)
    mats = {1: res.matrices[1], 2: other}
    lhs, rhs = fam.pres.w * gen(1), gen(2) * fam.pres.w
    assert word_matrix(mats, lhs, field.one, field.zero) != word_matrix(mats, rhs, field.one, field.zero)
    assert not relation_holds(fam.pres, Representation(field, mats))


def test_representation_starts_from_its_letter_images(monkeypatch):
    reps = _evaluator_reps()
    products = []
    mul = Mat2.__mul__

    def counting(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(Mat2, "__mul__", counting)
    for name, rep in reps.items():
        fresh = Representation(rep.ring, rep.matrices)
        assert fresh(FreeWord()) == Mat2.identity(rep.one, rep.zero), name
        for i in (1, 2):
            assert fresh(gen(i)) == rep.matrices[i], name
            assert fresh(gen(i, -1)) == rep.matrices[i].sl2_inverse(), name
        assert products == [], name


def test_representation_long_word_without_recursion():
    rep = FAMILIES["rho2"].rep.residual()
    rng = random.Random(23)
    w = FreeWord.from_runs([(1 + k % 2, rng.choice((-3, -2, -1, 1, 2, 3))) for k in range(1000)])
    assert len(w) >= 1500
    assert rep(w) == word_matrix(rep.matrices, w, rep.one, rep.zero)
    assert rep(w.prefix(len(w) - 1)) * rep(FreeWord(w.letters[-1:])) == rep(w)


def _reference_trace_axioms(rep, max_len, budget, seed, override):
    """trace_axioms with every T(w) the trace of word_matrix(w) for the
    reduced product word w, unless override names w."""
    memo = {}

    def T(w):
        if w in override:
            return override[w]
        if w not in memo:
            memo[w] = word_matrix(rep.matrices, w, rep.one, rep.zero).trace()
        return memo[w]

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
    pool = reduced_words(max_len)
    rng = random.Random(seed)
    checks = {"central": 1, "symmetry": 0, "square": 0, "product": 0, "triple": 0}
    if not (T(FreeWord()) - 2).is_zero:
        return checks, ("central", ("e",))
    for name, arity, defect in identities:
        for _ in range(budget):
            ws = [rng.choice(pool) for _ in range(arity)]
            checks[name] += 1
            if not defect(*ws).is_zero:
                return checks, (name, tuple(str(w) for w in ws))
    return checks, None


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("corrupt", [None, "e", "g1", "g1 g2"])
def test_trace_axioms_match_per_word_reference(key, corrupt):
    # products from cached factors read the same values, overrides and all;
    # with max_len = 1 only a product of two samples reaches g1 g2
    fam = FAMILIES[key]
    max_len = 1 if corrupt == "g1 g2" else 3
    override = {}
    if corrupt is not None:
        w = {"e": FreeWord(), "g1": gen(1), "g1 g2": gen(1) * gen(2)}[corrupt]
        override[w] = fam.rep(w).trace() + 1
    for seed in (0, 1):
        report = trace_axioms(fam.rep, max_len=max_len, budget=40, seed=seed, override=override)
        checks, violation = _reference_trace_axioms(fam.rep, max_len, 40, seed, override)
        assert report.checks == checks
        got = report.violation and (report.violation.axiom, report.violation.words)
        assert got == violation
        assert (violation is None) == (corrupt is None)


def test_reduced_words_census():
    ws = reduced_words(4)
    assert len(ws) == 160  # 4 + 12 + 36 + 108
    assert len(set(ws)) == 160
    assert all(1 <= len(w) <= 4 for w in ws)
    assert reduced_words(0) == []


def test_random_sl2_det_one():
    rng = random.Random(31)
    ring = Zp(11, 3)
    zero_a = 0
    for _ in range(200):
        m = random_sl2(rng, ring)
        assert m.det() == ring.one
        zero_a += m.a.is_zero
    assert zero_a > 0  # the a = 0 branch is exercised
    sring = ZpT(5, 2, 3)
    for _ in range(100):
        assert random_sl2(rng, sring).det() == sring.one


def test_family_build_deterministic():
    a = build_family("rho2", N=6, D=5)
    b = build_family("rho2", N=6, D=5)
    for i in (1, 2):
        assert a.rep.matrices[i] == b.rep.matrices[i]
