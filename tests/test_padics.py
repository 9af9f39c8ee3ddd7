"""Truncated p-adic integers and power series: primality and square
roots mod p, ring axioms, square roots against exhaustive oracles,
Hensel lifting, gcd normal forms."""

import random

import pytest
from hypothesis import given, settings, strategies as st
from oracles import series_product

from twobridge.laurent import LaurentPoly
from twobridge.padics import (
    BadSeed,
    DivisorNormalForm,
    Indeterminate,
    NonUnit,
    NoSquareRoot,
    PadicSeries,
    SingularRoot,
    Zp,
    ZpT,
    _newton,
    gcd_normal_form,
    hensel_root,
    is_prime,
    poly_derivative,
    poly_eval,
    power,
    sqrt_mod_prime,
    sqrt_positive,
)

from twobridge.riley import BivariatePoly

SMALL_RINGS = [Zp(3, 4), Zp(5, 3), Zp(7, 3), Zp(11, 2)]

PROVEN_BOUND = 3317044064679887385961981  # Sorenson & Webster 2017


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-5, 20000) if is_prime(n)] == [
        n for n in range(-5, 20000) if trial_division_is_prime(n)
    ]


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael
        41041,  # Carmichael
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to bases 2, ..., 23
        318665857834031151167461,  # strong pseudoprime to bases 2, ..., 37
    ],
)
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_large_and_proven_bound():
    assert is_prime(2**61 - 1)
    assert not is_prime((2**61 - 1) * 1000003)
    assert is_prime(1000000007)
    assert not is_prime(1000000008)
    # the bound itself is a strong pseudoprime to bases 2, ..., 41
    for n in (PROVEN_BOUND, PROVEN_BOUND + 2, 2**127 - 1):
        with pytest.raises(ValueError, match=str(PROVEN_BOUND)):
            is_prime(n)


def test_sqrt_mod_prime_matches_table_of_squares():
    for p in range(3, 2000, 2):
        if not trial_division_is_prime(p):
            continue
        smallest = {}
        for x in range((p - 1) // 2, -1, -1):
            smallest[x * x % p] = x
        for a in range(p):
            assert sqrt_mod_prime(a, p) == smallest.get(a), (a, p)
    # a is read mod p
    assert sqrt_mod_prime(-1, 13) == sqrt_mod_prime(12, 13) == 5
    assert sqrt_mod_prime(2 + 7 * 10**30, 7) == 3


def test_ring_construction_guards():
    with pytest.raises(ValueError):
        Zp(4, 2)
    with pytest.raises(ValueError):
        Zp(2, 8)  # p = 2 unsupported
    with pytest.raises(ValueError):
        Zp(5, 0)
    with pytest.raises(ValueError):
        ZpT(5, 2, -1)


def test_padic_int_basics():
    R = Zp(7, 3)
    a = R(10)
    assert a.r == 10
    assert (a + R(333)).r == 343 % 343
    assert (a * 0).is_zero
    assert R(7).valuation() == 1
    assert R(49).valuation() == 2
    assert R(0).valuation() == 3
    assert R(3).is_unit
    assert not R(7).is_unit
    assert (R(3) * R(3).invert_unit()).r == 1
    with pytest.raises(NonUnit):
        R(7).invert_unit()
    assert R(-1) == R(342)
    assert R(5) == 5


def test_padic_int_pow():
    R = Zp(5, 4)
    assert (R(2) ** 10).r == pow(2, 10, 5**4)
    assert (R(2) ** -1) == R(2).invert_unit()


@pytest.mark.parametrize("ring", SMALL_RINGS)
def test_sqrt_against_exhaustive_oracle(ring):
    # every unit square has exactly two roots; sqrt_positive returns the
    # one whose residue lies in 1..(p-1)/2
    M = ring.modulus
    for a in range(1, M):
        if a % ring.p == 0:
            continue
        roots = [r for r in range(M) if (r * r - a) % M == 0]
        try:
            s = sqrt_positive(ring(a))
        except NoSquareRoot:
            assert roots == []
            continue
        assert s.r in roots
        assert 1 <= s.r % ring.p <= (ring.p - 1) // 2


def test_sqrt_nonunit_rejected():
    with pytest.raises(NonUnit):
        sqrt_positive(Zp(5, 3)(5))
    with pytest.raises(NonUnit):
        sqrt_positive(Zp(5, 3)(0))


def test_sqrt_nonresidue_rejected():
    # 2 is not a square mod 3
    with pytest.raises(NoSquareRoot):
        sqrt_positive(Zp(3, 5)(2))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([(3, 8), (7, 8), (11, 8), (19, 6)]))
def test_sqrt_backsubstitution(seed, pn):
    p, N = pn
    ring = Zp(p, N)
    rng = random.Random(seed)
    while True:
        r = ring(rng.randrange(ring.modulus))
        if r.is_unit:
            break
    a = r * r
    s = sqrt_positive(a)
    assert s * s == a
    assert 1 <= s.residue() <= (p - 1) // 2


def _random_series(rng, ring, unit=None):
    cs = [rng.randrange(ring.base.modulus) for _ in range(ring.D + 1)]
    if unit is True:
        while cs[0] % ring.p == 0:
            cs[0] = rng.randrange(ring.base.modulus)
    if unit is False:
        cs[0] -= cs[0] % ring.p
    return ring(cs)


def test_series_arithmetic():
    R = ZpT(5, 3, 4)
    f = R([1, 2, 3])
    g = R([4, 0, 1])
    assert (f + g).coeffs[:3] == (5, 2, 4)
    assert (f - f).is_zero
    h = f * g
    # (1 + 2T + 3T^2)(4 + T^2) truncated at T^4
    assert h.coeffs == (4, 8, 13 % 125, 2, 3)
    assert (f * 1) == f
    assert (f ** 2) == f * f


def _coefficients(draw, modulus, D):
    """Zero, constant, sparse or dense coefficients below modulus."""
    kind = draw(st.sampled_from(["zero", "constant", "sparse", "dense"]))
    if kind == "zero":
        return [0] * (D + 1)
    if kind == "constant":
        return [draw(st.integers(1, modulus - 1))] + [0] * D
    digit = st.integers(0, modulus - 1)
    if kind == "sparse":
        support = draw(st.sets(st.integers(0, D), min_size=1, max_size=3))
        return [draw(digit) if k in support else 0 for k in range(D + 1)]
    return [draw(digit) for _ in range(D + 1)]


@st.composite
def _series_pairs(draw):
    p = draw(st.sampled_from([3, 5, 11, 19, 101, 65537, 2**61 - 1]))
    digits = draw(st.integers(1, 8))  # p^N spans 1 to 8 64-bit machine digits
    N = max(1, 64 * digits // p.bit_length())
    D = draw(st.integers(0, 40))
    R = ZpT(p, N, D)
    modulus = R.base.modulus
    return R, _coefficients(draw, modulus, D), _coefficients(draw, modulus, D)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_series_pairs())
def test_series_mul_matches_schoolbook_convolution(case):
    R, a, b = case
    f, g = R(a), R(b)
    expected = tuple(series_product(a, b, R.base.modulus, R.D))
    assert (f * g).coeffs == expected
    assert (g * f).coeffs == expected


def test_series_inversion():
    R = ZpT(7, 4, 6)
    rng = random.Random(5)
    for _ in range(50):
        f = _random_series(rng, R, unit=True)
        assert (f * f.invert_unit() - 1).is_zero
    with pytest.raises(NonUnit):
        _random_series(rng, R, unit=False).invert_unit()


def test_series_sqrt_backsubstitution():
    rng = random.Random(11)
    for p in (3, 7, 11):
        R = ZpT(p, 6, 6)
        for _ in range(30):
            f = _random_series(rng, R, unit=True)
            a = f * f
            s = sqrt_positive(a)
            assert s * s == a
            assert 1 <= s.residue() <= (p - 1) // 2
            assert s in (f, -f)


def test_series_t_order_and_valuation():
    R = ZpT(5, 3, 4)
    f = R([0, 0, 5, 1])
    assert f.t_order() == 2
    assert f.min_coeff_valuation() == 0
    assert R([0]).t_order() is None
    assert R([25, 5]).min_coeff_valuation() == 1


def test_specialize_exactness_threshold():
    # Horner evaluation is exact when (D+1) val(t0) >= N
    R = ZpT(3, 4, 4)
    base = R.base
    f = R([1, 1, 1, 1, 1])
    t0 = base(3)
    expect = sum(3**k for k in range(5)) % 3**4
    assert f.specialize(t0).r == expect
    with pytest.raises(ValueError):
        f.specialize(base(1))  # unit t0 leaves the disk of convergence


def test_specialize_indeterminate_below_threshold():
    # (D+1) val(t0) < N: the dropped tail can reach the low digits, so the
    # value is refused rather than returned with wrong digits
    R = ZpT(3, 6, 2)
    f = R([1, 1, 1])
    assert f.specialize(R.base(9)).r == 1 + 9 + 81  # 3 * 2 >= 6: exact
    with pytest.raises(Indeterminate, match="N = 6 needs D >= 5"):
        f.specialize(R.base(3))  # 3 * 1 < 6


def test_hensel_root_scalar():
    R = Zp(11, 8)
    # f(s) = (s - 4)(s - 7)(s - 1) has three simple roots mod 11
    def coeffs_from_roots(roots):
        cs = [R(1)]
        for r in roots:
            nxt = [R(0)] * (len(cs) + 1)
            for k, c in enumerate(cs):
                nxt[k + 1] = nxt[k + 1] + c
                nxt[k] = nxt[k] - c * r
            cs = nxt
        return cs

    roots = [R(4), R(7), R(1)]
    cs = coeffs_from_roots(roots)
    for r in roots:
        got = hensel_root(cs, R(r.residue()))
        assert got == r
        assert poly_eval(cs, got).is_zero


def test_hensel_bad_seed():
    R = Zp(5, 6)
    # f(s) = s^2 - 2: 2 is a non-residue mod 5, so any seed fails the residue check
    cs = [R(-2), R(0), R(1)]
    with pytest.raises(BadSeed):
        hensel_root(cs, R(1))


def test_hensel_singular_root():
    R = Zp(5, 6)
    # f(s) = (s - 2)^2 has a double root: derivative vanishes at the seed
    cs = [R(4), R(-4), R(1)]
    with pytest.raises(SingularRoot):
        hensel_root(cs, R(2))


def test_hensel_series():
    rng = random.Random(3)
    R = ZpT(11, 6, 6)
    for _ in range(20):
        r0 = _random_series(rng, R)
        # f(s) = (s - r0) * (s - r0 - u) with u a unit: r0 is a simple root
        u = _random_series(rng, R, unit=True)
        r1 = r0 + u
        cs = [r0 * r1, -(r0 + r1), R.one]
        got = hensel_root(cs, R.constant(r0.residue()))
        assert got == r0
        assert poly_eval(cs, got).is_zero
        dcs = poly_derivative(cs)
        assert poly_eval(dcs, got).is_unit


# --- the shared power ladder and Newton driver ----------------------------


@pytest.mark.parametrize("k", range(18))
def test_power_matches_repeated_product(k):
    S = ZpT(7, 5, 6)
    L = Zp(7, 5)
    cases = [
        (S([3, 1, 4, 1, 5, 9, 2]), S.one),
        (LaurentPoly(L, {-2: 3, 0: 1, 3: 5}), LaurentPoly.one(L)),
        (BivariatePoly({(-1, 0): 2, (0, 1): -1, (2, 3): 1}), BivariatePoly.constant(1)),
    ]
    for x, one in cases:
        want = one
        for _ in range(k):
            want = want * x
        assert power(x, k, one) == want
        assert x**k == want


def test_newton_stops_at_the_fixed_point():
    R = Zp(5, 8)
    assert _newton(R(0), lambda s: s + 1 if s.r < 3 else s, "test") == R(3)


@pytest.mark.parametrize("seed", [Zp(5, 8)(1), ZpT(5, 4, 4).one])
@pytest.mark.parametrize("name", ["sqrt", "Hensel"])
def test_newton_raises_when_the_step_never_settles(seed, name):
    with pytest.raises(ArithmeticError, match="^%s Newton iteration failed to stabilize$" % name):
        _newton(seed, lambda s: s + 1, name)


def test_gcd_normal_form_reference_vectors():
    R = ZpT(5, 4, 6)
    T = R.T
    p = R.constant(5)
    one = R.one

    nf = gcd_normal_form([T * T * (one + T), T ** 3])
    assert (nf.mu, nf.lam, nf.certified) == (0, 2, True)

    nf = gcd_normal_form([p * T, p * T * T])
    assert (nf.mu, nf.lam, nf.certified) == (1, 1, True)

    nf = gcd_normal_form([p + T])
    assert (nf.mu, nf.lam, nf.certified) == (0, 0, False)


def test_gcd_normal_form_indeterminate():
    R = ZpT(5, 4, 6)
    with pytest.raises(Indeterminate):
        gcd_normal_form([R.zero, R.zero])
    with pytest.raises(Indeterminate):
        gcd_normal_form([])


def test_gcd_normal_form_unit_invariance_fuzz():
    rng = random.Random(17)
    R = ZpT(7, 5, 6)
    cases = 0
    while cases < 200:
        polys = []
        for _ in range(rng.randrange(1, 4)):
            f = _random_series(rng, R)
            # plant structure: shift T-order and p-content
            f = f * (R.T ** rng.randrange(0, 3)) * (R.constant(7) ** rng.randrange(0, 2))
            polys.append(f)
        if all(f.is_zero for f in polys):
            continue
        base_nf = gcd_normal_form(polys)
        u = _random_series(rng, R, unit=True)
        scaled_nf = gcd_normal_form([f * u for f in polys])
        assert base_nf.same_divisor(scaled_nf)
        assert base_nf.certified == scaled_nf.certified
        cases += 1


def test_divisor_normal_form_api():
    nf = DivisorNormalForm(mu=0, lam=0, certified=True)
    assert nf.is_unit_form()
    assert nf.to_json() == {"mu": 0, "lambda": 0, "certified": True}
    assert not DivisorNormalForm(mu=1, lam=0, certified=True).is_unit_form()
    assert nf.same_divisor(DivisorNormalForm(mu=0, lam=0, certified=False))


def test_padic_json():
    a = Zp(11, 8)(38)
    assert a.to_json() == {"p": 11, "N": 8, "residue": "38"}
    f = ZpT(3, 2, 2)([1, 2, 3])
    assert f.to_json()["coeffs"] == ["1", "2", "3"]
