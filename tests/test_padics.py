"""Truncated p-adic integers and power series: primality and square
roots mod p, ring axioms, square roots against exhaustive oracles,
Hensel lifting, gcd normal forms."""

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st
from oracles import hensel_full_precision, series_product

from twobridge import cli, deformations, padics
from twobridge.laurent import LaurentPoly
from twobridge.padics import (
    _KRONECKER_MIN_D,
    BadSeed,
    DivisorNormalForm,
    Indeterminate,
    NonUnit,
    NoSquareRoot,
    PadicSeries,
    SingularRoot,
    Zp,
    ZpT,
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


def test_sqrt_mod_prime_raises_where_no_non_residue_exists():
    # mod 9 every z^4 is 0, 1, 4 or 7, never -1, and mod 21 and 25 no z
    # has z^((p-1)/2) = -1 either: the search for a non-residue must stop
    # at its bound. A subprocess with a timeout turns a search that never
    # stops into a failure, not a stalled run.
    code = (
        "from twobridge.padics import sqrt_mod_prime\n"
        "for p in (9, 21, 25):\n"
        "    try:\n"
        "        print(sqrt_mod_prime(1, p))\n"
        "    except ValueError as err:\n"
        "        print(err)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [
        "no quadratic non-residue mod %d; p must be an odd prime" % p for p in (9, 21, 25)
    ]


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
    """Zero, constant, sparse, dense or all-maximal coefficients below
    modulus; the last fill every slot of a Kronecker product to its top."""
    kind = draw(st.sampled_from(["zero", "constant", "sparse", "dense", "max"]))
    if kind == "zero":
        return [0] * (D + 1)
    if kind == "max":
        return [modulus - 1] * (D + 1)
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
    # p^N from a few bits, where a Kronecker slot is one 64-bit word, to
    # eight 64-bit machine digits, far past the word-size bound
    bits = draw(st.sampled_from([8, 16, 28, 40, 56, 64, 128, 256, 512]))
    N = max(1, bits // p.bit_length())
    D = draw(st.integers(0, 100))
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


def _kronecker_bound_cases():
    """(p, N, D, words): D just below and at _KRONECKER_MIN_D, and at 100;
    for each, the largest N whose product slot of 2 bits(p^N) + bits(D+1)
    bits fits in one and in two 64-bit words, and the next N up. words is
    the slot width the ring must choose, 0 for the schoolbook product."""
    cases = []
    for p in (3, 19):
        for D in (_KRONECKER_MIN_D - 1, _KRONECKER_MIN_D, 100):
            for width in (64, 128):
                N = max(n for n in range(1, 200) if 2 * (p**n).bit_length() + (D + 1).bit_length() <= width)
                words = width // 64 if D >= _KRONECKER_MIN_D else 0
                cases.append((p, N, D, words))
                cases.append((p, N + 1, D, 2 if words == 1 else 0))
    return cases


@pytest.mark.parametrize("p, N, D, words", _kronecker_bound_cases())
def test_series_mul_on_both_sides_of_the_kronecker_bounds(p, N, D, words):
    R = ZpT(p, N, D)
    assert R.slot == words
    m = R.base.modulus
    rng = random.Random(p * 1000 + N * 100 + D)
    top = [m - 1] * (D + 1)  # every slot at its largest sum
    dense = [rng.randrange(m) for _ in range(D + 1)]
    sparse = [0] * (D + 1)
    for k in rng.sample(range(D + 1), 3):
        sparse[k] = rng.randrange(1, m)
    for a, b in [(top, top), ([m - 1], top), (sparse, top), (dense, top), (dense, sparse), ([0], dense), (top, [])]:
        expected = tuple(series_product(a, b, m, D))
        assert (R(a) * R(b)).coeffs == expected
        assert (R(b) * R(a)).coeffs == expected


def _sparse_product_rings():
    """(D, N, words) for p = 11: D in {0, 1, 8, 16, 96} and, for each D,
    an N at every slot width the ring can choose: 0 (schoolbook), and at
    D >= _KRONECKER_MIN_D the largest N whose slot fits in one and in two
    64-bit words."""
    out = []
    for D in (0, 1, 8, 16, 96):
        slot = lambda n: 2 * (11**n).bit_length() + (D + 1).bit_length()
        one = max(n for n in range(1, 40) if slot(n) <= 64)
        two = max(n for n in range(1, 40) if slot(n) <= 128)
        if D < _KRONECKER_MIN_D:
            out += [(D, one, 0), (D, two + 1, 0)]
        else:
            out += [(D, one, 1), (D, two, 2), (D, two + 1, 0)]
    return out


@pytest.mark.parametrize("D, N, words", _sparse_product_rings())
def test_sparse_operand_products_match_schoolbook(D, N, words):
    # an operand with at most two nonzero coefficients takes one
    # shift-and-scale pass, on either side and on both; the schoolbook
    # convolution of tests/oracles.py decides the coefficients
    R = ZpT(11, N, D)
    assert R.slot == words
    m = R.base.modulus
    rng = random.Random(D * 1000 + N)

    def sparse(k):
        cs = [0] * (D + 1)
        for i in rng.sample(range(D + 1), min(k, D + 1)):
            cs[i] = rng.choice([1, m - 1, rng.randrange(1, m)])
        return cs

    def dense():
        return [rng.randrange(m) for _ in range(D + 1)]

    edges = [[0] * D + [m - 1], [m - 1] + [0] * (D - 1) + [1] if D else [1], [0] * (D + 1)]
    for _ in range(12):
        for a in [sparse(0), sparse(1), sparse(2), *edges]:
            for b in (dense(), sparse(1), sparse(2), [m - 1] * (D + 1)):
                expected = tuple(series_product(a, b, m, D))
                assert (R(a) * R(b)).coeffs == expected, (a, b)
                assert (R(b) * R(a)).coeffs == expected, (a, b)


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


# N = 1, N = 2^k and N = 2^k + 1; D = 0, D + 1 = 2^k and D + 1 = 2^k + 1,
# with D = 16 on the Kronecker product; None is the lift over Z_p alone
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(0, 10**6),
    st.sampled_from([3, 5, 7, 11]),
    st.sampled_from([1, 2, 3, 4, 5, 8, 9]),
    st.sampled_from([None, 0, 1, 2, 3, 4, 7, 8, 16]),
    st.integers(1, 4),
    st.booleans(),
)
def test_newton_lifts_match_full_precision_oracle(seed, p, N, D, degree, monic):
    # a random f of y-degree 1-4 with a simple root mod (p, T), and a
    # random unit square: hensel_root and sqrt_positive (Newton with f'
    # inverted in the previous ring over Z_p, the coefficient recurrence
    # in T) equal the Newton lift that inverts f' in full in every ring
    rng = random.Random(seed)
    m, width = p**N, 1 if D is None else D + 1
    cs = [[rng.randrange(m) for _ in range(width)] for _ in range(degree + 1)]
    if monic:
        cs[-1] = [1] + [0] * (width - 1)
    r0, unit = rng.randrange(p), rng.randrange(1, p)
    cs[1][0] = unit - sum(k * cs[k][0] * r0 ** (k - 1) for k in range(2, degree + 1)) + p * rng.randrange(m)
    cs[0][0] = -sum(cs[k][0] * r0**k for k in range(1, degree + 1)) + p * rng.randrange(m)
    a = [rng.randrange(m) for _ in range(width)]
    root_a = rng.randrange(1, (p + 1) // 2)
    a[0] = root_a * root_a + p * rng.randrange(m)
    square = [[-c for c in a], [0], [1]]
    if D is None:
        F = Zp(p, N)
        assert hensel_root([c for c, in cs], F(r0)).r == hensel_full_precision([c for c, in cs], r0, p, N)
        assert sqrt_positive(F(a[0])).r == hensel_full_precision([c for c, in square], root_a, p, N)
    else:
        R = ZpT(p, N, D)
        assert list(hensel_root([R(c) for c in cs], R.constant(r0)).coeffs) == hensel_full_precision(cs, r0, p, N, D)
        assert list(sqrt_positive(R(a)).coeffs) == hensel_full_precision(square, root_a, p, N, D)


def _is_one(x):
    return x.coeffs[0] == 1 and not any(x.coeffs[1:])


def test_hensel_root_on_a_monic_f_never_multiplies_by_one(series_products, monkeypatch):
    # Horner skips the leading 1 of a monic f: lifting the square root of
    # a = 2 + T + 5T^2 over Z_7[[T]] (3^2 = 2 mod 7), as sqrt_positive
    # does, makes series products but none with the constant 1
    R = ZpT(7, 12, 12)
    counting = PadicSeries.__mul__

    def no_one(self, other):
        assert not (isinstance(other, PadicSeries) and (_is_one(self) or _is_one(other)))
        return counting(self, other)

    monkeypatch.setattr(PadicSeries, "__mul__", no_one)
    monkeypatch.setattr(PadicSeries, "__rmul__", no_one)
    a = R([2, 1, 5])
    root = hensel_root([-a, 0, 1], R.constant(3))
    assert root * root == a and root.residue() == 3
    assert series_products
    # y^2 + c1 y + 1 at a series s costs one product, (s + c1) * s
    s, c1 = R([3, 1]), R([4, 0, 2])
    want = s * s + c1 * s + 1
    series_products.clear()
    assert poly_eval([R.one, c1, R.one], s) == want
    assert len(series_products) == 1


# --- the shared power ladder and Newton driver ----------------------------


@pytest.mark.parametrize("k", range(18))
def test_power_matches_repeated_product(k):
    S = ZpT(7, 5, 6)
    L = Zp(7, 5)
    cases = [
        (S([3, 1, 4, 1, 5, 9, 2]), S.one),
        (LaurentPoly(L, {-2: 3, 0: 1, 3: 5}), LaurentPoly(L, {0: 1})),
        (BivariatePoly({(-1, 0): 2, (0, 1): -1, (2, 3): 1}), BivariatePoly.constant(1)),
    ]
    for x, one in cases:
        want = one
        for _ in range(k):
            want = want * x
        assert power(x, k, one) == want
        if not isinstance(x, LaurentPoly):  # LaurentPoly has no ** operator
            assert x**k == want


def test_newton_stops_at_the_fixed_point(monkeypatch):
    # a seed that is already a root comes back unchanged, with no step taken
    R = Zp(5, 8)
    monkeypatch.setattr(padics.PadicInt, "invert_unit", lambda self: pytest.fail("inverted"))
    assert hensel_root([12, -7, 1], R(3)) == R(3)


@pytest.mark.parametrize("seed", [Zp(5, 8)(1), ZpT(5, 4, 4).one])
@pytest.mark.parametrize("name", ["Hensel"])
def test_newton_raises_when_the_step_never_settles(monkeypatch, seed, name):
    # y^2 - (seed + 5): the seed is a root mod the maximal ideal, not yet mod p^2
    monkeypatch.setattr(padics, "_newton_cap", lambda exponent: 0)
    with pytest.raises(ArithmeticError, match="^%s Newton iteration failed to stabilize$" % name):
        hensel_root([-(seed + 5), 0, 1], seed)


# N >> D, D >> N and N ~ D, and the scalar rings at the same N
NEWTON_PRECISIONS = [(40, 3), (2, 40), (12, 12), (1, 17), (17, 0)]


@pytest.mark.parametrize("N, D", NEWTON_PRECISIONS)
@pytest.mark.parametrize("p", [3, 11, 19])
def test_doubling_newton_matches_the_full_precision_loop(monkeypatch, p, N, D):
    # over Z_p the doubling schedule equals every step at full precision;
    # in T the coefficient recurrence equals the Newton oracle, which
    # inverts f' in full in every ring
    rng = random.Random(p * 10000 + N * 100 + D)
    R, F = ZpT(p, N, D), Zp(p, N)
    cases = []  # Z_p (function, arguments), each run by both drivers
    for _ in range(4):
        f = _random_series(rng, R, unit=True)
        a, root = f * f, min(f.residue(), p - f.residue())
        want = hensel_full_precision([[-c for c in a.coeffs], [0], [1]], root, p, N, D)
        assert list(sqrt_positive(a).coeffs) == want
        x = F(rng.randrange(1, p) + p * rng.randrange(F.modulus))  # a unit
        cases.append((sqrt_positive, (x * x,)))
        # (s - r0)(s - r0 - u) with u a unit: r0 is a simple root; the seed
        # is right only mod (p, T)
        r0, u = _random_series(rng, R), _random_series(rng, R, unit=True)
        cs = [r0 * (r0 + u), -(r0 + r0 + u), R.one]
        want = hensel_full_precision([list(c.coeffs) for c in cs], r0.residue(), p, N, D)
        assert list(hensel_root(cs, R.constant(r0.residue())).coeffs) == want == list(r0.coeffs)
        x0, v = F(rng.randrange(F.modulus)), F(rng.randrange(1, p))
        cases.append((hensel_root, ([x0 * (x0 + v), -(x0 + x0 + v), 1], F(x0.residue()))))
    got = [fn(*args) for fn, args in cases]
    # every step at the full precision, from the residue alone
    monkeypatch.setattr(padics, "_doubling_rings", lambda ring: [])
    want = [fn(*args) for fn, args in cases]
    assert [(g.ring, str(g)) for g in got] == [(w.ring, str(w)) for w in want]


def _dense_root_case(rng, p, N, D, degree):
    """Coefficient lists of an f of y-degree `degree` with every c_j(T)
    dense (no zero coefficient) and a simple root r0 mod (p, T); and r0."""
    m = p**N
    while True:
        cs = [[rng.randrange(1, m) for _ in range(D + 1)] for _ in range(degree + 1)]
        r0, unit = rng.randrange(p), rng.randrange(1, p)
        cs[1][0] = unit - sum(k * cs[k][0] * r0 ** (k - 1) for k in range(2, degree + 1)) + p * rng.randrange(m)
        cs[0][0] = -sum(cs[k][0] * r0**k for k in range(1, degree + 1)) + p * rng.randrange(m)
        if all(c % m for c in cs[0] + cs[1]):
            return cs, r0


# f linear in y, a non-monic cubic, D = 0, N = 1 and p = 3, each with
# every c_j dense
@pytest.mark.parametrize(
    "p, N, D, degree",
    [(7, 6, 10, 1), (11, 8, 12, 3), (5, 6, 0, 3), (13, 1, 9, 3), (3, 9, 14, 3), (3, 1, 0, 3)],
)
def test_series_root_matches_the_newton_oracle(p, N, D, degree):
    rng = random.Random(p * 1000 + N * 50 + D * 7 + degree)
    R = ZpT(p, N, D)
    for _ in range(5):
        cs, r0 = _dense_root_case(rng, p, N, D, degree)
        root = hensel_root([R(c) for c in cs], R.constant(r0))
        assert list(root.coeffs) == hensel_full_precision(cs, r0, p, N, D)
        assert poly_eval([R(c) for c in cs], root).is_zero and root.residue() == r0 % p


def test_series_root_residual_check_is_live(monkeypatch):
    # one coefficient of the recurrence's answer off by p^(N-1) moves
    # [T^k] f(s) by f'(s0) p^(N-1), not 0 mod p^N: the final check raises
    p, N, D = 11, 6, 12
    R = ZpT(p, N, D)
    cs, r0 = _dense_root_case(random.Random(5), p, N, D, 3)
    coeffs = [R(c) for c in cs]
    good = hensel_root(coeffs, R.constant(r0))
    solve = padics._root_coefficients

    def corrupted(coeffs, s0):
        s = solve(coeffs, s0)
        s[7] += p ** (N - 1)
        return s

    monkeypatch.setattr(padics, "_root_coefficients", corrupted)
    with pytest.raises(ArithmeticError, match="residual check"):
        hensel_root(coeffs, R.constant(r0))
    assert poly_eval(coeffs, good).is_zero


def test_newton_confirms_the_root_without_an_inversion(monkeypatch):
    # the rho3 lifts at (97, 96): the Newton lift over Z_p inverts f'(s)
    # only in the previous, half-size ring, and confirms its root at full
    # precision with no inversion; a series root is then solved in T by
    # its coefficient recurrence, which inverts f'(s0) once, in Zp(p, N).
    # Building the family inverts no series at all
    from twobridge.padics import PadicInt

    inverted = []
    for cls in (PadicInt, PadicSeries):
        monkeypatch.setattr(cls, "invert_unit", lambda self, f=cls.invert_unit: inverted.append(self.ring) or f(self))
    calls = []

    def counting(fn):
        def wrapper(*args):
            start = len(inverted)
            out = fn(*args)
            base = getattr(out.ring, "base", out.ring)
            rings = inverted[start:]
            assert rings and all(r.N <= base.N and isinstance(r, Zp) for r in rings)
            calls.append((fn.__name__, out.ring, sum(r is out.ring for r in rings), sum(r is base for r in rings)))
            return out

        return wrapper

    for name in ("hensel_root", "sqrt_positive"):
        monkeypatch.setattr(deformations, name, counting(getattr(padics, name)))
    deformations.build_rho3(97, 96)
    assert not [r for r in inverted if isinstance(r, ZpT)]
    F, R = Zp(11, 97), ZpT(11, 97, 96)
    assert sorted(calls, key=str) == sorted(
        [("sqrt_positive", F, 0, 0), ("hensel_root", R, 0, 1), ("sqrt_positive", R, 0, 1)], key=str
    )


def test_to_ring_truncates_and_lifts():
    R, small = ZpT(5, 4, 6), ZpT(5, 4, 2)
    f = R([1, 2, 3, 4, 5, 6, 7])
    assert f.to_ring(small).coeffs == (1, 2, 3)
    assert f.to_ring(small).to_ring(R).coeffs == (1, 2, 3, 0, 0, 0, 0)
    assert f.to_ring(R) is f
    assert f.to_ring(ZpT(5, 1, 6)).coeffs == (1, 2, 3, 4, 0, 1, 2)
    # a ring takes any iterable of ints, truncated after T^D and padded
    assert R(c for c in range(1, 10)) == f
    assert small(iter([-1, 626])).coeffs == (624, 1, 0)
    x = Zp(5, 4)(3 + 2 * 5 + 4 * 125)
    assert x.to_ring(Zp(5, 2)).r == 13
    assert x.to_ring(Zp(5, 2)).to_ring(Zp(5, 4)).r == 13
    assert x.to_ring(x.ring) is x


# --- interned rings --------------------------------------------------------


def test_rings_are_interned():
    assert ZpT(7, 5, 9) is ZpT(7, 5, 9)
    assert Zp(7, 5) is Zp(7, 5) is ZpT(7, 5, 9).base
    assert ZpT(7, 5, 9) is not ZpT(7, 5, 10)
    assert Zp(7, 5)(3) == Zp(7, 5)(3 + 7**5)
    assert {Zp(7, 5)(3): 1}[Zp(7, 5)(3)] == 1


def test_primality_is_tested_once_per_ring(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(padics, "is_prime", counting)
    Zp(11, 977)  # a key no other test builds
    assert calls == [11]
    ZpT(11, 977, 5), Zp(11, 977)
    assert calls == [11]
    deformations.build_rho3(N=23, D=5)
    after_first = len(calls)
    for _ in range(3):
        deformations.build_rho3(N=23, D=5)
    assert len(calls) == after_first


def test_mixed_ring_errors_name_both_rings():
    a, b = Zp(5, 3), Zp(5, 4)
    S, S2 = ZpT(5, 3, 4), ZpT(5, 3, 5)
    cases = [
        (lambda: a(1) + b(1), "mixed rings: Zp(5, 3) vs Zp(5, 4)"),
        (lambda: a(1) * b(1), "mixed rings: Zp(5, 3) vs Zp(5, 4)"),
        (lambda: S.one + S2.one, "mixed rings: ZpT(5, 3, 4) vs ZpT(5, 3, 5)"),
        (lambda: S.one * S2.one, "mixed rings: ZpT(5, 3, 4) vs ZpT(5, 3, 5)"),
        (lambda: S.one - S2.one, "mixed rings: ZpT(5, 3, 4) vs ZpT(5, 3, 5)"),
        (lambda: S2.one - S.one, "mixed rings: ZpT(5, 3, 5) vs ZpT(5, 3, 4)"),
        (lambda: S.one - b(1), "constant from incompatible ring Zp(5, 4)"),
        (lambda: b(1) - S.one, "constant from incompatible ring Zp(5, 4)"),
        (lambda: S.constant(b(1)), "constant from incompatible ring Zp(5, 4)"),
        (lambda: S.one * b(1), "scalar from incompatible ring Zp(5, 4)"),
        (lambda: S([0, 1]).specialize(b(5)), "evaluation point from incompatible ring Zp(5, 4)"),
    ]
    for fn, text in cases:
        with pytest.raises(ValueError) as err:
            fn()
        assert str(err.value) == text
    # an int or a scalar of the base ring on either side of - is a constant
    f = S([1, 2, 3, 124, 7])
    assert (3 - S.one).coeffs == (2, 0, 0, 0, 0)
    assert (3 - f).coeffs == tuple((3 * (k == 0) - c) % 125 for k, c in enumerate(f.coeffs))
    assert (f - a(3)).coeffs == tuple((c - 3 * (k == 0)) % 125 for k, c in enumerate(f.coeffs))
    assert (a(3) - f) == -(f - 3)


def test_gcd_normal_form_reference_vectors():
    R = ZpT(5, 4, 6)
    T = R([0, 1])
    p = R.constant(5)
    one = R.one

    nf = gcd_normal_form([T * T * (one + T), T ** 3])
    assert (nf.mu, nf.lam, nf.certified) == (0, 2, True)

    nf = gcd_normal_form([p * T, p * T * T])
    assert (nf.mu, nf.lam, nf.certified) == (1, 1, True)

    nf = gcd_normal_form([p + T])
    assert (nf.mu, nf.lam, nf.certified) == (0, 0, False)


def test_gcd_normal_form_skips_a_zero_input():
    # the entries of [[T^2, T^3], [0, T^4]]: a minor that vanishes at
    # precision bounds neither mu nor lam
    R = ZpT(3, 8, 8)
    T = R([0, 1])
    nf = gcd_normal_form([T * T, T ** 3, R.zero, T ** 4])
    assert (nf.mu, nf.lam, nf.certified) == (0, 2, True)


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
            f = f * (R([0, 1]) ** rng.randrange(0, 3)) * (R.constant(7) ** rng.randrange(0, 2))
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
    assert cli._normal_form(nf) == {"mu": 0, "lambda": 0, "certified": True}
    assert not DivisorNormalForm(mu=1, lam=0, certified=True).is_unit_form()
    assert nf.same_divisor(DivisorNormalForm(mu=0, lam=0, certified=False))


def test_padic_json():
    f = ZpT(3, 2, 2)([1, 2, 3])
    assert cli._coeffs(f) == ["1", "2", "3"]
