"""Laurent polynomials over Z/p^N: arithmetic, exact division,
unit-equivalence, residue-field gcd."""

import random

import pytest

from twobridge import cli
from twobridge.laurent import LaurentPoly, _poly_divmod, divide_exact, eq_up_to_unit, laurent_gcd
from twobridge.padics import Indeterminate, Zp

R = Zp(11, 4)


def _poly(d):
    return LaurentPoly(R, d)


def _random_poly(rng, ring, max_terms=5, lo=-4, hi=5, unit_lead=False):
    d = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        d[rng.randrange(lo, hi)] = rng.randrange(1, ring.modulus)
    f = LaurentPoly(ring, d)
    if unit_lead and not f.is_zero and not f.coefficient(f.max_exp()).is_unit:
        d[f.max_exp()] = rng.randrange(1, ring.p)
        f = LaurentPoly(ring, d)
    return f


def test_normalization_drops_zeros():
    f = _poly({0: R.modulus, 2: 3, 5: 0})
    assert f.coeffs == {2: 3}
    assert _poly({}).is_zero
    assert LaurentPoly.zero(R).min_exp() is None


def test_arithmetic_basics():
    f = _poly({-1: 2, 0: 1})
    g = _poly({0: 3, 1: 5})
    assert (f + g).coeffs == {-1: 2, 0: 4, 1: 5}
    assert (f - f).is_zero
    assert (f * g).coeffs == {-1: 6, 0: 13, 1: 5}
    assert (f * 0).is_zero
    assert f * R(2) == f * 2
    assert (f * f).coeffs == {-2: 4, -1: 4, 0: 1}


def test_shift_and_exponents():
    f = _poly({-2: 1, 3: 4})
    assert (f.min_exp(), f.max_exp()) == (-2, 3)
    g = f.shift(2)
    assert g.coeffs == {0: 1, 5: 4}
    assert f.coefficient(3).r == 4
    assert f.coefficient(7).is_zero


def test_evaluate():
    f = _poly({0: 1, 2: 1})  # 1 + t^2
    assert f.evaluate(1).r == 2
    assert f.evaluate(R(3)).r == 10
    g = _poly({-2: 1, -1: 4, 0: 1})
    # t^-2 + 4 t^-1 + 1 at t=1 is 6
    assert g.evaluate(1).r == 6
    with pytest.raises(ValueError):
        g.evaluate(11)  # negative exponents need a unit point


def test_divide_exact_roundtrip_fuzz():
    rng = random.Random(23)
    done = 0
    while done < 200:
        den = _random_poly(rng, R, unit_lead=True)
        if den.is_zero:
            continue
        q = _random_poly(rng, R)
        num = den * q
        got = divide_exact(num, den)
        assert got is not None and got == q
        done += 1


def test_divide_exact_detects_remainder():
    num = _poly({0: 1, 1: 1})
    den = _poly({0: 2, 2: 1})
    assert divide_exact(num, den) is None
    assert divide_exact(LaurentPoly.zero(R), den) == LaurentPoly.zero(R)
    with pytest.raises(ZeroDivisionError):
        divide_exact(num, LaurentPoly.zero(R))
    with pytest.raises(Indeterminate):
        divide_exact(num, _poly({0: 1, 1: 11}))  # non-unit lead


def test_poly_divmod_reconstructs_the_numerator():
    # q * d + r = n over Z/11^4 with deg r < deg d, on the fuzz inputs
    # above shifted to polynomials, plus the trefoil quotient over F_3
    # (see test_homology) and the remainder case above
    rng = random.Random(23)
    cases = [
        (LaurentPoly(Zp(3, 1), {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}), LaurentPoly(Zp(3, 1), {0: 1, 1: 1, 2: 1})),
        (_poly({0: 1, 1: 1}), _poly({0: 2, 2: 1})),
    ]
    while len(cases) < 200:
        num, den = _random_poly(rng, R, lo=0, hi=9), _random_poly(rng, R, lo=0, unit_lead=True)
        cases.append((num, den))
    for num, den in cases:
        ring = num.ring
        q, r = _poly_divmod(num.coeffs, den.coeffs, ring.modulus)
        assert all(0 < c < ring.modulus for c in list(q.values()) + list(r.values()))
        assert not r or max(r) < den.max_exp()
        assert LaurentPoly(ring, q) * den + LaurentPoly(ring, r) == num
    q, r = _poly_divmod(cases[0][0].coeffs, cases[0][1].coeffs, 3)
    assert (q, r) == ({0: 1, 2: 1}, {})


def test_eq_up_to_unit_basics():
    f = _poly({0: 1, 2: 1})
    assert eq_up_to_unit(f, f.shift(-3))
    assert eq_up_to_unit(f, f * 7)
    assert eq_up_to_unit(f, (f * 7).shift(4))
    assert not eq_up_to_unit(f, f * 11)  # 11 is not a unit here
    assert not eq_up_to_unit(f, _poly({0: 1, 1: 1}))
    assert eq_up_to_unit(LaurentPoly.zero(R), LaurentPoly.zero(R))
    assert not eq_up_to_unit(f, LaurentPoly.zero(R))


def test_eq_up_to_unit_fuzz():
    rng = random.Random(7)
    done = 0
    while done < 200:
        f = _random_poly(rng, R)
        if f.is_zero or not any(f.coefficient(e).is_unit for e in f.coeffs):
            continue
        c = rng.randrange(1, R.modulus)
        if c % R.p == 0:
            c += 1
        k = rng.randrange(-5, 6)
        assert eq_up_to_unit(f, f.shift(k) * c)
        # scaling by p is never a unit move when f has a unit coefficient
        assert not eq_up_to_unit(f, f * R.p)
        done += 1


def test_laurent_gcd_basics():
    F = Zp(5, 1)
    t = lambda d: LaurentPoly(F, d)
    # gcd((t-1)(t-2), (t-1)(t-3)) = t-1, normalized to min exponent 0
    f = t({0: 2, 1: -3, 2: 1})
    g = t({0: 3, 1: -4, 2: 1})
    got = laurent_gcd([f, g])
    assert got == t({0: -1, 1: 1})
    # coprime inputs give 1
    assert laurent_gcd([t({0: 1, 1: 1}), t({0: 2, 1: 1})]) == t({0: 1})
    # shifts are invisible
    assert laurent_gcd([f.shift(-4), g.shift(9)]) == got
    # zero inputs are ignored; f is already monic with min exponent 0
    assert laurent_gcd([t({}), f]) == f


def test_laurent_gcd_single_and_zero():
    F = Zp(5, 1)
    f = LaurentPoly(F, {1: 2, 2: 4})
    got = laurent_gcd([f])
    # normalized: monic, min exponent 0
    assert got == LaurentPoly(F, {0: 3, 1: 1})
    assert laurent_gcd([LaurentPoly.zero(F)]) == LaurentPoly.zero(F)


def test_laurent_gcd_requires_residue_field():
    with pytest.raises(NotImplementedError):
        laurent_gcd([_poly({0: 1})])


def test_to_json_sorted():
    f = _poly({2: 3, -1: 5})
    assert cli._laurent(f) == {"-1": "5", "2": "3"}
