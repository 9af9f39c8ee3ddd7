"""Riley polynomials, character points, and the trace discriminant.

The character-scheme enumeration is cross-checked against the
representation-existence scan in oracles.py, which shares no code with
the library, and against a point-by-point evaluation of Psi at larger
primes. The F_p root finder, Horner substitution and the monomial
product are checked against brute force and the old formulas, and the
packed coordinate changes phi -> phi_xu -> psi against the dict
recursion in V_k and the substitution by powers.
"""

import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    bivariate_product,
    char_points_by_x,
    chebyshev_by_recursion,
    psi_scan,
    rep_scan,
    riley_rows,
    substitute_by_powers,
)
from twobridge import cli, riley
from twobridge.deformations import Representation
from twobridge.laurent import _poly_divmod
from twobridge.matrices import Mat2, word_matrix
from twobridge.padics import Zp
from twobridge.presentations import two_bridge
from twobridge.riley import (
    BivariatePoly,
    _chebyshev,
    _first_row,
    _residue_power,
    _roots_modp,
    _square_roots,
    _substitute_u,
    _symmetrize,
    _unpack,
    build_modp_rep,
    char_points,
    discriminant,
    relation_holds,
    riley_polynomial,
)

PSI_GOLDENS = {
    (3, 1): {(0, 1): 1, (0, 0): -1},
    (5, 3): {(0, 2): 1, (0, 1): -1, (2, 1): -1, (2, 0): 2, (0, 0): -1},
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

EXAMPLE_COMBOS = [(3, 1, 3), (5, 3, 7), (7, 3, 11), (7, 3, 19)]


def _odd_primes(below):
    return [p for p in range(3, below, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]


# every B(m, n) with m <= 11 at every odd prime p < 40: the rep_scan
# oracle costs about p^2 * m, and this bound keeps the sweep near 8 s
SCAN_COMBOS = [
    (m, n, p)
    for m in range(3, 12, 2)
    for n in range(2 - m, m, 2)
    if math.gcd(m, n) == 1
    for p in _odd_primes(40)
]
REP_SCAN_COMBOS = EXAMPLE_COMBOS + [(3, 1, 7), (5, 3, 5), (7, 3, 5)]
REP_SCAN_COMBOS += [c for c in SCAN_COMBOS if c not in REP_SCAN_COMBOS]

# the knots whose character points the benchmark's riley workload scans,
# and the primes one and two steps either side of its centre for each
CHAR_KNOTS = ((5, 3), (7, 3), (9, 5), (11, 5))
CHAR_PRIMES = ((151, 157, 163, 167), (197, 199, 211, 223), (233, 239, 241, 251), (271, 277, 281, 283))


@pytest.mark.parametrize("mn", sorted(PSI_GOLDENS))
def test_psi_goldens(mn):
    data = riley_polynomial(two_bridge(*mn))
    assert data.psi.terms == PSI_GOLDENS[mn]


def _row_and_phi(pres):
    """W_11 (even in t), W_12 (odd) and phi = W_11 + (1/t - t) W_12
    (formed packed, where b/t costs no shift), each decoded, and the
    slot width."""
    a, b, S = _first_row(pres)
    L = len(pres.w)
    return [_unpack(a, L, S), _unpack(b, L, S, 1), _unpack(a + b - (b << S), L, S)], S


def test_b31_intermediates():
    pres = two_bridge(3, 1)
    data = riley_polynomial(pres)
    # W = C D, first row
    assert _row_and_phi(pres)[0][:2] == [{(2, 0): 1, (0, 1): 1}, {(-1, 0): 1}]
    assert data.phi.terms == {(2, 0): 1, (-2, 0): 1, (0, 1): 1, (0, 0): -1}
    assert data.l == 0
    assert data.phi_xu.terms == {(2, 0): 1, (0, 1): 1, (0, 0): -3}
    assert data.sign == 1


def test_generator_matrix_traces():
    t, tinv = BivariatePoly.first_var(1), BivariatePoly.first_var(-1)
    u, zero, one = BivariatePoly.second_var(), BivariatePoly(), BivariatePoly.constant(1)
    C, D = Mat2(t, one, zero, tinv), Mat2(t, zero, u, tinv)
    assert (C * D).trace() == BivariatePoly.first_var(2) + BivariatePoly.first_var(-2) + u
    assert C.det() == 1
    assert D.det() == 1
    # the packed first row of W is that of the generic product of C and D along w
    for m in range(3, 16, 2):
        for n in range(2 - m, m, 2):
            if math.gcd(m, n) == 1:
                pres = two_bridge(m, n)
                W = word_matrix({1: C, 2: D}, pres.w, 1, 0)
                assert _row_and_phi(pres)[0][:2] == [W.a.terms, W.b.terms], (m, n)


def _coprime_ns(m):
    return [n for n in range(2 - m, m, 2) if math.gcd(m, n) == 1]


# every B(m, n) with m <= 51, and both sides of each step of the slot
# width (64 -> 128 bits at m = 91, 128 -> 192 at m = 183) at n = 1 and
# at the first n below -m/3
def _step_ns(m):
    return [1, [n for n in _coprime_ns(m) if n < -m // 3][-1]]


PACKED_KNOTS = [(m, _coprime_ns(m)) for m in range(3, 52, 2)]
PACKED_KNOTS += [(m, _step_ns(m)) for m in (89, 91, 181, 183)]


def _slot(m):
    return 64 if m < 91 else 128 if m < 183 else 192 if m < 275 else 256


@pytest.mark.parametrize("m, ns", PACKED_KNOTS, ids=[str(m) for m, _ in PACKED_KNOTS])
def test_packed_rows_match_the_dict_update(m, ns):
    for n in ns:
        (*got, phi), S = _row_and_phi(two_bridge(m, n))
        oracle = riley_rows(m, n)[:2]
        assert got == oracle, (m, n)
        # the packing in t^2 rests on this: W_11 is even in t and W_12 odd
        assert [{i % 2 for i, _ in e} for e in oracle] == [{0}, {1}], (m, n)
        want = dict(oracle[0])
        for shift, k in ((-1, 1), (1, -1)):
            for (i, j), c in oracle[1].items():
                want[(i + shift, j)] = want.get((i + shift, j), 0) + k * c
        assert phi == {key: c for key, c in want.items() if c}, (m, n)
        # each slot holds its largest coefficient with a sign bit to spare
        top = max(abs(c) for e in got + [phi] for c in e.values())
        assert S > top.bit_length() + 1, (m, n)
        assert S == _slot(m)


# both sides of the 192 -> 256 bit step at m = 275, at n = 1 and at the
# first n below -m/3, on the packed row alone: the dict oracle takes
# seconds per knot here
SLOT_256_KNOTS = [(m, n) for m in (273, 275) for n in _step_ns(m)]


@pytest.mark.parametrize("m, n", SLOT_256_KNOTS)
def test_packed_slot_width_at_256_bits(m, n):
    entries, S = _row_and_phi(two_bridge(m, n))
    top = max(abs(c) for e in entries for c in e.values())
    assert S > top.bit_length() + 1, (m, n)
    assert S == _slot(m)


# u -> y - x^2 + 2, as {(i, j): c} for c * x^i * y^j
U_IN_XY = {(0, 1): 1, (2, 0): -1, (0, 0): 2}


def _assert_coordinate_changes_match(terms, sign, l=0):
    """_symmetrize on t^-l times the symmetric terms, and _substitute_u
    with the given sign on its result, against the dict oracles, with
    each slot wider than the largest coefficient plus a sign bit; returns
    the two slot widths."""
    sym = BivariatePoly(terms)
    got_l, phi_xu = _symmetrize(sym.shift_first(-l))
    xu_terms, S_xu = _chebyshev(sym)
    assert got_l == (l if sym.terms else 0)  # every l symmetrizes 0, and 0 is taken
    assert phi_xu.terms == xu_terms == chebyshev_by_recursion(sym.terms)
    psi_terms, S_psi = _substitute_u(phi_xu, sign)
    assert psi_terms == {k: sign * c for k, c in substitute_by_powers(phi_xu.terms, U_IN_XY).items()}
    for got, S in ((xu_terms, S_xu), (psi_terms, S_psi)):
        assert S > max((abs(c) for c in got.values()), default=0).bit_length() + 1
    return S_xu, S_psi


# both sides of each step of the slot widths of phi_xu and psi, as
# (m, n): (phi_xu slot, psi slot); the first n below -m/3 steps later
COORDINATE_STEPS = {
    (45, 1): (64, 64),
    (47, 1): (128, 128),
    (47, -17): (64, 64),
    (49, -19): (64, 128),  # psi's slot steps alone
    (55, -21): (64, 128),
    (57, -23): (128, 128),  # phi_xu's slot steps alone
    (91, 1): (128, 128),
    (93, 1): (192, 192),
    (137, 1): (192, 192),
    (139, 1): (256, 256),
}
COORDINATE_KNOTS = [(m, _coprime_ns(m)) for m in range(3, 52, 2)]
COORDINATE_KNOTS += [(m, [n]) for m, n in COORDINATE_STEPS if m > 51]


@pytest.mark.parametrize("m, ns", COORDINATE_KNOTS, ids=[str(m) for m, _ in COORDINATE_KNOTS])
def test_packed_coordinate_changes_match_the_dict_oracles(m, ns):
    for n in ns:
        data = riley_polynomial(two_bridge(m, n))
        slots = _assert_coordinate_changes_match(data.phi.shift_first(data.l).terms, data.sign, data.l)
        assert BivariatePoly(substitute_by_powers(data.phi_xu.terms, U_IN_XY)) * data.sign == data.psi
        assert slots == COORDINATE_STEPS.get((m, n), slots), (m, n)


@st.composite
def _symmetric_and_signed(draw):
    """(terms, sign, l): a polynomial in t^(+-1) and u, symmetric under
    t <-> 1/t, with coefficients of up to about e bits (e drawn in
    0-200, so that the slots of both stages run from 64 to 256 bits), a
    sign and a shift."""
    e = draw(st.integers(0, 200))
    # near +-2^e as often as anywhere in between, which alone draws small values
    coeffs = st.integers(-(2**e), 2**e) | st.integers(2**e - 2**16, 2**e) | st.integers(-(2**e), 2**16 - 2**e)
    columns = draw(st.dictionaries(st.tuples(st.integers(0, 8), st.integers(0, 5)), coeffs, max_size=20))
    terms = dict(columns)
    terms.update({(-k, j): c for (k, j), c in columns.items()})
    return terms, draw(st.sampled_from([1, -1])), draw(st.integers(-4, 4))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_symmetric_and_signed())
@example(({}, 1, 0))
@example(({(0, 0): -1}, -1, 1))
@example(({(8, 5): 2**200, (-8, 5): 2**200, (0, 0): -(2**200)}, 1, 0))
@example(({(k, j): (-1) ** ((k + j) % 2) * 2**200 for k in range(-8, 9) for j in range(6)}, -1, -3))
# odd in t only, so phi_xu odd in x: both coordinate changes run their odd part alone
@example(({(k, j): (k * k + j) * (-1) ** j for k in (-7, -3, -1, 1, 3, 7) for j in (0, 2, 5)}, 1, 2))
@example(({(1, 0): -(2**200), (-1, 0): -(2**200)}, -1, 0))
# both parities, with the top coefficient in an odd column
@example(({(0, 3): 5, (2, 0): -4, (-2, 0): -4, (5, 1): 2**150, (-5, 1): 2**150}, 1, -1))
def test_packed_coordinate_changes_match_on_random_polynomials(case):
    # signed coefficients of up to 200 bits: the borrow across slots and the
    # bias of the decoder at 64-bit to 256-bit slots
    terms, sign, l = case
    _assert_coordinate_changes_match(terms, sign, l)


@pytest.mark.parametrize("mn", [(3, 1), (5, 3), (7, 3), (9, 5), (3, -1), (31, -9), (47, -15)])
def test_symmetrization_reconstructs_phi(mn):
    data = riley_polynomial(two_bridge(*mn))
    x_in_t = BivariatePoly.first_var(1) + BivariatePoly.first_var(-1)
    rebuilt = BivariatePoly()
    for (i, j), c in data.phi_xu.terms.items():
        assert i >= 0
        rebuilt = rebuilt + BivariatePoly({(0, j): c}) * x_in_t**i
    assert rebuilt == data.phi.shift_first(data.l)


@pytest.mark.parametrize(
    "terms",
    [
        {(1, 0): 1, (0, 0): 1},  # t + 1: odd exponent span
        {(2, 0): 1, (0, 0): 2, (-2, 0): 3},  # t^2 + 2 + 3t^-2: unequal mirror coefficients
    ],
)
def test_symmetrize_rejects_unsymmetrizable_phi(terms):
    with pytest.raises(RuntimeError, match="no power of t symmetrizes phi"):
        _symmetrize(BivariatePoly(terms))


@pytest.mark.parametrize("mn", sorted(PSI_GOLDENS))
def test_psi_monic_in_y(mn):
    psi = riley_polynomial(two_bridge(*mn)).psi
    assert psi.coeff_of_second(psi.degree_second()) == BivariatePoly.constant(1)


def test_char_points_b31_p3():
    pts = {(q.x, q.y): q for q in char_points(two_bridge(3, 1), 3)}
    ai = {k for k, q in pts.items() if q.absolutely_irreducible}
    assert ai == {(1, 1), (2, 1)}
    # (0, 1) sits on both components: kept, but not absolutely irreducible
    assert (0, 1) in pts
    assert pts[(0, 1)].on_abelian_line
    assert not pts[(0, 1)].absolutely_irreducible


@pytest.mark.parametrize(
    "mnp,designated",
    [
        ((3, 1, 3), (2, 1)),
        ((5, 3, 7), (5, 5)),
        ((7, 3, 11), (5, 5)),
        ((7, 3, 19), (6, 6)),
    ],
)
def test_designated_points_absolutely_irreducible(mnp, designated):
    m, n, p = mnp
    pts = {(q.x, q.y): q for q in char_points(two_bridge(m, n), p)}
    assert designated in pts
    assert pts[designated].absolutely_irreducible


@pytest.mark.parametrize("mnp", REP_SCAN_COMBOS)
def test_char_points_agree_with_rep_scan(mnp):
    m, n, p = mnp
    got = {
        (q.x, q.y): (q.on_abelian_line, q.absolutely_irreducible)
        for q in char_points(two_bridge(m, n), p)
    }
    assert got == rep_scan(m, n, p)


@pytest.mark.parametrize("p", [3, 13, 101, 283, 397])
@pytest.mark.parametrize("mn", CHAR_KNOTS)
def test_char_points_agree_with_psi_scan(mn, p):
    _assert_char_points_match_psi_scan(two_bridge(*mn), p)


def _assert_char_points_match_psi_scan(pres, p):
    pts = char_points(pres, p)
    got = {(q.x, q.y): (q.on_abelian_line, q.absolutely_irreducible) for q in pts}
    assert got == psi_scan(pres.riley.psi.terms, p)
    assert [(q.x, q.y) for q in pts] == sorted(got)


def _nonresidues(p):
    return [a for a in range(1, p) if pow(a, (p - 1) // 2, p) == p - 1]


def _poly_mul_modp(a, b, p):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = (out.get(e1 + e2, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


@st.composite
def _structured_polys(draw):
    """(f, p): a nonzero f over F_p of degree 0-12 built from a leading
    coefficient, linear factors (repeats allowed), irreducible quadratics
    y^2 + b y + c (discriminant a non-residue) and one arbitrary factor."""
    p = draw(st.sampled_from([3, 5, 7, 11, 1009]))
    f = {0: draw(st.integers(1, p - 1))}
    for r in draw(st.lists(st.integers(0, p - 1), max_size=6)):
        f = _poly_mul_modp(f, {0: -r % p, 1: 1}, p)
    for _ in range(draw(st.integers(0, 2))):
        b = draw(st.integers(0, p - 1))
        nr = draw(st.sampled_from(_nonresidues(p)))
        c = (b * b - nr) * pow(4, -1, p) % p
        f = _poly_mul_modp(f, {0: c, 1: b, 2: 1}, p)
    other = draw(st.lists(st.integers(0, p - 1), max_size=3))
    if any(other):
        f = _poly_mul_modp(f, dict(enumerate(other)), p)
    return f, p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_structured_polys())
@example(({0: 1}, 3))
@example(({1: 1}, 5))
@example(({1: 4, 3: 1}, 5))  # y^3 - y: roots 0, 1, 4
@example(({1: 6, 7: 1}, 7))  # y^7 - y: every element of F_7
@example(({1: 10, 11: 3, 12: 2}, 11))  # degree > p, leading coefficient 2
@example(({0: 1, 2: 1}, 7))  # y^2 + 1, irreducible mod 7
@example(({0: 1, 1: 1, 2: 2, 3: 1, 4: 1}, 3))  # (y^2 + 1)(y - 1)^2
def test_roots_modp_matches_brute_force(fp):
    f, p = fp
    brute = [y for y in range(p) if sum(c * pow(y, e, p) for e, c in f.items()) % p == 0]
    assert _roots_modp(f, p, _square_roots(p)) == brute


def _product_modp(factors, p, lead=1):
    f = {0: lead % p}
    for g in factors:
        f = _poly_mul_modp(f, g, p)
    return f


def _lin(r):
    return {0: -r, 1: 1}


# each case drives one branch of _roots_modp: (p, lead, factors, roots)
ROOT_CASES = {
    # g+ = (y-1)(y-4)(y-9)(y-16): degree 4, split by (y + a)^50 - 1
    "four-square-roots": (101, 1, [_lin(1), _lin(4), _lin(9), _lin(16), {0: -2, 2: 1}], [1, 4, 9, 16]),
    # g- = (y-2)(y-3): the quadratic formula; g+ = y - 25
    "two-nonsquare-roots": (101, 1, [_lin(2), _lin(3), _lin(25), {0: -7, 2: 1}], [2, 3, 25]),
    # y^3 divided out, then (y-1)^2 of degree 2: a zero discriminant
    "y-cubed-repeated-root": (101, 1, [{1: 1}] * 3 + [_lin(1)] * 2, [0, 1]),
    # y^3 divided out, then the half-power on a repeated root
    "y-cubed-repeated-root-and-more": (101, 1, [{1: 1}] * 3 + [_lin(1)] * 2 + [_lin(2), _lin(9)], [0, 1, 2, 9]),
    # leading coefficient 3, degree 8 > p: every element of F_5
    "non-monic-degree-above-p": (
        5, 3, [{1: 1}, _lin(1), _lin(1), _lin(2), _lin(3), _lin(4), {0: 2, 2: 1}], [0, 1, 2, 3, 4]
    ),
    # leading coefficient 2, degree 8 > p, two irreducible quadratics
    "non-monic-two-irreducible-quadratics": (5, 2, [_lin(1)] * 3 + [_lin(4), {0: 2, 2: 1}, {0: 3, 2: 1}], [1, 4]),
}


@pytest.mark.parametrize("case", sorted(ROOT_CASES))
def test_roots_modp_on_constructed_polynomials(case):
    p, lead, factors, roots = ROOT_CASES[case]
    f = _product_modp(factors, p, lead)
    assert max(f) == sum(max(g) for g in factors)
    brute = [y for y in range(p) if sum(c * pow(y, e, p) for e, c in f.items()) % p == 0]
    assert _roots_modp(f, p, _square_roots(p)) == brute == roots


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from([3, 5, 101, 277]),
    st.lists(st.integers(0, 10**6), min_size=2, max_size=8),
    st.integers(0, 10**6),
    st.integers(0, 60),
)
def test_residue_power_matches_divmod(p, low, a, k):
    # h monic of degree len(low) >= 2; (y + a)^k expanded, then reduced once
    h = {e: c % p for e, c in enumerate(low) if c % p}
    h[len(low)] = 1
    full = _product_modp([{0: a % p, 1: 1}] * k, p)
    assert _residue_power(a, k, h, p) == _poly_divmod(full, h, p)[1]


@pytest.mark.parametrize("p", [13, 101])
def test_char_points_b31_agree_with_psi_scan(p):
    # y-degree 15: root factors of degree >= 3 get split
    _assert_char_points_match_psi_scan(two_bridge(31, -9), p)


@pytest.mark.parametrize("p", [3, 7, 13])
def test_char_points_where_psi_vanishes_in_y(p):
    # Psi = x^2 (y + x^2) vanishes for every y at x = 0
    psi = BivariatePoly({(2, 1): 1, (4, 0): 1})
    pres = SimpleNamespace(riley=SimpleNamespace(psi=psi))
    got = {(q.x, q.y): (q.on_abelian_line, q.absolutely_irreducible) for q in char_points(pres, p)}
    assert got == psi_scan(psi.terms, p)
    assert sum(1 for x0, _ in got if x0 == 0) == p


@pytest.mark.parametrize("p", [3, 7, 13])
def test_char_points_where_psi_vanishes_in_x(p):
    # Psi = (y - 1)(x^2 - 3) vanishes for every x at y = 1
    psi = BivariatePoly({(2, 1): 1, (0, 1): -3, (2, 0): -1, (0, 0): 3})
    pres = SimpleNamespace(riley=SimpleNamespace(psi=psi))
    pts = char_points(pres, p)
    got = {(q.x, q.y): (q.on_abelian_line, q.absolutely_irreducible) for q in pts}
    assert got == psi_scan(psi.terms, p)
    assert [(q.x, q.y) for q in pts] == sorted(got)
    assert sum(1 for _, y0 in got if y0 == 1) == p


def test_char_points_rejects_an_odd_power_of_x():
    # Psi is even in x for every knot; an odd power is a defect, not bad input
    psi = BivariatePoly({(1, 1): 1, (2, 0): 1})
    pres = SimpleNamespace(m=5, n=3, riley=SimpleNamespace(psi=psi))
    with pytest.raises(RuntimeError, match=r"Psi of B\(5, 3\) has an odd power of x"):
        char_points(pres, 7)


def test_psi_is_even_in_x():
    # rho (x) eps, eps(g_i) = -1, has traces (-x, y): every B(m, n) with m <= 51
    knots = [(m, n) for m in range(3, 52, 2) for n in _coprime_ns(m)]
    assert len(knots) == 542
    for m, n in knots:
        assert all(i % 2 == 0 for i, _ in two_bridge(m, n).riley.psi.terms), (m, n)


def _assert_char_points_match_by_x(pres, p):
    got = [(q.x, q.y, q.on_abelian_line, q.absolutely_irreducible) for q in char_points(pres, p)]
    root = _square_roots(p)
    assert got == char_points_by_x(pres.riley.psi.terms, p, lambda f, q: _roots_modp(f, q, root)), p


@pytest.mark.parametrize("mn", [(m, n) for m in range(3, 16, 2) for n in _coprime_ns(m)], ids=str)
def test_char_points_match_by_x_oracle(mn):
    # the 48 knots with m <= 15 at the 14 odd primes below 50
    pres = two_bridge(*mn)
    for p in _odd_primes(50):
        _assert_char_points_match_by_x(pres, p)


@pytest.mark.parametrize("mn,primes", zip(CHAR_KNOTS, CHAR_PRIMES), ids=str)
def test_char_points_match_by_x_oracle_at_workload_primes(mn, primes):
    pres = two_bridge(*mn)
    for p in primes:
        _assert_char_points_match_by_x(pres, p)


def test_roots_modp_raises_when_no_shift_splits(monkeypatch):
    # with every (y + a)^((p-1)/2) read as 1, no a splits (y-1)(y-2)(y-3)
    monkeypatch.setattr(riley, "_residue_power", lambda a, k, h, p: {0: 1})
    f = _product_modp([_lin(1), _lin(2), _lin(3)], 7)
    with pytest.raises(RuntimeError, match="no a < 7 splits a root factor of degree 3"):
        _roots_modp(f, 7, _square_roots(7))


_coeffs = st.integers(-6, 6)
_bivariate = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(0, 5)), _coeffs, max_size=12)
_monomial = st.tuples(st.integers(-3, 3), st.integers(0, 3), st.integers(-6, 6).filter(bool))


def _clean(terms):
    return {k: c for k, c in terms.items() if c}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_bivariate, st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(0, 2)), _coeffs, max_size=4))
def test_substitute_second_matches_power_sums(terms, repl):
    got = BivariatePoly(terms).substitute_second(BivariatePoly(repl))
    assert got.terms == substitute_by_powers(_clean(terms), _clean(repl))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_bivariate, _monomial, _monomial, st.integers(-4, 4))
def test_mul_matches_schoolbook_with_monomials(terms, mono1, mono2, k):
    f = BivariatePoly(terms)
    m1 = {(mono1[0], mono1[1]): mono1[2]}
    m2 = {(mono2[0], mono2[1]): mono2[2]}
    f_terms = _clean(terms)
    assert (BivariatePoly(m1) * f).terms == bivariate_product(m1, f_terms)
    assert (f * BivariatePoly(m1)).terms == bivariate_product(f_terms, m1)
    assert (BivariatePoly(m1) * BivariatePoly(m2)).terms == bivariate_product(m1, m2)
    assert (f * f).terms == bivariate_product(f_terms, f_terms)
    assert (f * k).terms == (k * f).terms == bivariate_product(f_terms, {(0, 0): k})
    # the product is a new polynomial: its factors are left as they were
    assert f.terms == f_terms and BivariatePoly(m1).terms == m1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_bivariate, st.sampled_from([3, 5, 7, 11]), st.integers(-30, 30), st.integers(-30, 30))
def test_eval_modp_matches_the_value_times_a_power_of_a(terms, p, a, b):
    # with s lifting every first exponent to >= 0, a^s times the value is
    # a plain integer sum; a negative exponent at a = 0 mod p raises
    f = BivariatePoly(terms)
    s = max([0] + [-i for i, _ in f.terms])
    if s and a % p == 0:
        with pytest.raises(ValueError):
            f.eval_modp(a, b, p)
        return
    shifted = sum(c * a ** (i + s) * b**j for (i, j), c in f.terms.items())
    assert 0 <= f.eval_modp(a, b, p) < p
    assert (f.eval_modp(a, b, p) * a**s - shifted) % p == 0


@pytest.mark.parametrize("mnp", EXAMPLE_COMBOS)
def test_riley_consistency_at_rational_points(mnp):
    # every a.i. point whose eigenvalue parameter exists in F_p yields an
    # over-F_p pair that satisfies the group relation with matching traces
    m, n, p = mnp
    pres = two_bridge(m, n)
    ring = Zp(p, 1)
    realized = 0
    for q in char_points(pres, p):
        if not q.absolutely_irreducible:
            continue
        pair = build_modp_rep(pres, p, q.x, q.y)
        if pair is None:
            continue
        g1, g2 = pair
        assert g1.det() == 1 and g2.det() == 1
        assert relation_holds(pres, Representation(ring, {1: g1, 2: g2}))
        assert g1.trace() == q.x
        assert (g1 * g2).trace() == q.y
        realized += 1
    assert realized >= 1


def test_build_modp_rep_takes_the_small_root():
    # the eigenvalue a = (x0 + r) / 2 uses the root r of x0^2 - 4 that
    # lies in [0, (p-1)/2], at every absolutely irreducible point
    realized = 0
    for m, n in ((5, 3), (7, 3)):
        pres = two_bridge(m, n)
        for p in range(3, 100, 2):
            if any(p % d == 0 for d in range(3, p, 2)):
                continue
            for q in char_points(pres, p):
                pair = build_modp_rep(pres, p, q.x, q.y) if q.absolutely_irreducible else None
                if pair is None:
                    continue
                assert (2 * pair[0].a.r - q.x) % p <= (p - 1) // 2
                realized += 1
    assert realized >= 900


def test_discriminant_values():
    assert discriminant(2, 2, 2) == 0  # identity representation
    # abelian characters sit on y = x^2 - 2 and kill the discriminant
    for x0 in range(-5, 6):
        assert discriminant(x0, x0, x0 * x0 - 2) == 0
    # designated points: nonzero mod p certifies absolute irreducibility
    for (m, n, p), (x0, y0) in zip(EXAMPLE_COMBOS, [(2, 1), (5, 5), (5, 5), (6, 6)]):
        assert discriminant(x0, x0, y0) % p != 0


def test_discriminant_matches_factored_form():
    # disc(x, x, y) = (y - x^2 + 2)(y - 2) as integer polynomials
    x = BivariatePoly.first_var(1)
    y = BivariatePoly.second_var()
    lhs = discriminant(x, x, y)
    rhs = (y - x * x + 2) * (y - 2)
    assert lhs == rhs


def test_discriminant_on_residual_matrices():
    ring = Zp(3, 1)
    g1 = Mat2(ring(0), ring(2), ring(1), ring(2))
    g2 = Mat2(ring(2), ring(2), ring(1), ring(0))
    d = discriminant(g1.trace(), g2.trace(), (g1 * g2).trace())
    assert not d.is_zero


def test_char_points_parameter_guards():
    pres = two_bridge(3, 1)
    with pytest.raises(ValueError):
        char_points(pres, 2)
    with pytest.raises(ValueError):
        char_points(pres, 9)
    with pytest.raises(ValueError):
        char_points(pres, 10007)


def test_character_point_json(capsys):
    assert cli.main(["char-points", "--m", "3", "--n", "1", "--p", "3", "--json"]) == 0
    points = json.loads(capsys.readouterr().out)["points"]
    assert points == [q._asdict() for q in char_points(two_bridge(3, 1), 3)]
    assert set(points[0]) == {"x", "y", "on_abelian_line", "absolutely_irreducible"}
