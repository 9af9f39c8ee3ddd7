"""Riley polynomials, character points, and the trace discriminant.

The character-scheme enumeration is cross-checked against the
representation-existence scan in oracles.py, which shares no code with
the library.
"""

import pytest

from oracles import rep_scan
from twobridge.deformations import Representation
from twobridge.matrices import Mat2
from twobridge.padics import Zp
from twobridge.presentations import two_bridge
from twobridge.riley import (
    BivariatePoly,
    build_modp_rep,
    char_points,
    discriminant,
    matrix_C,
    matrix_D,
    relation_holds,
    riley_polynomial,
    riley_word_matrix,
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


@pytest.mark.parametrize("mn", sorted(PSI_GOLDENS))
def test_psi_goldens(mn):
    data = riley_polynomial(two_bridge(*mn))
    assert data.psi.terms == PSI_GOLDENS[mn]


def test_b31_intermediates():
    data = riley_polynomial(two_bridge(3, 1))
    # W = C D
    assert data.W.a.terms == {(2, 0): 1, (0, 1): 1}
    assert data.W.b.terms == {(-1, 0): 1}
    assert data.W.c.terms == {(-1, 1): 1}
    assert data.W.d.terms == {(-2, 0): 1}
    assert data.phi.terms == {(2, 0): 1, (-2, 0): 1, (0, 1): 1, (0, 0): -1}
    assert data.l == 0
    assert data.phi_xu.terms == {(2, 0): 1, (0, 1): 1, (0, 0): -3}
    assert data.sign == 1


def test_generator_matrix_traces():
    C, D = matrix_C(), matrix_D()
    t2 = BivariatePoly.first_var(2)
    tm2 = BivariatePoly.first_var(-2)
    u = BivariatePoly.second_var()
    assert (C * D).trace() == t2 + tm2 + u
    assert C.det() == 1
    assert D.det() == 1


@pytest.mark.parametrize("mn", [(3, 1), (5, 3), (7, 3), (9, 5), (3, -1)])
def test_word_matrix_det_one(mn):
    W = riley_word_matrix(two_bridge(*mn))
    assert W.det() == BivariatePoly.constant(1)


@pytest.mark.parametrize("mn", [(3, 1), (5, 3), (7, 3), (9, 5)])
def test_symmetrization_reconstructs_phi(mn):
    data = riley_polynomial(two_bridge(*mn))
    x_in_t = BivariatePoly.first_var(1) + BivariatePoly.first_var(-1)
    rebuilt = BivariatePoly()
    for (i, j), c in data.phi_xu.terms.items():
        assert i >= 0
        rebuilt = rebuilt + BivariatePoly({(0, j): c}) * x_in_t**i
    assert rebuilt == data.phi.shift_first(data.l)


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


@pytest.mark.parametrize("mnp", EXAMPLE_COMBOS + [(3, 1, 7), (5, 3, 5), (7, 3, 5)])
def test_char_points_agree_with_rep_scan(mnp):
    m, n, p = mnp
    got = {
        (q.x, q.y): (q.on_abelian_line, q.absolutely_irreducible)
        for q in char_points(two_bridge(m, n), p)
    }
    assert got == rep_scan(m, n, p)


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


def test_character_point_json():
    q = char_points(two_bridge(3, 1), 3)[0]
    js = q.to_json()
    assert set(js) == {"x", "y", "on_abelian_line", "absolutely_irreducible"}
