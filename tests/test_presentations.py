"""Schubert-form 2-bridge presentations."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from twobridge.presentations import epsilon_sequence, two_bridge
from twobridge.words import gen, parse_word


def test_epsilon_3_1():
    assert epsilon_sequence(3, 1) == (1, 1)


def test_epsilon_5_3():
    assert epsilon_sequence(5, 3) == (1, -1, -1, 1)


def test_epsilon_7_3():
    assert epsilon_sequence(7, 3) == (1, 1, -1, -1, 1, 1)


def test_trefoil_words():
    pres = two_bridge(3, 1)
    assert pres.w == gen(1) * gen(2)
    assert pres.relator == parse_word("g1 g2 g1 g2^-1 g1^-1 g2^-1")


def test_figure_eight_relator():
    pres = two_bridge(5, 3)
    assert pres.relator == parse_word("g1 g2^-1 g1^-1 g2 g1 g2^-1 g1 g2 g1^-1 g2^-1")


def test_5_2_relator():
    pres = two_bridge(7, 3)
    assert pres.w == parse_word("g1 g2 g1^-1 g2^-1 g1 g2")
    assert pres.relator == parse_word(
        "g1 g2 g1^-1 g2^-1 g1 g2 g1 g2^-1 g1^-1 g2 g1 g2^-1 g1^-1 g2^-1"
    )


def test_negative_n():
    # B(3, -1): epsilon_i = (-1)^floor(-i/3) = -1 for i = 1, 2
    assert epsilon_sequence(3, -1) == (-1, -1)
    pres = two_bridge(3, -1)
    assert pres.w == gen(1, -1) * gen(2, -1)


@pytest.mark.parametrize(
    "m,n",
    [(4, 1), (3, 2), (3, 3), (9, 3), (3, 5), (3, -3), (0, 1), (-3, 1)],
)
def test_invalid_parameters(m, n):
    with pytest.raises(ValueError):
        epsilon_sequence(m, n)


def valid_mn():
    def build(draw):
        m = draw(st.sampled_from([3, 5, 7, 9, 11, 13, 15]))
        candidates = [
            n
            for n in range(-m + 1, m)
            if n % 2 != 0 and math.gcd(m, n) == 1 and n != 0
        ]
        n = draw(st.sampled_from(candidates))
        return m, n

    return st.composite(build)()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(valid_mn())
def test_epsilon_palindrome(mn):
    # epsilon_i = epsilon_{m-i}: the sequence reads the same reversed
    m, n = mn
    eps = epsilon_sequence(m, n)
    assert len(eps) == m - 1
    assert eps == tuple(reversed(eps))
    # floor(n/m) is 0 for 0 < n < m and -1 for -m < n < 0
    assert eps[0] == (1 if n > 0 else -1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(valid_mn())
def test_relator_shape(mn):
    m, n = mn
    pres = two_bridge(m, n)
    # w has m-1 letters alternating g1, g2 with exponents epsilon_i
    assert len(pres.w) == m - 1
    assert [g for g, _ in pres.w.letters] == [1, 2] * ((m - 1) // 2)
    assert tuple(s for _, s in pres.w.letters) == epsilon_sequence(m, n)
    # relator = w g1 w^-1 g2^-1 with w of length m-1, total 2m letters when reduced fully
    assert pres.relator == pres.w * gen(1) * pres.w.inverse() * gen(2, -1)
    # exponent sums: w has equal signs on odd/even positions by construction
    assert pres.relator.abelianize(2) == (1, -1)
