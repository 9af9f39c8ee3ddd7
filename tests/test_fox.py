"""Fox calculus on the free group ring."""

import math

from hypothesis import given, settings, strategies as st

from twobridge.groupring import (
    GroupRingElement,
    augmentation,
    fox_derivative,
    fundamental_identity_defect,
)
from twobridge.presentations import two_bridge
from twobridge.words import FreeWord, gen, parse_word


def words(max_gen=2, max_len=10):
    return st.lists(
        st.tuples(st.integers(1, max_gen), st.sampled_from((1, -1))), max_size=max_len
    ).map(lambda ls: FreeWord(tuple(ls)))


def grelt(word, coeff=1):
    return GroupRingElement.from_word(word) * coeff


def test_single_letters():
    assert fox_derivative(gen(1), 1) == GroupRingElement.one()
    assert fox_derivative(gen(1), 2) == GroupRingElement.zero()
    # d(g^-1) = -g^-1
    assert fox_derivative(gen(1, -1), 1) == -grelt(gen(1, -1))


def test_trefoil_relator_derivatives():
    pres = two_bridge(3, 1)
    d1 = fox_derivative(pres.relator, 1)
    d2 = fox_derivative(pres.relator, 2)
    e = GroupRingElement.one()
    assert d1 == e + grelt(parse_word("g1 g2")) - grelt(parse_word("g1 g2 g1 g2^-1 g1^-1"))
    assert d2 == (
        grelt(gen(1))
        - grelt(parse_word("g1 g2 g1 g2^-1"))
        - grelt(pres.relator)
    )
    # the presentation computes the pair once and keeps it
    assert pres.fox == (d1, d2)
    assert pres.fox is pres.fox


def test_presentation_fox_equals_relator_derivatives():
    # pres.fox is built from dw/dg_i by the product rule; as group-ring
    # elements it must equal the relator's derivatives, for every B(m, n)
    count = 0
    for m in range(3, 32, 2):
        for n in range(2 - m, m, 2):
            if math.gcd(m, n) != 1:
                continue
            pres = two_bridge(m, n)
            assert pres.fox_w == (fox_derivative(pres.w, 1), fox_derivative(pres.w, 2))
            assert pres.fox == (fox_derivative(pres.relator, 1), fox_derivative(pres.relator, 2))
            count += 1
    assert count == 212


def test_product_rule():
    u = parse_word("g1 g2")
    v = parse_word("g2^-1 g1")
    for i in (1, 2):
        lhs = fox_derivative(u * v, i)
        rhs = fox_derivative(u, i) + grelt(u) * fox_derivative(v, i)
        assert lhs == rhs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words(), words())
def test_product_rule_fuzz(u, v):
    for i in (1, 2):
        assert fox_derivative(u * v, i) == fox_derivative(u, i) + grelt(u) * fox_derivative(v, i)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words())
def test_fundamental_identity(w):
    # sum_i d(w)/dg_i (g_i - e) = w - e
    assert fundamental_identity_defect(w, 2).is_zero


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words())
def test_inverse_rule(w):
    # d(w^-1) = -w^-1 d(w), a consequence of the product rule on w w^-1 = e
    winv = grelt(w.inverse())
    for i in (1, 2):
        assert fox_derivative(w.inverse(), i) == -(winv * fox_derivative(w, i))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words())
def test_augmentation_of_derivative(w):
    # augmenting d(w)/dg_i counts the signed occurrences of g_i
    ab = w.abelianize(2)
    for i in (1, 2):
        assert augmentation(fox_derivative(w, i)) == ab[i - 1]


def test_group_ring_arithmetic():
    e = GroupRingElement.one()
    a = grelt(gen(1))
    assert (a - a).is_zero
    assert a * e == a
    assert e * a == a
    assert (a + a) == a * 2
    # convolution: (e + g1)(e - g1) = e - g1^2
    lhs = (e + a) * (e - a)
    assert lhs == e - grelt(gen(1) * gen(1))
