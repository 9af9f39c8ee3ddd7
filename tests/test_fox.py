"""Fox calculus on the free group ring, elements as {word: coefficient} dicts."""

import math
from collections import Counter

from hypothesis import given, settings, strategies as st

from twobridge import groupring
from twobridge.groupring import fox_derivative, fundamental_identity_defect
from twobridge.presentations import two_bridge
from twobridge.words import FreeWord, gen, parse_word


def words(max_gen=2, max_len=10):
    return st.lists(
        st.tuples(st.integers(1, max_gen), st.sampled_from((1, -1))), max_size=max_len
    ).map(lambda ls: FreeWord(tuple(ls)))


def times(u, d, sign=1):
    """sign * u * d: left multiplication by a word permutes the words."""
    return {u * w: sign * c for w, c in d.items()}


def add(*ds):
    total = Counter()
    for d in ds:
        total.update(d)
    return {w: c for w, c in total.items() if c}


def test_single_letters():
    assert fox_derivative(gen(1), 1) == {FreeWord(): 1}
    assert fox_derivative(gen(1), 2) == {}
    # d(g^-1) = -g^-1
    assert fox_derivative(gen(1, -1), 1) == {gen(1, -1): -1}
    assert fundamental_identity_defect(FreeWord(), 2) == {}


def test_group_ring_elements_are_plain_dicts():
    pres = two_bridge(5, 3)
    for d in (*pres.fox, *pres.fox_w, fox_derivative(pres.w, 1), fundamental_identity_defect(pres.w, 2)):
        assert type(d) is dict and 0 not in d.values()
    assert not [v for v in vars(groupring).values() if isinstance(v, type) and v.__module__ == groupring.__name__]


def test_trefoil_relator_derivatives():
    pres = two_bridge(3, 1)
    d1 = fox_derivative(pres.relator, 1)
    d2 = fox_derivative(pres.relator, 2)
    assert d1 == {FreeWord(): 1, parse_word("g1 g2"): 1, parse_word("g1 g2 g1 g2^-1 g1^-1"): -1}
    assert d2 == {gen(1): 1, parse_word("g1 g2 g1 g2^-1"): -1, pres.relator: -1}
    # the presentation computes the pair once and keeps it
    assert pres.fox == (d1, d2)
    assert pres.fox is pres.fox


def test_presentation_fox_equals_relator_derivatives():
    # pres.fox is built from dw/dg_i by the product rule; as dicts it
    # must equal the relator's derivatives, for every B(m, n)
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
        rhs = add(fox_derivative(u, i), times(u, fox_derivative(v, i)))
        assert lhs == rhs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words(), words())
def test_product_rule_fuzz(u, v):
    for i in (1, 2):
        assert fox_derivative(u * v, i) == add(fox_derivative(u, i), times(u, fox_derivative(v, i)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words())
def test_fundamental_identity(w):
    # sum_i d(w)/dg_i (g_i - e) = w - e
    assert fundamental_identity_defect(w, 2) == {}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words())
def test_inverse_rule(w):
    # d(w^-1) = -w^-1 d(w), a consequence of the product rule on w w^-1 = e
    for i in (1, 2):
        assert fox_derivative(w.inverse(), i) == times(w.inverse(), fox_derivative(w, i), -1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words())
def test_augmentation_of_derivative(w):
    # augmenting d(w)/dg_i counts the signed occurrences of g_i
    for i in (1, 2):
        assert sum(fox_derivative(w, i).values()) == sum(s for g, s in w if g == i)



@settings(max_examples=200, deadline=None, derandomize=True)
@given(words(max_gen=3, max_len=16), st.integers(1, 3))
def test_derivative_terms_rise_in_length(w, i):
    # cmd_fox prints the terms in the dict's order, by rising length
    lengths = [len(u) for u in fox_derivative(w, i)]
    assert lengths == sorted(set(lengths))
