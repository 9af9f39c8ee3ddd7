"""Free words: reduction, parsing, inversion, abelianization."""

import pytest
from hypothesis import given, settings, strategies as st

from twobridge.words import FreeWord, gen, parse_word


def letters(max_gen=3):
    return st.tuples(st.integers(1, max_gen), st.sampled_from((1, -1)))


def words(max_gen=3, max_len=12):
    return st.lists(letters(max_gen), max_size=max_len).map(
        lambda ls: FreeWord(tuple(ls))
    )


def test_identity():
    e = FreeWord()
    assert e.is_identity
    assert len(e) == 0
    assert str(e) == "e"


def test_cancellation():
    w = gen(1) * gen(1, -1)
    assert w.is_identity
    w = gen(1) * gen(2) * gen(2, -1) * gen(1, -1)
    assert w.is_identity


def test_nested_cancellation():
    w = FreeWord(((1, 1), (2, 1), (2, -1), (1, -1), (3, 1)))
    assert w == gen(3)


def test_str_and_parse_roundtrip():
    w = gen(1) * gen(2, -1) * gen(1) * gen(1)
    assert str(w) == "g1 g2^-1 g1^2"
    assert parse_word(str(w)) == w


def test_parse_identity_forms():
    assert parse_word("e").is_identity
    assert parse_word("").is_identity
    assert parse_word("1").is_identity


def test_parse_powers():
    assert parse_word("g1^3") == gen(1) * gen(1) * gen(1)
    assert parse_word("g2^-2") == gen(2, -1) * gen(2, -1)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("h1")
    with pytest.raises(ValueError):
        parse_word("g0")
    with pytest.raises(ValueError):
        parse_word("g1^0")


def test_pow():
    assert gen(1) ** 3 == gen(1) * gen(1) * gen(1)
    assert gen(1) ** -2 == gen(1, -1) * gen(1, -1)
    assert (gen(1) ** 0).is_identity


def test_abelianize_and_exponent_sum():
    w = gen(1) * gen(2, -1) * gen(1)
    assert w.abelianize(2) == (2, -1)
    assert w.exponent_sum() == 1


def test_runs_roundtrip():
    w = gen(1) * gen(1) * gen(2, -1) * gen(1)
    assert w.runs() == [[1, 2], [2, -1], [1, 1]]
    assert FreeWord.from_runs(w.runs()) == w


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words(), words())
def test_inverse_antihomomorphism(u, v):
    assert (u * v).inverse() == v.inverse() * u.inverse()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words())
def test_inverse_cancels(w):
    assert (w * w.inverse()).is_identity
    assert (w.inverse() * w).is_identity


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words())
def test_reduction_is_canonical(w):
    # rebuilding from the reduced letters must be a fixed point
    assert FreeWord(tuple(w)) == w


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words(), words())
def test_abelianize_additive(u, v):
    ab_u = u.abelianize(3)
    ab_v = v.abelianize(3)
    ab_uv = (u * v).abelianize(3)
    assert ab_uv == tuple(a + b for a, b in zip(ab_u, ab_v))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words())
def test_prefix_and_suffix_split_the_word(w):
    for k in range(len(w) + 1):
        assert w.prefix(k) * w.suffix(len(w) - k) == w
        assert w.suffix(k).letters == w.letters[len(w) - k :]
