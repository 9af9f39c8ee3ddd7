"""Free words: reduction, parsing, inversion, exponent sums."""

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
    assert e.letters == ()
    assert len(e) == 0
    assert str(e) == "e"


def test_cancellation():
    w = gen(1) * gen(1, -1)
    assert w == FreeWord()
    w = gen(1) * gen(2) * gen(2, -1) * gen(1, -1)
    assert w == FreeWord()


def test_nested_cancellation():
    w = FreeWord(((1, 1), (2, 1), (2, -1), (1, -1), (3, 1)))
    assert w == gen(3)


def test_str_and_parse_roundtrip():
    w = gen(1) * gen(2, -1) * gen(1) * gen(1)
    assert str(w) == "g1 g2^-1 g1^2"
    assert parse_word(str(w)) == w


def test_parse_identity_forms():
    assert parse_word("e") == FreeWord()
    assert parse_word("") == FreeWord()
    assert parse_word("1") == FreeWord()


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


def test_abelianize_and_exponent_sum():
    # in a knot group every g_i abelianizes to the one generator t, so
    # the abelianization of a word is its exponent sum
    w = gen(1) * gen(2, -1) * gen(1)
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
    assert w * w.inverse() == FreeWord()
    assert w.inverse() * w == FreeWord()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words())
def test_reduction_is_canonical(w):
    # rebuilding from the reduced letters must be a fixed point
    assert FreeWord(tuple(w)) == w


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words(), words())
def test_abelianize_additive(u, v):
    assert (u * v).exponent_sum() == u.exponent_sum() + v.exponent_sum()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words())
def test_prefix_and_suffix_split_the_word(w):
    for k in range(len(w) + 1):
        assert w.prefix(k) * w.suffix(len(w) - k) == w
        assert w.suffix(k).letters == w.letters[len(w) - k :]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words(max_len=24), st.data())
def test_prefix_texts_match_str_of_each_prefix(w, data):
    # every prefix, and a rising subset that skips some, as cmd_fox asks
    lengths = sorted(data.draw(st.sets(st.integers(0, len(w)))))
    for ks in (range(len(w) + 1), lengths):
        assert list(w.prefix_texts(ks)) == [str(w.prefix(k)) for k in ks]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(letters(), max_size=24))
def test_reduce_keeps_the_given_letter_tuples(ls):
    # letters that survive reduction are the caller's own tuples, not copies;
    # a list letter is rebuilt as a tuple
    w = FreeWord(ls)
    assert all(any(x is y for y in ls) for x in w.letters)
    assert FreeWord([list(x) for x in ls]).letters == w.letters
    assert all(type(x) is tuple for x in FreeWord([list(x) for x in ls]).letters)
