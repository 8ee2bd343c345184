from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from guardcheck.terms import (
    BOT,
    UNIT,
    EncodingError,
    is_term,
    map_get,
    map_remove,
    map_set,
    pretty,
    sort_terms,
    tbool,
    tcon,
    term_from_json,
    term_key,
    term_to_json,
    tfrac,
    tint,
    tmap,
    tsym,
    ttuple,
)


def scalar_terms():
    return st.one_of(
        st.just(UNIT),
        st.just(BOT),
        st.booleans().map(tbool),
        st.integers(-50, 50).map(tint),
        st.tuples(st.integers(-20, 20), st.integers(1, 12)).map(lambda p: tfrac(*p)),
        st.sampled_from([tsym("a"), tsym("b"), tsym("x0")]),
    )


def terms():
    return st.recursive(
        scalar_terms(),
        lambda inner: st.one_of(
            st.lists(inner, max_size=3).map(lambda xs: ttuple(*xs)),
            st.lists(inner, max_size=2).map(lambda xs: tcon("ex", *xs)),
        ),
        max_leaves=6,
    )


def test_fraction_reduction():
    assert tfrac(2, 4) == tfrac(1, 2)
    assert tfrac(3, 1) == ("frac", 3, 1)
    assert tfrac(1, -2) == tfrac(-1, 2)
    with pytest.raises(EncodingError):
        tfrac(1, 0)


def test_equality_is_encoding_identity():
    assert tint(1) != tfrac(1)  # different encodings are different elements
    assert ttuple(tint(1)) != tint(1)
    assert tmap([(tsym("a"), tint(1))]) == tmap([(tsym("a"), tint(1))])


def test_map_canonical_ordering_and_duplicates():
    m1 = tmap([(tsym("b"), tint(2)), (tsym("a"), tint(1))])
    m2 = tmap([(tsym("a"), tint(1)), (tsym("b"), tint(2))])
    assert m1 == m2
    with pytest.raises(EncodingError):
        tmap([(tsym("a"), tint(1)), (tsym("a"), tint(2))])


def test_map_helpers():
    m = tmap([(tsym("a"), tint(1))])
    assert map_get(m, tsym("a")) == tint(1)
    assert map_get(m, tsym("b")) is None
    m2 = map_set(m, tsym("b"), tint(2))
    assert map_get(m2, tsym("b")) == tint(2)
    assert map_remove(m2, tsym("a")) == tmap([(tsym("b"), tint(2))])


def test_ordering_sorts_fractions_by_value():
    xs = [tfrac(1, 2), tfrac(1, 3), tfrac(2, 3), tfrac(0)]
    assert sort_terms(xs) == [tfrac(0), tfrac(1, 3), tfrac(1, 2), tfrac(2, 3)]


BIG = 10**30  # beyond a float's precision


@st.composite
def fraction_lists(draw):
    """Fractions with large numerators and denominators: some drawn freely,
    some a little off one drawn value n / d, at (n·k + s) / (d·k)."""
    n, d = draw(st.integers(-BIG, BIG)), draw(st.integers(1, BIG))
    near = draw(st.lists(st.tuples(st.integers(1, 10**12), st.integers(-2, 2)), max_size=6))
    free = draw(st.lists(st.tuples(st.integers(-BIG, BIG), st.integers(1, BIG)), max_size=6))
    small = draw(st.lists(st.tuples(st.integers(-20, 20), st.integers(1, 12)), max_size=6))
    return [tfrac(n, d)] + [tfrac(n * k + s, d * k) for k, s in near] + [
        tfrac(*p) for p in free + small
    ]


def fraction_key(t):
    return (Fraction(t[1], t[2]), t[2])


@given(fraction_lists())
def test_fraction_order_is_exact(xs):
    for a in xs:
        for b in xs:
            (ka, kb), (fa, fb) = (term_key(a), term_key(b)), (fraction_key(a), fraction_key(b))
            got = (ka < kb, ka <= kb, ka == kb, ka != kb, ka > kb, ka >= kb)
            assert got == (fa < fb, fa <= fb, fa == fb, fa != fb, fa > fb, fa >= fb)
            assert (ka == kb) == (a == b)
    assert sort_terms(xs) == sorted(xs, key=fraction_key)
    assert sort_terms(ttuple(x, x) for x in xs) == [ttuple(x, x) for x in sorted(xs, key=fraction_key)]


@given(terms())
def test_is_term_accepts_constructed(t):
    assert is_term(t)


@given(terms())
def test_json_roundtrip(t):
    assert term_from_json(term_to_json(t)) == t


@pytest.mark.parametrize("doc, message", [
    (["int", 1, 2], "bad arity for int: ['int', 1, 2]"),
    (["unit", 5], "bad arity for unit: ['unit', 5]"),
    (["con", "x", [], 1], "bad arity for con: ['con', 'x', [], 1]"),
    (["frac", 1], "bad arity for frac: ['frac', 1]"),
    (["frac", True, 2], "frac term needs two ints, got ['frac', True, 2]"),
    (["bool", "yes"], "bool term needs true or false, got 'yes'"),
    (["bool", 1], "bool term needs true or false, got 1"),
    (["map", {}], "map term needs a list, got {}"),
    (["tuple", "ab"], "tuple term needs a list, got 'ab'"),
    (["nope"], "unknown term tag 'nope'"),
])
def test_json_decoding_rejects_malformed_documents(doc, message):
    with pytest.raises(EncodingError) as exc:
        term_from_json(doc)
    assert str(exc.value) == message


@given(terms(), terms())
def test_order_total_and_consistent(a, b):
    ka, kb = term_key(a), term_key(b)
    assert (ka == kb) == (a == b)
    assert (ka < kb) or (kb < ka) or a == b


def test_pretty_smoke():
    assert pretty(UNIT) == "ε"
    assert pretty(tcon("ex", tint(3))) == "ex(3)"
    assert pretty(ttuple(tbool(False), tint(1))) == "(False, 1)"
