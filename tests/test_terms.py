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
