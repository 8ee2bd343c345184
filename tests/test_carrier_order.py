"""Product and finite-map carriers are generated in term order, without
a sort.

The references below are the sort-based ``generate`` functions that
``build_product``, ``build_hashtable_monoid`` and ``build_finmap`` used
before: every tuple or map, sorted by ``term_key``, with the unit moved
to the front. The carriers built now must equal them element for element.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from guardcheck import terms
from guardcheck.formats import load_monoid, load_protocol

from guardcheck.library import (
    NONE,
    HashFunctionSpec,
    build_agn,
    build_excl,
    build_finmap,
    build_frac,
    build_hashtable_monoid,
    build_int,
    build_nat,
    build_product,
    build_rwlock,
    build_rwlock_multi,
    build_trivial,
    ex,
    pcm_as_protocol,
    some,
)
from guardcheck.monoid import ElementEnumerator, MonoidSpec, carrier, term_order
from guardcheck.terms import BOT, UNIT, sort_terms, tbool, tint, tmap, tsym, ttuple

X0, X1 = tsym("x0"), tsym("x1")


def ref_product_carrier(parts):
    units = ttuple(*(p.unit for p in parts))
    elems = sort_terms(ttuple(*c) for c in itertools.product(*(carrier(p) for p in parts)))
    elems.remove(units)
    return tuple([units] + elems)


def ref_hashtable_carrier(hash_spec, values):
    keys, length = hash_spec.keys, hash_spec.length
    slot_opts = [NONE] + [some(ttuple(k, v)) for k in keys for v in values]
    map_opts = [NONE] + [some(v) for v in values]
    per_key = [[None, BOT] + [ex(o) for o in map_opts] for _ in keys]
    per_slot = [[None, BOT] + [ex(o) for o in slot_opts] for _ in range(length)]
    elems = []
    for key_combo in itertools.product(*per_key):
        kmap = tmap((k, v) for k, v in zip(keys, key_combo) if v is not None)
        for slot_combo in itertools.product(*per_slot):
            smap = tmap((tint(i), v) for i, v in enumerate(slot_combo) if v is not None)
            elems.append(ttuple(kmap, smap))
    out = sort_terms(elems)
    unit = ttuple(tmap(()), tmap(()))
    out.remove(unit)
    return tuple([unit] + out)


def test_rwlock_carriers_match_the_sorted_reference():
    for sp in (build_rwlock((X0, X1))[0], build_rwlock_multi((X0, X1))[0]):
        assert carrier(sp.protocol) == ref_product_carrier(sp.protocol.parts)


def test_hashtable_carrier_matches_the_sorted_reference():
    hash_spec = HashFunctionSpec(3, ((tint(0), 0), (tint(1), 0)))
    monoid, _ = build_hashtable_monoid(hash_spec, (tint(10), tint(11)))
    assert carrier(monoid) == ref_hashtable_carrier(hash_spec, (tint(10), tint(11)))


def test_hashtable_protocol_keeps_its_two_maps():
    # the protocol view is a product of the key map and the slot map too
    hash_spec = HashFunctionSpec(2, ((tint(0), 0), (tint(1), 1)))
    monoid, _ = build_hashtable_monoid(hash_spec, (tint(10),))
    parts = pcm_as_protocol(monoid).protocol.parts
    assert parts == monoid.parts and len(parts) == 2
    assert ref_product_carrier(parts) == ref_hashtable_carrier(hash_spec, (tint(10),))


def test_product_with_a_unit_that_is_not_least():
    # int's unit 0 sorts after -2 and -1, so the unit must move to the front
    parts = [build_int(-2, 2), build_excl((tint(0),))]
    got = carrier(build_product("p", parts))
    assert got == ref_product_carrier(parts)
    assert got[0] == ttuple(tint(0), ("unit",)) and got[1] != got[0]


SMALL = [
    build_excl((tint(0), tint(1))),
    build_agn((X0, X1), max_count=2),
    build_nat(3),
    build_int(-2, 2),
    build_frac(2, 1),
    build_trivial(),
]


@given(st.lists(st.sampled_from(range(len(SMALL))), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_products_of_small_builtins_match_the_sorted_reference(picks):
    parts = [SMALL[i] for i in picks]
    assert carrier(build_product("p", parts)) == ref_product_carrier(parts)


def ref_finmap_carrier(keys, value):
    per_key = [[None] + [(k, v) for v in carrier(value) if v != value.unit] for k in keys]
    elems = sort_terms({tmap(e for e in c if e) for c in itertools.product(*per_key)})
    elems.remove(tmap(()))
    return tuple([tmap(())] + elems)


# keys of mixed tags, drawn in any order, so rarely in term order
KEYS = [tsym("k"), tint(3), tint(-1), tbool(True), UNIT, ttuple(tint(0))]


@given(
    st.lists(st.sampled_from(KEYS), max_size=3, unique=True),
    st.sampled_from(range(len(SMALL))),
)
@settings(max_examples=40, deadline=None)
def test_finmap_carriers_match_the_sorted_reference(keys, pick):
    value = SMALL[pick]
    assert carrier(build_finmap(tuple(keys), value)) == ref_finmap_carrier(keys, value)


def test_a_finmap_carrier_takes_no_term_key_per_element(monkeypatch):
    # the maps come out in order by construction: only sorting the keys
    # reads term_key, once per key, and no map is ever keyed
    value = build_excl((tint(0), tint(1), tint(2)))
    term_order(value)
    calls = []
    term_key = terms.term_key

    def counted(t):
        calls.append(t)
        return term_key(t)

    monkeypatch.setattr(terms, "term_key", counted)
    keys = (tint(2), tint(0), tint(1))
    elems = carrier(build_finmap(keys, value))
    assert len(elems) == 5 ** len(keys)
    assert len(calls) <= len(keys) and not any(t[0] == "map" for t in calls)


# term_order places the unit among an enumeration that is otherwise in
# term order; the sorted carrier is its reference, for every builtin
# protocol's monoids and parts and for each kind of monoid a document
# can load
TERMS = [["int", 1], ["int", 0]]
BUILTINS = {
    "fractional": {}, "fractional-memory": {"keys": TERMS}, "counting": {}, "forever": {},
    "rwlock": {"values": TERMS}, "rwlock-multi": {"values": TERMS, "k": 2},
    "hashtable": {"length": 3, "hash": [[["int", 1], 0], [["int", 0], 0]], "values": TERMS},
}
MONOIDS = [
    {"kind": "excl", "values": TERMS},
    {"kind": "agn", "values": TERMS, "max_count": 2},
    {"kind": "agnvec", "values": TERMS, "k": 2, "max_count": 1},
    {"kind": "nat", "limit": 3},
    {"kind": "int", "lo": -2, "hi": 2},
    {"kind": "frac", "den_bound": 3, "max_value": 2},
    {"kind": "product", "parts": [{"kind": "int", "lo": -1, "hi": 1}, {"kind": "nat", "limit": 1}]},
    {"kind": "finmap", "keys": TERMS, "value": {"kind": "int", "lo": -1, "hi": 1}},
    # a table whose unit is neither its least nor its first-listed element
    {"kind": "table", "unit": ["int", 5], "elements": [["int", 7], ["int", 3]], "compose": [
        [["int", 5], ["int", 5], ["int", 5]], [["int", 5], ["int", 3], ["int", 3]],
        [["int", 5], ["int", 7], ["int", 7]], [["int", 3], ["int", 3], ["int", 3]],
        [["int", 3], ["int", 7], ["int", 7]], [["int", 7], ["int", 7], ["int", 7]],
    ]},
    {"kind": "trivial"},
]


def with_parts(spec):
    yield spec
    for part in spec.parts:
        yield from with_parts(part)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_term_order_is_the_sorted_carrier(name):
    sp, _ = load_protocol({"builtin": name, "params": BUILTINS[name]})
    for spec in (*with_parts(sp.protocol), *with_parts(sp.storage)):
        assert term_order(spec)[0] == tuple(sort_terms(carrier(spec))), spec.name


@pytest.mark.parametrize("doc", MONOIDS, ids=[doc["kind"] for doc in MONOIDS])
def test_loaded_term_order_is_the_sorted_carrier(doc):
    for spec in with_parts(load_monoid(doc)):
        assert term_order(spec)[0] == tuple(sort_terms(carrier(spec))), spec.name


def test_an_enumeration_out_of_term_order_is_sorted():
    excl = build_excl((tint(0), tint(1)))
    shuffled = MonoidSpec("shuffled", excl.unit, excl.compose_fn, excl.valid_fn, ElementEnumerator(
        "exhaustive", lambda: iter([excl.unit, *reversed(carrier(excl)[1:])])))
    assert term_order(shuffled)[0] == tuple(sort_terms(carrier(excl)))
