"""The PCM law suite against its brute-force reference.

``monoid.check_pcm_laws`` decides the unit, commutativity and
associativity laws of a product on its parts, and decides associativity
on numbered products: it composes each v·c and a·w once per distinct
product v or w, not each triple's two sides. ``ref_check_pcm_laws``
below is the suite as it was written before, composing every tuple of
every case. Both must give equal reports, field by field (verdict,
exhaustiveness, cases checked and first witness), on both monoids of
every builtin and demo protocol, and on products that hypothesis draws
from small builtins and table monoids, some of which break a law. A
table whose first non-associative triple has no index 0 pins how cases
are counted up to a witness, a numbering that gives unequal terms one
number is caught, and the compositions of one associativity check are
counted.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from guardcheck.demos import DEMOS, load_demo_document
from guardcheck.formats import load_protocol
from guardcheck.library import (
    build_agn,
    build_agnvec,
    build_excl,
    build_frac,
    build_int,
    build_nat,
    build_product,
    build_table_monoid,
    build_trivial,
)
from guardcheck import monoid
from guardcheck.monoid import (
    DEFAULT_PAIR_LIMIT,
    DEFAULT_TRIPLE_LIMIT,
    LawCheck,
    LawReport,
    MonoidSpec,
    carrier,
    check_pcm_laws,
)
from guardcheck.terms import UNIT, tint, tsym

# ---------------------------------------------------------------------------
# Reference


def ref_check_pcm_laws(
    spec: MonoidSpec,
    pair_limit: int = DEFAULT_PAIR_LIMIT,
    triple_limit: int = DEFAULT_TRIPLE_LIMIT,
) -> LawReport:
    """Unit, commutativity, associativity, and validity downward closure.

    Unit laws run over the whole enumerated carrier. Pair and triple laws
    run over a deterministic prefix capped at ``pair_limit``/``triple_limit``
    elements; each check reports whether it covered the full carrier.
    """
    elems = carrier(spec)
    comp, ok = spec.compose_fn, spec.valid_fn
    exhaustive_carrier = not spec.bounded
    pair_elems = elems[: max(pair_limit, 1)]
    triple_elems = elems[: max(triple_limit, 1)]
    pairs_full = exhaustive_carrier and len(pair_elems) == len(elems)
    triples_full = exhaustive_carrier and len(triple_elems) == len(elems)
    checks = []

    witness = None
    for a in elems:
        if comp(a, spec.unit) != a:
            witness = (a,)
            break
    checks.append(
        LawCheck("unit-right-identity", witness is None, exhaustive_carrier, len(elems), witness)
    )

    checks.append(
        LawCheck("unit-valid", ok(spec.unit), True, 1, None if ok(spec.unit) else (spec.unit,))
    )

    witness = None
    n = 0
    for i, a in enumerate(pair_elems):
        for b in pair_elems[i:]:
            n += 1
            if comp(a, b) != comp(b, a):
                witness = (a, b)
                break
        if witness:
            break
    checks.append(LawCheck("commutativity", witness is None, pairs_full, n, witness))

    witness = None
    n = 0
    for a in triple_elems:
        for b in triple_elems:
            ab = comp(a, b)
            for c in triple_elems:
                n += 1
                if comp(ab, c) != comp(a, comp(b, c)):
                    witness = (a, b, c)
                    break
            if witness:
                break
        if witness:
            break
    checks.append(LawCheck("associativity", witness is None, triples_full, n, witness))

    # a ≼ b ∧ 𝒱(b) ⟹ 𝒱(a), phrased over extensions b = a·c.
    witness = None
    n = 0
    for a in pair_elems:
        if ok(a):
            continue
        for c in pair_elems:
            n += 1
            if ok(comp(a, c)):
                witness = (a, c)
                break
        if witness:
            break
    checks.append(LawCheck("validity-downward-closed", witness is None, pairs_full, n, witness))

    return LawReport(spec.name, spec.enumerator.mode, len(elems), tuple(checks))


def agree(spec: MonoidSpec, **limits) -> LawReport:
    got = check_pcm_laws(spec, **limits)
    assert got == ref_check_pcm_laws(spec, **limits)
    return got


# ---------------------------------------------------------------------------
# Builtin and demo protocols

X0 = tsym("x0")
BUILTIN_NAMES = (
    "fractional", "fractional-memory", "counting", "forever", "rwlock", "rwlock-multi",
    "hashtable",
)


def demo_protocol_docs():
    """Every protocol a demo loads: check demos' protocol files and the
    builtin descriptors of every scenario, each distinct one once."""
    docs = {}
    for name, spec in DEMOS.items():
        if spec["kind"] == "check":
            docs[name] = load_demo_document(f"{name}.protocol.json")
            continue
        for p in load_demo_document(f"{name}.scenario.json")["protocols"]:
            descriptor = {k: v for k, v in p.items() if k in ("builtin", "params")}
            if descriptor not in docs.values():
                docs[f"{name}:{p['id']}"] = descriptor
    return docs


# the demos load every builtin but these, and one counting variant
PROTOCOLS = {
    "fractional-memory": {"builtin": "fractional-memory", "params": {"keys": [["sym", "x0"]]}},
    "forever": {"builtin": "forever"},
    "counting-unconstrained": {
        "builtin": "counting", "params": {"drop_carrier_constraint": True}
    },
    **demo_protocol_docs(),
}


def test_every_builtin_is_covered():
    builtins = {doc.get("builtin") for doc in PROTOCOLS.values()}
    assert builtins >= set(BUILTIN_NAMES)


@pytest.mark.parametrize("doc", list(PROTOCOLS.values()), ids=list(PROTOCOLS))
def test_protocol_monoids_agree(doc):
    sp, _ = load_protocol(doc)
    assert agree(sp.protocol).ok and agree(sp.storage).ok


# ---------------------------------------------------------------------------
# Table monoids that break one law each, alone and inside products

A, B = tsym("a"), tsym("b")


def table(name, rows, invalid=()):
    """A table monoid over ε, a and b, from its rows over a and b; ε is a
    unit for a and b unless ``rows`` says otherwise."""
    entries = {(UNIT, UNIT): UNIT, (UNIT, A): A, (UNIT, B): B}
    entries.update(rows)
    return build_table_monoid(name, [UNIT, A, B], UNIT, entries, invalid)


TABLES = {
    # a semilattice: a PCM
    "join": table("join", {(A, A): A, (A, B): B, (B, B): B}),
    # x·y = x for a and b: associative, but a·b ≠ b·a
    "left-zero": table("left-zero", {(A, A): A, (A, B): A, (B, A): B, (B, B): B}),
    # (a·a)·b = b·b = a, but a·(a·b) = a·a = b
    "non-associative": table("non-associative", {(A, A): B, (A, B): A, (B, B): A}),
    # ε·a = b
    "no-unit": table("no-unit", {(UNIT, A): B, (A, A): A, (A, B): B, (B, B): B}),
    # a is invalid but a·b = b is valid: not downward closed
    "not-closed": table("not-closed", {(A, A): A, (A, B): B, (B, B): B}, invalid=(A,)),
}
EXCL, NAT, INT = build_excl((tint(0),)), build_nat(2), build_int(-1, 1)
LEAVES = [
    EXCL,
    build_agn((X0,), max_count=2),
    build_agnvec((X0,), 2, 1),
    NAT,
    INT,
    build_frac(2, 1),
    build_trivial(),
    *TABLES.values(),
]


@pytest.mark.parametrize("name", list(TABLES))
def test_law_breaking_parts_agree_in_every_position(name):
    part = TABLES[name]
    agree(part)
    for total in (False, True):
        for parts in ([part], [part, EXCL], [INT, part], [NAT, part, EXCL]):
            agree(build_product("p", parts, total))
        agree(build_product("p", [EXCL, build_product("q", [INT, part])], total))


def test_each_broken_law_is_reported():
    for name, law in [("left-zero", "commutativity"), ("non-associative", "associativity"),
                      ("no-unit", "unit-right-identity"),
                      ("not-closed", "validity-downward-closed")]:
        report = agree(build_product("p", [INT, TABLES[name]]))
        assert [c.law for c in report.checks if not c.ok] == [law]


# (a·c)·b = a·b = b but a·(c·b) = a·a = a, and every triple before it holds
C = tsym("c")
LATE_FAILURE = build_table_monoid("late-failure", [UNIT, A, B, C], UNIT, {
    (UNIT, UNIT): UNIT, (UNIT, A): A, (UNIT, B): B, (UNIT, C): C,
    (A, A): A, (A, B): B, (A, C): A, (B, B): A, (B, C): A, (C, C): C,
})


def test_associativity_counts_cases_up_to_a_late_witness():
    # over ε, a, b, c the witness (a, c, b) is triple (h, i, j) = (1, 3, 2),
    # the (1·4 + 3)·4 + 2 + 1 = 31st in order
    assert carrier(LATE_FAILURE) == (UNIT, A, B, C)
    report = agree(LATE_FAILURE)
    assert [(c.law, c.witness, c.checked) for c in report.checks if not c.ok] == [
        ("associativity", (A, C, B), 31)
    ]
    for limit in (2, 3):
        agree(LATE_FAILURE, triple_limit=limit)
    for parts in ([LATE_FAILURE, EXCL], [INT, LATE_FAILURE]):
        agree(build_product("p", parts))


def numbering_by_tag():
    """A lossy ``monoid._numbering``: terms with one tag get one number."""
    ids, terms = {}, []

    def number(t):
        if t[0] not in ids:
            ids[t[0]] = len(terms)
            terms.append(t)
        return ids[t[0]]

    return number, terms


def test_a_lossy_numbering_is_caught(monkeypatch):
    monkeypatch.setattr(monoid, "_numbering", numbering_by_tag)
    for spec in (TABLES["non-associative"], LATE_FAILURE,
                 build_product("p", [INT, TABLES["non-associative"]])):
        assert check_pcm_laws(spec) != ref_check_pcm_laws(spec)


def test_associativity_composes_once_per_distinct_product():
    spec = build_frac(12, 4)
    elems = carrier(spec)[:DEFAULT_TRIPLE_LIMIT]
    k = len(elems)
    products = {spec.compose_fn(a, b) for a in elems for b in elems}
    compose, calls = spec.compose_fn, 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return compose(a, b)

    spec = spec.replace(compose_fn=counted)
    assert monoid._associativity(spec, elems) == (None, k**3)
    assert k == DEFAULT_TRIPLE_LIMIT and calls <= 2 * len(products) * k + k * k


# ---------------------------------------------------------------------------
# Drawn products

monoids = st.recursive(
    st.sampled_from(LEAVES),
    lambda children: st.builds(
        lambda parts, total: build_product("p", parts, total),
        st.lists(children, min_size=1, max_size=3),
        st.booleans(),
    ),
    max_leaves=4,
).filter(lambda spec: len(carrier(spec)) <= 27)


@st.composite
def monoids_and_limits(draw):
    spec = draw(monoids)
    size = len(carrier(spec))
    return (
        spec,
        draw(st.integers(1, size + 3)),
        draw(st.integers(1, size + 3)),
    )


@given(monoids_and_limits())
@settings(max_examples=150, deadline=None)
def test_drawn_products_agree(drawn):
    spec, pair_limit, triple_limit = drawn
    agree(spec, pair_limit=pair_limit, triple_limit=triple_limit)
