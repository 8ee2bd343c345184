"""The shared frame quantifier against brute-force reference loops.

``monoid.first_counterexample`` replaced seven hand-written "for each
frame in the carrier" loops. Each of them is kept below as the reference,
as it was written, except that memoisation is dropped (every call
enumerates) and that the references call each other instead of the
library (``ref_leq`` for ``leq``, ``ref_exchange_body_at`` for the
exchange body). The new path must return the same verdict, witness,
reason and frame count on the shipped relation suites, on the acceptance
cross-validation pairs, and on elements that hypothesis draws over small
builtins, a product and a small hash table; on the last two,
``and_premise`` decides its images part by part.

For a product protocol whose 𝒞 rejects every element with a ⊥ part (the
two lock builders, and custom tables that prove it), the quantifier
walks only the frames q where no part of p·q is ⊥. The same references
check that walk: it must report the same witness and the same carrier
positions as a walk over every frame.
"""

from __future__ import annotations

from functools import partial, reduce

import pytest
from hypothesis import example, given, settings, strategies as st

import guardcheck.monoid as monoid_module

from guardcheck.demos import load_demo_document
from guardcheck.formats import load_protocol, load_queries
from guardcheck.ghost import GhostLedger, InstanceState, OpenGuardAction, apply_action
from guardcheck.library import (
    NONE,
    HashFunctionSpec,
    as_total,
    build_agn,
    build_counting,
    build_excl,
    build_forever,
    build_fractional,
    build_hashtable_monoid,
    build_hashtable_protocol,
    build_nat,
    build_product,
    build_rwlock,
    build_rwlock_multi,
    ex,
    pcm_as_protocol,
    some,
)
from guardcheck.monoid import (
    FAILS,
    HOLDS,
    UP_TO_BOUND,
    CheckResult,
    MonoidSpec,
    and_premise,
    carrier,
    first_counterexample,
    frame_preserving_update,
    leq_witness,
)
from guardcheck.protocol import (
    ExchangeQuery,
    StorageProtocolSpec,
    exchange_holds,
    guard_body_at,
    guard_holds,
    recheck_exchange_witness,
    recheck_guard_witness,
    valid_fragment,
)
from guardcheck.terms import BOT, UNIT, pretty, term_from_json as term, tint, tsym, ttuple
from test_acceptance import _paired_monoid

# ---------------------------------------------------------------------------
# Reference loops


def _verdict(spec: MonoidSpec) -> str:
    return UP_TO_BOUND if spec.bounded else HOLDS


def _image(spec: MonoidSpec, a):
    comp = spec.compose_fn
    return frozenset(comp(a, c) for c in carrier(spec))


def ref_leq_witness(spec: MonoidSpec, a, b):
    comp = spec.compose_fn
    for c in carrier(spec):
        if comp(a, c) == b:
            return c
    return None


def ref_leq(spec: MonoidSpec, a, b) -> bool:
    return ref_leq_witness(spec, a, b) is not None


def ref_frame_preserving_update(spec: MonoidSpec, a, b) -> CheckResult:
    comp, ok = spec.compose_fn, spec.valid_fn
    n = 0
    for c in carrier(spec):
        n += 1
        if ok(comp(a, c)) and not ok(comp(b, c)):
            return CheckResult(
                FAILS,
                witness=c,
                reason=f"frame keeps {pretty(a)} valid but not {pretty(b)}",
                frames=n,
            )
    return CheckResult(_verdict(spec), frames=n)


def ref_and_premise(spec: MonoidSpec, x, y, z) -> CheckResult:
    above_x = _image(spec, x)
    above_y = _image(spec, y)
    above_z = _image(spec, z)
    ok = spec.valid_fn
    n = 0
    for t in carrier(spec):
        n += 1
        if t in above_x and t in above_y and ok(t) and t not in above_z:
            return CheckResult(
                FAILS,
                witness=t,
                reason=f"{pretty(t)} extends both operands but not {pretty(z)}",
                frames=n,
            )
    return CheckResult(_verdict(spec), frames=n)


def ref_exchange_body_at(sp, q, frame):
    comp_p = sp.protocol.compose_fn
    comp_s = sp.storage.compose_fn
    pq = comp_p(q.p, frame)
    if not sp.complete(pq):
        return True, ""
    if not sp.complete(comp_p(q.p_after, frame)):
        return False, "completion lost after transition"
    before = comp_s(sp.stored(pq), q.s)
    if not sp.storage.valid_fn(before):
        return False, "stored content composed with deposit is invalid"
    after = comp_s(sp.stored(comp_p(q.p_after, frame)), q.s_after)
    if before != after:
        return (
            False,
            f"storage books disagree: {pretty(before)} vs {pretty(after)}",
        )
    return True, ""


def ref_exchange_holds(sp, q) -> CheckResult:
    q.check_shape(sp)
    n = 0
    result = None
    for frame in carrier(sp.protocol):
        n += 1
        ok, why = ref_exchange_body_at(sp, q, frame)
        if not ok:
            result = CheckResult(FAILS, witness=frame, reason=why, frames=n)
            break
    if result is None:
        result = CheckResult(UP_TO_BOUND if sp.bounded else HOLDS, frames=n)
    return result


def ref_guard_holds(sp, p, s) -> CheckResult:
    comp_p = sp.protocol.compose_fn
    n = 0
    result = None
    for frame in carrier(sp.protocol):
        n += 1
        pq = comp_p(p, frame)
        if sp.complete(pq) and not ref_leq(sp.storage, s, sp.stored(pq)):
            result = CheckResult(
                FAILS,
                witness=frame,
                reason=f"completion stores {pretty(sp.stored(pq))}, short of {pretty(s)}",
                frames=n,
            )
            break
    if result is None:
        result = CheckResult(UP_TO_BOUND if sp.bounded else HOLDS, frames=n)
    return result


def ref_valid_fragment(sp, p) -> bool:
    comp_p = sp.protocol.compose_fn
    return any(sp.complete(comp_p(p, q)) for q in carrier(sp.protocol))


def ref_concrete_guard(sp, total, element) -> bool:
    hit = True
    for q in carrier(sp.protocol):
        joint = sp.protocol.compose_fn(total, q)
        if sp.complete(joint) and not ref_leq(sp.storage, element, sp.stored(joint)):
            hit = False
            break
    return hit


# ---------------------------------------------------------------------------
# Agreement checks

_GUARD_DETAIL = "a completion of the live state stores too little"


def concrete_guard_rejects(sp, total, element) -> bool:
    """Whether concrete admission rejects a window for ``element`` on the
    live total ``total`` at its completion check (not at its later check
    against the stored content)."""
    state = InstanceState("i", (("o", total),), sp.storage.unit)
    out = apply_action(
        {"i": sp}, GhostLedger((("i", state),)), OpenGuardAction("i", "o", element), "concrete"
    )
    rejected = not out.ok and out.violation.detail == _GUARD_DETAIL
    if rejected:
        assert out.violation.reason == "guard-rejected" and out.violation.witness == total
    return rejected


def agree_exchange(sp, q):
    got, want = exchange_holds(sp, q), ref_exchange_holds(sp, q)
    assert got == want, (sp.name, q)
    if not got.ok:
        assert recheck_exchange_witness(sp, q, got.witness)


def agree_guard(sp, p, s):
    got, want = guard_holds(sp, p, s), ref_guard_holds(sp, p, s)
    assert got == want, (sp.name, p, s)
    if not got.ok:
        assert recheck_guard_witness(sp, p, s, got.witness)


def agree_concrete_guard(sp, total, element):
    assert concrete_guard_rejects(sp, total, element) == (
        not ref_concrete_guard(sp, total, element)
    ), (sp.name, total, element)


def agree_valid_fragment(sp, p):
    assert valid_fragment(sp, p) == ref_valid_fragment(sp, p), (sp.name, p)


def agree_monoid(spec, a, b):
    assert leq_witness(spec, a, b) == ref_leq_witness(spec, a, b)
    assert frame_preserving_update(spec, a, b) == ref_frame_preserving_update(spec, a, b)
    z = spec.compose_fn(a, b)
    assert and_premise(spec, a, b, z) == ref_and_premise(spec, a, b, z)
    assert and_premise(spec, a, b, a) == ref_and_premise(spec, a, b, a)


# ---------------------------------------------------------------------------
# The three shipped relation suites


def _exchange_query(sp, q) -> ExchangeQuery:
    eps = sp.storage.unit
    return ExchangeQuery(
        q["p"], q.get("s", eps), q["p_after"], q.get("s_after", eps), q["kind"]
    )


def agree_on_suite(demo):
    protocol_doc = load_demo_document(f"{demo}.protocol.json")
    sp, named = load_protocol(protocol_doc)
    live, _ = load_protocol(protocol_doc)  # cold caches for the concrete guard
    relations = load_demo_document(f"{demo}.relations.json")
    queries = load_queries(relations, named, sp)
    assert queries
    for q in queries:
        if q["kind"] == "guard":
            agree_guard(sp, q["p"], q["s"])
            agree_concrete_guard(live, q["p"], q["s"])
        elif q["kind"] == "valid-fragment":
            agree_valid_fragment(sp, q["p"])
        else:
            agree_exchange(sp, _exchange_query(sp, q))
            agree_valid_fragment(sp, q["p"])


@pytest.mark.parametrize("demo", ["protocol-frac", "protocol-count", "protocol-rwlock"])
def test_shipped_relation_suites_agree(demo):
    agree_on_suite(demo)


# ---------------------------------------------------------------------------
# The acceptance cross-validation pairs

X0, X1 = tsym("x0"), tsym("x1")
HASH = HashFunctionSpec(3, ((tint(0), 0), (tint(1), 0)))


@pytest.mark.parametrize(
    "build, sample",
    [
        (build_fractional, 8),
        (lambda: build_counting()[0], 8),
        (build_forever, 1),
        (lambda: build_rwlock((X0, X1))[0], 6),
        (lambda: build_rwlock_multi((X0, X1), 2, rc_range=(0, 1), sp_max=1, agn_max=1)[0], 4),
        (lambda: build_hashtable_protocol(HASH, (tint(10), tint(11)))[0], 6),
    ],
    ids=["fractional", "counting", "forever", "rwlock", "rwlock-multi", "hashtable"],
)
def test_cross_validation_pairs_agree(build, sample):
    sp = build()
    paired = _paired_monoid(sp)
    eps = sp.storage.unit
    prefix = carrier(sp.protocol)[:sample]
    for p in prefix:
        for p2 in prefix:
            agree_exchange(sp, ExchangeQuery.update(p, p2, eps))
            a, b = ttuple(p, eps), ttuple(p2, eps)
            assert frame_preserving_update(paired, a, b) == ref_frame_preserving_update(
                paired, a, b
            )


# ---------------------------------------------------------------------------
# Hypothesis over small builtins

EXCL = build_excl((tint(0), tint(1)))
AGN = build_agn((X0, X1), max_count=2)
NAT = build_nat(4)
COUNTING, _ = build_counting(r_range=(-2, 2), c_max=2, nat_limit=4)
# a product and a hash table: and_premise decides their images part by part
EXCL_NAT = build_product("excl-nat", [EXCL, build_nat(2)])
SMALL_HT, SMALL_HTE = build_hashtable_monoid(HashFunctionSpec(2, ((tint(0), 0),)), (tint(10),))
MONOIDS = {
    "excl": EXCL, "agn": AGN, "nat": NAT, "counting": COUNTING.protocol,
    "excl-nat": EXCL_NAT, "hashtable": SMALL_HT,
}
# an exhaustive protocol monoid over a bounded storage monoid: the verdict
# is up to the bound because of the storage side alone
TOKEN_COUNT = StorageProtocolSpec(
    "token-count",
    as_total(EXCL),
    NAT,
    lambda p: p != BOT,
    lambda p: tint(0 if p == UNIT else 1),
)
PROTOCOLS = {
    "excl": pcm_as_protocol(EXCL),
    "agn": pcm_as_protocol(AGN),
    "nat": pcm_as_protocol(NAT),
    "counting": COUNTING,
    "token-count": TOKEN_COUNT,
}


@st.composite
def monoid_and_elements(draw):
    spec = MONOIDS[draw(st.sampled_from(sorted(MONOIDS)))]
    a, b = (draw(st.sampled_from(carrier(spec))) for _ in range(2))
    return spec, a, b


@st.composite
def protocol_and_elements(draw):
    name = draw(st.sampled_from(sorted(PROTOCOLS)))
    sp = PROTOCOLS[name]
    p, p_after = (draw(st.sampled_from(carrier(sp.protocol))) for _ in range(2))
    s, s_after = (draw(st.sampled_from(carrier(sp.storage))) for _ in range(2))
    return sp, p, s, p_after, s_after


# few pairs of hash-table elements make and_premise fail, so one failing
# and one holding pair of each product are always checked
@given(monoid_and_elements())
@example((EXCL_NAT, ttuple(UNIT, tint(1)), ttuple(UNIT, tint(1))))
@example((EXCL_NAT, ttuple(ex(tint(0)), tint(1)), ttuple(UNIT, tint(0))))
@example((SMALL_HT, SMALL_HTE.slot(0, NONE), SMALL_HTE.slot(0, NONE)))
@example((SMALL_HT, SMALL_HTE.m(tint(0), some(tint(10))),
          SMALL_HTE.slot(0, SMALL_HTE.entry(tint(0), tint(10)))))
@settings(max_examples=60, deadline=None)
def test_monoid_relations_agree(drawn):
    agree_monoid(*drawn)


@given(protocol_and_elements())
@settings(max_examples=60, deadline=None)
def test_protocol_relations_agree(drawn):
    sp, p, s, p_after, s_after = drawn
    agree_exchange(sp, ExchangeQuery.exchange(p, s, p_after, s_after))
    agree_concrete_guard(sp, p, s)  # before guard_holds, which shares its memo
    agree_guard(sp, p, s)
    agree_valid_fragment(sp, p)


# ---------------------------------------------------------------------------
# The ⊥-pruned walk over the lock protocols

RW, RW_ELEMS = build_rwlock((X0, X1))
VALUES = st.sampled_from((X0, X1))
RW_PIECES = st.one_of(
    st.builds(RW_ELEMS.fields, st.booleans(), st.integers(-2, 4), VALUES),
    st.just(RW_ELEMS.exc_pending()),
    st.just(RW_ELEMS.exc()),
    st.just(RW_ELEMS.sh_pending()),
    st.builds(RW_ELEMS.sh, VALUES),
)


@st.composite
def rwlock_fragments(draw):
    """A composite of named rwlock elements, at times with seven pending
    readers: past the bound of 4 on that count."""
    pieces = draw(st.lists(RW_PIECES, min_size=1, max_size=3))
    if draw(st.booleans()):
        pieces += [RW_ELEMS.sh_pending()] * 7
    return reduce(RW.protocol.compose_fn, pieces)


def test_skipping_is_on_exactly_where_c_rejects_bot_parts():
    assert RW.bot_parts_incomplete and build_rwlock_multi((X0,))[0].bot_parts_incomplete
    for sp in (build_fractional(), COUNTING, build_forever(), TOKEN_COUNT, PROTOCOLS["excl"]):
        assert not sp.bot_parts_incomplete, sp.name
    ht = build_hashtable_protocol(HASH, (tint(10),))[0]
    assert not ht.bot_parts_incomplete and ht.protocol.parts


def test_pruned_walk_builds_no_product_carrier():
    sp, elems = build_rwlock((X0, X1))
    p = elems.fields(False, 0, X0)
    assert guard_holds(sp, p, ex(X0)).ok
    assert guard_holds(sp, p, UNIT).frames == 13_500
    assert "carrier" not in sp.protocol._cache


@given(rwlock_fragments(), rwlock_fragments(), st.sampled_from(carrier(RW.storage)),
       st.sampled_from(carrier(RW.storage)))
@settings(max_examples=40, deadline=None)
def test_rwlock_pruned_relations_agree(p, p_after, s, s_after):
    agree_exchange(RW, ExchangeQuery.exchange(p, s, p_after, s_after))
    agree_concrete_guard(RW, p, s)  # before guard_holds, which shares its memo
    agree_guard(RW, p, s)
    agree_valid_fragment(RW, p)


RWM, RWM_ELEMS = build_rwlock_multi((X0, X1))
RWM_PIECES = st.one_of(
    st.builds(
        RWM_ELEMS.fields, st.booleans(), st.tuples(st.integers(-1, 2), st.integers(-1, 2)),
        VALUES,
    ),
    st.builds(RWM_ELEMS.exc_pending, st.integers(0, 2)),
    st.just(RWM_ELEMS.exc()),
    st.builds(RWM_ELEMS.sh_pending, st.integers(0, 1)),
    st.builds(RWM_ELEMS.sh, st.integers(0, 1), VALUES),
)


@given(st.lists(RWM_PIECES, min_size=1, max_size=3), st.sampled_from(carrier(RWM.storage)))
@settings(max_examples=8, deadline=None)
def test_rwlock_multi_pruned_relations_agree(pieces, s):
    p = reduce(RWM.protocol.compose_fn, pieces)
    eps = RWM.storage.unit
    agree_exchange(RWM, ExchangeQuery.update(p, pieces[0], eps))
    agree_guard(RWM, p, s)
    agree_valid_fragment(RWM, p)


# a custom table protocol over int × excl: its 𝒞 table has no ⊥ part, so
# its walk is pruned, and int's unit 0 sorts after -2 and -1, so frames
# before the unit in the carrier are positioned around it
def _pair(n, tok):
    return ["tuple", [["int", n], tok]]


EX0, EX1 = ["con", "ex", [["int", 0]]], ["con", "ex", [["int", 1]]]
C_TABLE = [(_pair(n, ["unit"]), n) for n in range(3)]
C_TABLE += [(_pair(n, EX0), n + 1) for n in (-1, 0, 1)]
INT_EXCL = load_protocol({
    "name": "int-excl",
    "protocol": {"kind": "product", "total": True, "parts": [
        {"kind": "int", "lo": -2, "hi": 2}, {"kind": "excl", "values": [["int", 0]]},
    ]},
    "storage": {"kind": "nat", "limit": 3},
    "complete": {"table": [p for p, _ in C_TABLE]},
    "stored_of": {"table": [[p, ["int", n]] for p, n in C_TABLE]},
})[0]


int_excl_fragments = st.lists(
    st.sampled_from(carrier(INT_EXCL.protocol)), min_size=1, max_size=3
).map(lambda pieces: reduce(INT_EXCL.protocol.compose_fn, pieces))


@given(int_excl_fragments, int_excl_fragments, st.sampled_from(carrier(INT_EXCL.storage)),
       st.sampled_from(carrier(INT_EXCL.storage)))
@settings(max_examples=80, deadline=None)
def test_pruned_walk_around_a_unit_that_is_not_least(p, p_after, s, s_after):
    assert INT_EXCL.bot_parts_incomplete
    agree_exchange(INT_EXCL, ExchangeQuery.exchange(p, s, p_after, s_after))
    agree_concrete_guard(INT_EXCL, p, s)  # before guard_holds, which shares its memo
    agree_guard(INT_EXCL, p, s)
    agree_valid_fragment(INT_EXCL, p)


# ---------------------------------------------------------------------------
# Negative controls

# a product protocol whose 𝒞 table holds an element with a ⊥ part: frames
# that give p·q a ⊥ part can complete it, so none may be skipped
BOT_IN_C = {
    "name": "bot-in-c",
    "protocol": {"kind": "product", "total": True, "parts": [
        {"kind": "excl", "values": [["int", 0]]}, {"kind": "excl", "values": [["int", 1]]},
    ]},
    "storage": {"kind": "excl", "values": [["int", 1]]},
    "complete": {"table": [["tuple", [["unit"], ["unit"]]], ["tuple", [EX0, ["bot"]]]]},
    "stored_of": {"table": [
        [["tuple", [["unit"], ["unit"]]], EX1],
        [["tuple", [EX0, ["bot"]]], ["unit"]],
    ]},
}


def test_bot_in_c_table_falls_back_to_every_frame():
    sp, _ = load_protocol(BOT_IN_C)
    assert sp.protocol.parts and not sp.bot_parts_incomplete
    p, s = ttuple(term(EX0), term(EX1)), term(EX1)
    agree_guard(sp, p, s)
    assert not guard_holds(sp, p, s).ok  # the frame (ε, ex 1) completes p at (ex 0, ⊥)
    forced = first_counterexample(sp.protocol, partial(guard_body_at, sp, p, s), against=p)
    assert forced.ok and forced != ref_guard_holds(sp, p, s)


def test_dropping_one_compatible_frame_is_caught(monkeypatch):
    walk = monoid_module._walk

    def drop_first(spec, against):
        frames, position, size = walk(spec, against)
        return (frames[1:] if against is not None else frames), position, size

    monkeypatch.setattr(monoid_module, "_walk", drop_first)
    with pytest.raises(AssertionError):
        agree_on_suite("protocol-rwlock")
