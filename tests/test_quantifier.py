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
``and_premise`` decides its images part by part and walks only the box
of tuples above both operands.

Exchange, guard and valid-fragment walk only the frames q that make p·q
complete: ``protocol.completion_boxes`` groups each part's elements by
the value of p_j·q_j and finds the complete tuples of values, and the
walk visits their frames in carrier order. The same references check
that walk on the lock protocols, on a custom table whose 𝒞 holds an
element with a ⊥ part, and on a completion outside the enumerated
carrier: it must report the same witness and the same carrier
positions as a walk over every frame. Mutants of the walk (a frame
dropped, 𝒞 read off the carrier, the first failing value tuple taken in
place of the least position) must be caught.

The locks and the custom tables on a product state 𝒞 as stages, and the
search binds one part at a time; any other 𝒞 is searched as one stage on
the whole tuple. The lock's stages must agree with a frozen copy of its
𝒞 as one predicate, and the search must yield the boxes of a loop that
asks 𝒞 of every tuple, in its order, for both kinds of 𝒞. Guard
weakening and strengthening, and the framing of exchange, are a second
oracle that does not go through the per-frame bodies.
Mutants of the stages (reading a part not yet bound, rejecting one more
value) and of the search (boxes out of order) must be caught.
"""

from __future__ import annotations

import itertools
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

import guardcheck.monoid as monoid_module
import guardcheck.protocol as protocol_module

from guardcheck.demos import load_demo_document
from guardcheck.explore import explore
from guardcheck.formats import load_protocol, load_queries, scenario_from_json
from guardcheck.ghost import GhostLedger, InstanceState, OpenGuardAction, apply_action
from guardcheck.library import (
    EX,
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
    build_int,
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
    frame_preserving_update,
    is_element,
    leq,
    leq_witness,
    term_order,
)
from guardcheck.protocol import (
    ExchangeQuery,
    StorageProtocolSpec,
    completion_boxes,
    exchange_holds,
    guard_holds,
    recheck_exchange_witness,
    recheck_guard_witness,
    valid_fragment,
)
from guardcheck.terms import (
    BOT, UNIT, con_args, pretty, term_from_json as term, tfrac, tint, tsym, ttuple,
)
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
    state = InstanceState((("o", total),), sp.storage.unit)
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
# The completion walk over the lock protocols

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


def box_frames(spec, box):
    join = ttuple if spec.parts else (lambda q: q)
    return [join(*c) for c in itertools.product(*box)]


def assert_boxes_are_the_completions(sp, p):
    """completion_boxes(sp, p) holds each carrier frame q with 𝒞(p·q)
    exactly once, and no other frame; each box lists its parts' elements
    in term order."""
    proto = sp.protocol
    boxes = completion_boxes(sp, p)
    got = [q for box in boxes for q in box_frames(proto, box)]
    want = [q for q in carrier(proto) if sp.complete(proto.compose_fn(p, q))]
    assert len(got) == len(set(got)) and set(got) == set(want), (sp.name, p)
    for box in boxes:
        for part, elems in zip(monoid_module.axes(proto), box):
            index = term_order(part)[1]
            assert elems and [index[q] for q in elems] == sorted(index[q] for q in elems)


def test_completion_boxes_are_the_completing_frames():
    ht = build_hashtable_protocol(HASH, (tint(10),))[0]
    bot_in_c = load_protocol(BOT_IN_C)[0]
    for sp in (build_fractional(), COUNTING, build_forever(), TOKEN_COUNT, PROTOCOLS["excl"],
               PROTOCOLS["agn"], ht, INT_EXCL, bot_in_c, RW):
        for p in carrier(sp.protocol)[:12]:
            assert_boxes_are_the_completions(sp, p)
    for p in (RW_ELEMS.fields(False, 0, X0), RW_ELEMS.exc(),
              RW.protocol.compose_fn(RW_ELEMS.sh(X1), RW_ELEMS.sh_pending())):
        assert_boxes_are_the_completions(RW, p)
    for p in outside_fragments(RWM_ELEMS, lambda *pieces: reduce(RWM.protocol.compose_fn, pieces)):
        assert_boxes_are_the_completions(RWM, p)


def test_pruned_walk_builds_no_product_carrier():
    sp, elems = build_rwlock((X0, X1))
    p = elems.fields(False, 0, X0)
    assert guard_holds(sp, p, ex(X0)).ok
    assert guard_holds(sp, p, UNIT).frames == 13_500
    assert "carrier" not in sp.protocol._cache


def test_hashtable_exploration_builds_no_product_carrier():
    # exchange on the table's protocol view walks its completions, and
    # and_premise on the table walks one box of tuples
    scenario = scenario_from_json(load_demo_document("hashtable-collide.scenario.json"))
    assert explore(scenario, mode="rule").states > 1
    assert "carrier" not in scenario.named["ht"].monoid._cache
    assert "carrier" not in scenario.protocols["ht"].protocol._cache


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


# (ex((False, (2, 0), x0)), ε, ε, (2, 0), ε) is complete, but its pending
# readers (2, 0) are past sp_max = 1: a value outside the carrier, reached
# from the first fragment by the frame of one more pending reader. The
# second fragment holds the writer's token as well, which excludes the
# completion by an acquired reader instead: its one completion lies
# outside the carrier.
def outside_fragments(elems, compose):
    return [
        compose(elems.fields(exc, (2, 0), X0), *tokens, elems.sh_pending(0))
        for exc, tokens in ((False, ()), (True, (elems.exc(),)))
    ]


def test_a_completion_outside_the_carrier_is_walked():
    sp, elems = build_rwlock_multi((X0, X1))  # cold memo
    proto = sp.protocol

    def compose(*pieces):
        return reduce(proto.compose_fn, pieces)

    for p in outside_fragments(elems, compose):
        completed = compose(p, elems.sh_pending(0))
        assert sp.complete(completed) and not is_element(proto, completed)
        assert valid_fragment(sp, p)
        agree_valid_fragment(sp, p)
        for s in carrier(sp.storage):
            agree_guard(sp, p, s)
        for p_after in (p, elems.fields(False, (2, 0), X1), proto.unit):
            agree_exchange(sp, ExchangeQuery.update(p, p_after, sp.storage.unit))


def test_and_premise_builds_no_product_carrier():
    monoid, elems = build_hashtable_monoid(HASH, (tint(10), tint(11)))
    x = elems.m(tint(0), some(tint(10)))
    y = elems.slot(0, elems.entry(tint(0), tint(10)))
    results = [and_premise(monoid, x, y, monoid.compose_fn(x, y)), and_premise(monoid, x, y, x)]
    assert "carrier" not in monoid._cache
    assert results == [ref_and_premise(monoid, x, y, monoid.compose_fn(x, y)),
                       ref_and_premise(monoid, x, y, x)]


# a custom table protocol over int × excl: int's unit 0 sorts after -2 and
# -1, so the frames that rank before the unit are positioned around it
def _pair(n, tok):
    return ["tuple", [["int", n], tok]]


EX0, EX1 = ["con", "ex", [["int", 0]]], ["con", "ex", [["int", 1]]]
C_TABLE = [(_pair(n, ["unit"]), n) for n in range(3)]
C_TABLE += [(_pair(n, EX0), n + 1) for n in (-1, 0, 1)]
INT_EXCL_DOC = {
    "name": "int-excl",
    "protocol": {"kind": "product", "total": True, "parts": [
        {"kind": "int", "lo": -2, "hi": 2}, {"kind": "excl", "values": [["int", 0]]},
    ]},
    "storage": {"kind": "nat", "limit": 3},
    "complete": {"table": [p for p, _ in C_TABLE]},
    "stored_of": {"table": [[p, ["int", n]] for p, n in C_TABLE]},
}
INT_EXCL = load_protocol(INT_EXCL_DOC)[0]


int_excl_fragments = st.lists(
    st.sampled_from(carrier(INT_EXCL.protocol)), min_size=1, max_size=3
).map(lambda pieces: reduce(INT_EXCL.protocol.compose_fn, pieces))


@given(int_excl_fragments, int_excl_fragments, st.sampled_from(carrier(INT_EXCL.storage)),
       st.sampled_from(carrier(INT_EXCL.storage)))
@settings(max_examples=80, deadline=None)
def test_pruned_walk_around_a_unit_that_is_not_least(p, p_after, s, s_after):
    agree_exchange(INT_EXCL, ExchangeQuery.exchange(p, s, p_after, s_after))
    agree_concrete_guard(INT_EXCL, p, s)  # before guard_holds, which shares its memo
    agree_guard(INT_EXCL, p, s)
    agree_valid_fragment(INT_EXCL, p)


def test_a_box_walk_visits_its_frames_in_carrier_order():
    # the two boxes interleave in carrier order, and the second holds the
    # unit (0, ε), which int's term order puts among the other frames
    spec = build_product("int-excl", [build_int(-2, 2), build_excl((tint(0),))])
    ints, excl = (term_order(part)[0] for part in spec.parts)
    boxes = [[ints[1::2], excl], [ints[::2], excl[:2]]]
    frames = {f for box in boxes for f in box_frames(spec, box)}
    walk, size = monoid_module._box_walk(spec, boxes)
    elems = carrier(spec)
    assert list(walk) == [(i, f) for i, f in enumerate(elems) if f in frames]
    assert size == len(elems) and spec.unit in frames


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


def agree_on_every_element(doc, exchanges=True):
    """Every relation on every element of a small custom protocol, on cold
    memos."""
    sp, live = load_protocol(doc)[0], load_protocol(doc)[0]
    elems, stored = carrier(sp.protocol), carrier(sp.storage)
    for p in elems:
        agree_valid_fragment(sp, p)
        for s in stored:
            agree_concrete_guard(live, p, s)
            agree_guard(sp, p, s)
            if exchanges:
                for p_after, s_after in itertools.product(elems, stored):
                    agree_exchange(sp, ExchangeQuery.exchange(p, s, p_after, s_after))


def test_bot_in_c_table_agrees_on_the_one_walk():
    sp, _ = load_protocol(BOT_IN_C)
    p, s = ttuple(term(EX0), term(EX1)), term(EX1)
    # the frame (ε, ex 1) completes p at (ex 0, ⊥)
    assert guard_holds(sp, p, s) == CheckResult(
        FAILS, ttuple(UNIT, term(EX1)), "completion stores ε, short of ex(1)", 2
    )
    agree_on_every_element(BOT_IN_C)


def test_a_walk_that_skips_bot_values_is_caught(monkeypatch):
    by_value = protocol_module._by_value
    monkeypatch.setattr(
        protocol_module, "_by_value",
        lambda part, x: {v: qs for v, qs in by_value(part, x).items() if v != BOT},
    )
    with pytest.raises(AssertionError):
        test_bot_in_c_table_agrees_on_the_one_walk()


def test_dropping_one_compatible_frame_is_caught(monkeypatch):
    box_walk = monoid_module._box_walk

    def drop_first(spec, boxes):
        walk, size = box_walk(spec, boxes)
        next(walk, None)
        return walk, size

    monkeypatch.setattr(monoid_module, "_box_walk", drop_first)
    with pytest.raises(AssertionError):
        agree_on_suite("protocol-rwlock")


def test_reading_c_off_the_carrier_is_caught(monkeypatch):
    completions = protocol_module._completions

    def carrier_only(sp, p):
        proto = sp.protocol
        return (
            box for box in completions(sp, p)
            if is_element(proto, proto.compose_fn(p, box_frames(proto, box)[0]))
        )

    monkeypatch.setattr(protocol_module, "_completions", carrier_only)
    with pytest.raises(AssertionError):
        test_a_completion_outside_the_carrier_is_walked()


def test_taking_the_first_failing_value_tuple_is_caught(monkeypatch):
    box_walk = monoid_module._box_walk

    def in_box_order(spec, boxes):
        boxes = list(boxes)
        walk, size = box_walk(spec, boxes)
        position = {frame: i for i, frame in walk}
        return ((position[frame], frame) for box in boxes
                for frame in box_frames(spec, box)), size

    monkeypatch.setattr(monoid_module, "_box_walk", in_box_order)
    # on int × excl the unit frame fails some guards that frames ranking
    # below it fail too
    with pytest.raises(AssertionError):
        agree_on_every_element(INT_EXCL_DOC, exchanges=False)


# ---------------------------------------------------------------------------
# The staged 𝒞 of the locks


def frozen_lock_complete(counts_ok):
    """The lock's 𝒞 as one predicate, as it was written before it was
    stated as stages, with the builder's ``counts_ok``."""

    def complete(p):
        if BOT in p[1]:
            return False
        c1, ep, e, spc, s = p[1]
        got = con_args(c1, "ex")
        if got is None:
            return False
        exc_t, rc_t, x = got[0][1]
        agn = con_args(s, "agn")
        return (
            counts_ok(rc_t, spc, agn, ep)
            and (ep != UNIT) + (e != UNIT) == exc_t[1]
            and (e != EX or s == UNIT)
            and (agn is None or agn[0] == x)
        )

    return complete


def frozen_counts_ok(rc, spc, agn, ep):
    return rc[1] == spc[1] + (agn[1][1] if agn else 0)


def frozen_multi_counts_ok(k):
    zero = tuple(tint(0) for _ in range(k))

    def counts_ok(rcs, spc, agn, ep):
        readers = agn[1][1] if agn else zero
        for i in range(k):
            if rcs[1][i][1] != spc[1][i][1] + readers[i][1]:
                return False
        checked = con_args(ep, "ex")
        return checked is None or not any(n[1] for n in readers[: checked[0][1]])

    return counts_ok


def lock_tuples(sp):
    """Every carrier tuple of a lock protocol, and each of them with a ⊥
    put in each part."""
    for c in itertools.product(*(term_order(part)[0] for part in sp.protocol.parts)):
        yield ttuple(*c)
        for j, x in enumerate(c):
            if x != BOT:
                yield ttuple(*c[:j], BOT, *c[j + 1:])


def assert_stages_are_the_frozen_complete(sp, frozen):
    for p in lock_tuples(sp):
        assert sp.complete(p) == frozen(p), pretty(p)


def with_stage(sp, j, stage):
    """``sp`` with stage j replaced, on a cold memo."""
    stages = sp.stages[:j] + (stage,) + sp.stages[j + 1:]
    return StorageProtocolSpec(sp.name, sp.protocol, sp.storage, None, sp.stored_of_fn, stages=stages)


def test_lock_stages_are_the_frozen_complete():
    frozen = frozen_lock_complete(frozen_counts_ok)
    assert_stages_are_the_frozen_complete(build_rwlock()[0], frozen)
    assert_stages_are_the_frozen_complete(
        build_rwlock_multi()[0], frozen_lock_complete(frozen_multi_counts_ok(2))
    )
    # a counter past rc_range: the fields value is outside the carrier
    sp, elems = build_rwlock(rc_range=(0, 1))
    pending = sp.protocol.compose_fn(elems.sh_pending(), elems.sh_pending())
    for p in (sp.protocol.compose_fn(elems.fields(False, 2, X0), pending), elems.fields(True, 3, X1)):
        assert not is_element(sp.protocol, p)
        for q in (sp.protocol.unit, elems.exc(), elems.exc_pending()):
            pq = sp.protocol.compose_fn(p, q)
            assert sp.complete(pq) == frozen(pq)
    assert sp.complete(sp.protocol.compose_fn(elems.fields(False, 2, X0), pending))


def test_a_stage_that_rejects_one_more_value_is_caught():
    sp = build_rwlock()[0]
    pending = sp.stages[3]
    mutant = with_stage(sp, 3, lambda c: pending(c) and c[3] != tint(1))
    with pytest.raises(AssertionError):
        assert_stages_are_the_frozen_complete(mutant, frozen_lock_complete(frozen_counts_ok))


def test_a_stage_that_reads_a_part_not_yet_bound_is_caught():
    sp = build_rwlock()[0]
    # the writer-excludes-readers check moved up to the writer's part
    exc_flag = sp.stages[2]
    mutant = with_stage(sp, 2, lambda c: exc_flag(c) and (c[2] != EX or c[4] == UNIT))
    # each stage is given only the parts bound so far, in 𝒞 and in the search
    with pytest.raises(IndexError):
        assert_stages_are_the_frozen_complete(mutant, frozen_lock_complete(frozen_counts_ok))
    with pytest.raises(IndexError):
        completion_boxes(mutant, RW_ELEMS.fields(True, 0, X0))


def ref_completion_boxes(sp, p):
    """The boxes of the complete value tuples, asking 𝒞 of every tuple of
    the product of the parts' value groups, in that product's order."""
    proto = sp.protocol
    groups = []
    for part, x in zip(monoid_module.axes(proto), monoid_module.components(proto, p)):
        by_value = {}
        for q in term_order(part)[0]:
            by_value.setdefault(part.compose_fn(x, q), []).append(q)
        groups.append(by_value)
    value = ttuple if proto.parts else (lambda v: v)
    return [
        [by_value[v] for by_value, v in zip(groups, c)]
        for c in itertools.product(*groups)
        if sp.complete(value(*c))
    ]


# a custom protocol on a P that is not a product: its 𝒞 table is asked of
# the whole state
INT_TABLE_DOC = {
    "name": "int-table",
    "protocol": {"kind": "int", "lo": -2, "hi": 3},
    "storage": {"kind": "nat", "limit": 2},
    "complete": {"table": [["int", 0], ["int", 2], ["int", 3]]},
    "stored_of": {"table": [[["int", 0], ["int", 0]], [["int", 2], ["int", 1]],
                            [["int", 3], ["int", 2]]]},
}


def assert_staged_boxes_in_product_order():
    """On cold memos: the staged search yields the tuple loop's boxes in
    its order, and valid-fragment takes the first of them. The locks and
    the custom tables on a product state stages; the others give 𝒞 as one
    function, the hash table's view on a product."""
    rw, rw_elems = build_rwlock((X0, X1))
    rwm, rwm_elems = build_rwlock_multi((X0, X1))
    compose = rw.protocol.compose_fn
    cases = [
        (rw, [rw.protocol.unit, rw_elems.fields(False, 0, X0), rw_elems.exc(),
              compose(rw_elems.sh(X1), rw_elems.sh_pending())]),
        (rwm, [rwm.protocol.unit, rwm_elems.exc_pending(1),
               *outside_fragments(rwm_elems, lambda *ps: reduce(rwm.protocol.compose_fn, ps))]),
        (load_protocol(INT_EXCL_DOC)[0], None),
        (load_protocol(BOT_IN_C)[0], None),
        (build_fractional(4, 2), None),
        (build_counting()[0], None),
        (build_hashtable_protocol(HASH, (tint(10),))[0], None),
        (load_protocol(INT_TABLE_DOC)[0], None),
    ]
    for sp, fragments in cases:
        assert bool(sp.stages) == (sp.name in ("rwlock", "rwlock-multi", "int-excl", "bot-in-c"))
        for p in fragments or carrier(sp.protocol):
            want = ref_completion_boxes(sp, p)
            assert next(protocol_module._completions(sp, p), None) == (want[0] if want else None)
            assert list(completion_boxes(sp, p)) == want, (sp.name, pretty(p))
            assert valid_fragment(sp, p) == bool(want)


def test_staged_boxes_come_in_product_order():
    assert_staged_boxes_in_product_order()


def test_a_replaced_complete_fn_spec_searches_the_same():
    # the stages the search reads off complete_fn are not a field that
    # replace passes on
    sp = build_hashtable_protocol(HASH, (tint(10),))[0]
    copy = sp.replace(name="copy")
    assert copy.complete_fn is sp.complete_fn and not copy.stages
    for p in carrier(sp.protocol)[:60]:
        assert list(completion_boxes(copy, p)) == ref_completion_boxes(sp, p)


def test_a_replaced_spec_does_not_share_its_cache():
    # a copy with another 𝒞 must not serve the original's memoised verdicts
    sp = build_fractional(4, 2)
    half = tfrac(1, 2)
    assert valid_fragment(sp, half)
    never = sp.replace(complete_fn=lambda p: False)
    assert not valid_fragment(never, half)
    assert completion_boxes(never, half) == ()
    total = sp.protocol.replace(name="copy")
    assert total._cache == {} and sp.protocol._cache


def test_a_search_out_of_product_order_is_caught(monkeypatch):
    staged = protocol_module._staged_boxes

    def last_part_reversed(stages, groups, j, prefix):
        if j == 0:
            groups = groups[:-1] + [dict(reversed(groups[-1].items()))]
        return staged(stages, groups, j, prefix)

    monkeypatch.setattr(protocol_module, "_staged_boxes", last_part_reversed)
    with pytest.raises(AssertionError):
        assert_staged_boxes_in_product_order()


def test_staged_search_evaluates_few_stages(monkeypatch):
    """Exploring rwlock-exc in rule mode, the tuple loop asked 𝒞 5,948
    times, and 74 asks held. The staged search evaluates at most a tenth
    as many stages."""
    calls = []
    staged = protocol_module._staged_boxes

    def counted(stage):
        def stage_counted(c):
            calls.append(len(c))
            return stage(c)
        return stage_counted

    def counting(stages, groups, j, prefix):
        if j == 0:
            stages = tuple(map(counted, stages))
        return staged(stages, groups, j, prefix)

    monkeypatch.setattr(protocol_module, "_staged_boxes", counting)
    scenario = scenario_from_json(load_demo_document("rwlock-exc.scenario.json"))
    assert explore(scenario, mode="rule").states == 240
    assert 0 < len(calls) <= 5_948 // 10
    assert calls.count(5) < len(calls)  # stages before the last prune


# ---------------------------------------------------------------------------
# Guard laws: a second oracle, not through the per-frame bodies


def assert_guard_weakens(sp, p, s, s_weaker):
    """p ↝ s and s′ ≼ s ⟹ p ↝ s′."""
    if leq(sp.storage, s_weaker, s) and guard_holds(sp, p, s).ok:
        assert guard_holds(sp, p, s_weaker).ok, (sp.name, pretty(p), pretty(s), pretty(s_weaker))


def assert_guard_strengthens(sp, p, r, s):
    """p ↝ s ⟹ p·r ↝ s. On a bounded P a frame q can complete p·r while
    r·q, the frame that would complete p the same way, is not enumerated;
    only there may it fail, and such a frame is shown."""
    if not guard_holds(sp, p, s).ok:
        return
    pr = sp.protocol.compose_fn(p, r)
    got = guard_holds(sp, pr, s)
    if not got.ok:
        assert recheck_guard_witness(sp, pr, s, got.witness)
        rq = sp.protocol.compose_fn(r, got.witness)
        assert sp.protocol.bounded and not is_element(sp.protocol, rq), (
            sp.name, pretty(p), pretty(r), pretty(s), pretty(got.witness)
        )


def assert_guard_covers_a_complete_state(sp, p, s):
    """𝒞(p) ∧ p ↝ s ⟹ s ≼ 𝒮(p): ε is enumerated and completes p. Unlike
    the two laws above, this one reads 𝒞 directly, so it also holds a
    search to the 𝒞 of the protocol: weakening and strengthening hold
    for every 𝒞, and so for a search that drops some values."""
    if sp.complete(p) and guard_holds(sp, p, s).ok:
        assert leq(sp.storage, s, sp.stored(p)), (sp.name, pretty(p), pretty(s))


LAW_FRACTIONAL = build_fractional(den_bound=6, max_value=2, nat_limit=4)
LAW_COUNTING = build_counting(r_range=(-2, 2), c_max=2, nat_limit=4)[0]
LAW_CASES = {
    "rwlock": (RW, rwlock_fragments(), RW_PIECES),
    "fractional": (LAW_FRACTIONAL,) + (st.sampled_from(carrier(LAW_FRACTIONAL.protocol)),) * 2,
    "counting": (LAW_COUNTING,) + (st.sampled_from(carrier(LAW_COUNTING.protocol)),) * 2,
}


@st.composite
def guard_law_cases(draw):
    sp, fragments, pieces = LAW_CASES[draw(st.sampled_from(sorted(LAW_CASES)))]
    stored = st.sampled_from(carrier(sp.storage))
    return sp, draw(fragments), draw(pieces), draw(stored), draw(stored)


@given(guard_law_cases())
@settings(max_examples=60, deadline=None)
def test_guard_weakening_and_strengthening(case):
    sp, p, r, s, s_other = case
    assert_guard_weakens(sp, p, s, s_other)
    assert_guard_strengthens(sp, p, r, s)
    assert_guard_covers_a_complete_state(sp, p, s)


def assert_exchange_frames(sp, q, r):
    """(p, s) ⇝⇝ (p′, s′) ⟹ (p·r, s) ⇝⇝ (p′·r, s′). The framed body at a
    frame q is the body at r·q, so, as for strengthening, on a bounded P
    it may fail only where r·q is not enumerated, and such a frame is
    shown."""
    if not exchange_holds(sp, q).ok:
        return
    compose = sp.protocol.compose_fn
    framed = ExchangeQuery(compose(q.p, r), q.s, compose(q.p_after, r), q.s_after, q.kind)
    got = exchange_holds(sp, framed)
    if not got.ok:
        assert recheck_exchange_witness(sp, framed, got.witness)
        rq = compose(r, got.witness)
        assert sp.protocol.bounded and not is_element(sp.protocol, rq), (
            sp.name, pretty(q.p), pretty(q.p_after), pretty(r), pretty(got.witness)
        )


@st.composite
def exchange_law_cases(draw):
    """An exchange on a LAW_CASES protocol, at times one that keeps its
    fragment, and a frame piece r."""
    sp, fragments, pieces = LAW_CASES[draw(st.sampled_from(sorted(LAW_CASES)))]
    stored = st.sampled_from(carrier(sp.storage))
    p = draw(fragments)
    p_after = draw(st.one_of(st.just(p), fragments))
    return sp, ExchangeQuery(p, draw(stored), p_after, draw(stored)), draw(pieces)


@given(exchange_law_cases())
@settings(max_examples=40, deadline=None)
def test_exchange_framing(case):
    assert_exchange_frames(*case)


def assert_guard_laws_on_lock_pieces():
    """The three laws over a fixed set of lock fragments, on a cold memo."""
    rw, elems = build_rwlock((X0, X1))
    compose = rw.protocol.compose_fn
    pieces = [elems.fields(exc, rc, x) for exc in (False, True) for rc in (0, 1, 2) for x in (X0,)]
    pieces += [elems.exc_pending(), elems.exc(), elems.sh_pending(), elems.sh(X0)]
    fragments = pieces + [compose(a, b) for a in pieces for b in pieces]
    for p in fragments:
        for s in carrier(rw.storage):
            assert_guard_covers_a_complete_state(rw, p, s)
            for r in pieces:
                assert_guard_strengthens(rw, p, r, s)
            for s_weaker in carrier(rw.storage):
                assert_guard_weakens(rw, p, s, s_weaker)


def test_guard_laws_hold_on_lock_fragments():
    assert_guard_laws_on_lock_pieces()


def test_a_search_that_rejects_one_more_value_breaks_the_guard_laws(monkeypatch):
    staged = protocol_module._staged_boxes

    def one_pending_rejected(stages, groups, j, prefix):
        if j == 0:
            pending = stages[3]
            stages = stages[:3] + (lambda c: pending(c) and c[3] != tint(1),) + stages[4:]
        return staged(stages, groups, j, prefix)

    monkeypatch.setattr(protocol_module, "_staged_boxes", one_pending_rejected)
    with pytest.raises(AssertionError):
        assert_guard_laws_on_lock_pieces()
    with pytest.raises(AssertionError):
        agree_on_suite("protocol-rwlock")
