"""The shared frame quantifier against brute-force reference loops.

``monoid.first_counterexample`` replaced seven hand-written "for each
frame in the carrier" loops. Each of them is kept below as the reference,
as it was written, except that memoisation is dropped (every call
enumerates) and that the references call each other instead of the
library (``ref_leq`` for ``leq``, ``ref_exchange_body_at`` for the
exchange body). The new path must return the same verdict, witness,
reason and frame count on the shipped relation suites, on the acceptance
cross-validation pairs, and on elements that hypothesis draws over small
builtins.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from guardcheck.demos import load_demo_document
from guardcheck.formats import load_protocol, load_queries
from guardcheck.ghost import GhostLedger, InstanceState, OpenGuardAction, apply_action
from guardcheck.library import (
    HashFunctionSpec,
    as_total,
    build_agn,
    build_counting,
    build_excl,
    build_forever,
    build_fractional,
    build_hashtable_protocol,
    build_nat,
    build_rwlock,
    build_rwlock_multi,
    pcm_as_protocol,
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
    leq_witness,
)
from guardcheck.protocol import (
    ExchangeQuery,
    StorageProtocolSpec,
    exchange_holds,
    guard_holds,
    recheck_exchange_witness,
    recheck_guard_witness,
    valid_fragment,
)
from guardcheck.terms import BOT, UNIT, pretty, tint, tsym, ttuple
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


@pytest.mark.parametrize("demo", ["protocol-frac", "protocol-count", "protocol-rwlock"])
def test_shipped_relation_suites_agree(demo):
    protocol_doc = load_demo_document(f"{demo}.protocol.json")
    sp, named = load_protocol(protocol_doc)
    live, _ = load_protocol(protocol_doc)  # cold caches for the concrete guard
    relations = load_demo_document(f"{demo}.relations.json")
    queries = load_queries(relations, named, sp.protocol.compose_fn)
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
MONOIDS = {"excl": EXCL, "agn": AGN, "nat": NAT, "counting": COUNTING.protocol}
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


@given(monoid_and_elements())
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
