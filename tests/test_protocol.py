"""Storage-protocol relations against the worked fractional, counting and
forever constructions, plus the definitional cross-checks, and the
𝒞 ⟹ 𝒱∘𝒮 check of ``check_wellformed`` against a loop over the carrier."""

import pytest

from guardcheck.formats import load_protocol
from guardcheck.library import (
    build_counting,
    build_excl,
    build_forever,
    build_frac,
    build_fractional,
    build_rwlock,
    build_rwlock_multi,
    build_trivial,
    ex,
    pcm_as_protocol,
)
from guardcheck.monoid import (
    FAILS,
    ElementEnumerator,
    LawCheck,
    MonoidSpec,
    carrier,
    frame_preserving_update,
)
from guardcheck.protocol import (
    ExchangeQuery,
    StorageDomainError,
    StorageProtocolSpec,
    check_wellformed,
    exchange_holds,
    guard_holds,
    recheck_exchange_witness,
    recheck_guard_witness,
    valid_fragment,
)
from guardcheck.terms import BOT, UNIT, tfrac, tint, ttuple

FRAC = build_fractional()
COUNTING, CELEMS = build_counting()
FOREVER = build_forever()


class TestFractional:
    def test_complete_exactly_on_integers(self):
        assert FRAC.complete(tfrac(2))
        assert not FRAC.complete(tfrac(3, 2))

    def test_withdraw_whole_share(self):
        q = ExchangeQuery.withdraw(tfrac(1), tfrac(0), tint(1), tint(0))
        assert exchange_holds(FRAC, q).ok

    def test_deposit_whole_share(self):
        q = ExchangeQuery.deposit(tfrac(0), tint(1), tfrac(1), tint(0))
        assert exchange_holds(FRAC, q).ok

    def test_reflexive_exchange(self):
        q = ExchangeQuery.exchange(tfrac(1, 3), tint(0), tfrac(1, 3), tint(0))
        assert exchange_holds(FRAC, q).ok

    def test_guard_any_positive_fraction(self):
        for q in (tfrac(1, 12), tfrac(1, 4), tfrac(1, 3), tfrac(1, 2), tfrac(1)):
            assert guard_holds(FRAC, q, tint(1)).ok

    def test_guard_zero_fails(self):
        r = guard_holds(FRAC, tfrac(0), tint(1))
        assert r.verdict == FAILS
        assert recheck_guard_witness(FRAC, tfrac(0), tint(1), r.witness)

    def test_half_share_cannot_withdraw(self):
        q = ExchangeQuery.withdraw(tfrac(1, 2), tfrac(0), tint(1), tint(0))
        r = exchange_holds(FRAC, q)
        assert r.verdict == FAILS
        assert r.witness == tfrac(1, 2)
        assert recheck_exchange_witness(FRAC, q, r.witness)

    def test_wellformed(self):
        assert check_wellformed(FRAC).ok


class TestCounting:
    def test_ref_cancels_counter(self):
        # (-1,0) · (r,1) = (r-1,1)
        comp = COUNTING.protocol.compose_fn
        assert comp(CELEMS.ref(), CELEMS.counter(3)) == CELEMS.counter(2)

    def test_deposit_and_withdraw(self):
        q1 = ExchangeQuery.exchange(CELEMS.element(0, 0), tint(1), CELEMS.element(0, 1), tint(0))
        q2 = ExchangeQuery.exchange(CELEMS.element(0, 1), tint(0), CELEMS.element(0, 0), tint(1))
        assert exchange_holds(COUNTING, q1).ok
        assert exchange_holds(COUNTING, q2).ok

    def test_ref_guards_one_item(self):
        assert guard_holds(COUNTING, CELEMS.ref(), tint(1)).ok

    def test_carrier_constraint_is_essential(self):
        assert CELEMS.element(-1, 0) == ttuple(tint(-1), tint(0))
        with pytest.raises(ValueError):
            CELEMS.element(1, 0)
        dropped, delems = build_counting(drop_carrier_constraint=True)
        r = guard_holds(dropped, delems.ref(), tint(1))
        assert r.verdict == FAILS
        assert r.witness == ttuple(tint(1), tint(0))
        assert recheck_guard_witness(dropped, delems.ref(), tint(1), r.witness)

    def test_laws_pass_even_without_constraint(self):
        dropped, _ = build_counting(drop_carrier_constraint=True)
        assert check_wellformed(dropped).ok  # only the guard above distinguishes them


class TestForever:
    def test_guard_holds_forever(self):
        assert guard_holds(FOREVER, UNIT, ex(tint(1))).verdict == "holds"

    def test_withdraw_fails(self):
        q = ExchangeQuery.withdraw(UNIT, UNIT, ex(tint(1)), UNIT)
        assert exchange_holds(FOREVER, q).verdict == FAILS

    def test_trivial_update(self):
        assert exchange_holds(FOREVER, ExchangeQuery.update(UNIT, UNIT, UNIT)).ok


def test_wellformed_reports_bad_storage_map():
    # a protocol that stores the conflict element at a complete state
    storage = build_excl((tint(1),))
    protocol = build_trivial("one-point")
    bad = StorageProtocolSpec("bad", protocol, storage, lambda p: True, lambda p: BOT)
    report = check_wellformed(bad)
    assert not report.ok
    names = [c.law for c in report.extra]
    assert any("complete-implies-valid-storage" in n for n in names)


def test_wellformed_reports_a_protocol_monoid_that_is_not_total():
    # shares above 1 are invalid: the witness is the first one in carrier
    # order, and the check counts the carrier up to it
    frac = build_frac(den_bound=2, max_value=2)
    partial = MonoidSpec(
        "partial-frac", frac.unit, frac.compose_fn, lambda t: t[1] <= t[2], frac.enumerator
    )
    sp = StorageProtocolSpec("partial", partial, build_trivial("one-point"),
                             lambda p: False, lambda p: UNIT)
    check = next(c for c in check_wellformed(sp).extra if c.law == "protocol-monoid-total")
    elements = carrier(partial)
    assert elements == (tfrac(0), tfrac(1, 2), tfrac(1), tfrac(3, 2), tfrac(2))
    assert (check.ok, check.checked, check.witness) == (False, 4, (tfrac(3, 2),))


def test_stored_outside_complete_raises_domain_error():
    with pytest.raises(StorageDomainError):
        FRAC.stored(tfrac(1, 2))


def test_query_shape_validation():
    with pytest.raises(ValueError):
        ExchangeQuery(tfrac(0), tint(1), tfrac(1), tint(1), "deposit").check_shape(FRAC)


def test_valid_fragment_examples():
    assert valid_fragment(FRAC, tfrac(1, 2))
    assert valid_fragment(COUNTING, CELEMS.ref())


def test_guard_of_unit_holds_for_any_fragment():
    for p in carrier(FRAC.protocol)[:6]:
        assert guard_holds(FRAC, p, FRAC.storage.unit).ok
    for p in carrier(COUNTING.protocol)[:6]:
        assert guard_holds(COUNTING, p, COUNTING.storage.unit).ok


def test_specializations_equal_padded_exchange():
    # deposit/withdraw/update are definitionally ε-padded exchanges
    cases = [
        ExchangeQuery.deposit(tfrac(0), tint(1), tfrac(1), tint(0)),
        ExchangeQuery.withdraw(tfrac(1), tfrac(0), tint(1), tint(0)),
        ExchangeQuery.update(tfrac(1, 2), tfrac(1, 2), tint(0)),
    ]
    for q in cases:
        padded = ExchangeQuery.exchange(q.p, q.s, q.p_after, q.s_after)
        assert exchange_holds(FRAC, q).ok == exchange_holds(FRAC, padded).ok


def _paired_monoid(sp: StorageProtocolSpec) -> MonoidSpec:
    """P×S with validity 𝒞(p) ∧ s = 𝒮(p): an independent route to the
    ε-storage exchange via the plain frame-preserving update."""
    comp_p, comp_s = sp.protocol.compose_fn, sp.storage.compose_fn

    def compose(a, b):
        return ttuple(comp_p(a[1][0], b[1][0]), comp_s(a[1][1], b[1][1]))

    def valid(t):
        p, s = t[1]
        return sp.complete(p) and s == sp.stored(p)

    def generate():
        yield ttuple(sp.protocol.unit, sp.storage.unit)
        for p in carrier(sp.protocol):
            for s in carrier(sp.storage):
                if p == sp.protocol.unit and s == sp.storage.unit:
                    continue
                yield ttuple(p, s)

    return MonoidSpec(
        f"{sp.name}-paired",
        ttuple(sp.protocol.unit, sp.storage.unit),
        compose,
        valid,
        ElementEnumerator("bounded", generate),
    )


@pytest.mark.parametrize("sp", [FRAC, COUNTING, FOREVER], ids=lambda s: s.name)
def test_update_agrees_with_paired_fpu(sp):
    paired = _paired_monoid(sp)
    prefix = carrier(sp.protocol)[:8]
    eps = sp.storage.unit
    for p in prefix:
        for p2 in prefix:
            ours = exchange_holds(sp, ExchangeQuery.update(p, p2, eps)).ok
            theirs = frame_preserving_update(
                paired, ttuple(p, eps), ttuple(p2, eps)
            ).ok
            assert ours == theirs, (p, p2)


def test_pcm_as_protocol_matches_fpu():
    # with trivial storage, exchange specializes to the PCM update
    excl = build_excl((tint(0), tint(1)))
    sp = pcm_as_protocol(excl)
    eps = sp.storage.unit
    for a in carrier(excl):
        for b in carrier(excl):
            assert (
                exchange_holds(sp, ExchangeQuery.update(a, b, eps)).ok
                == frame_preserving_update(excl, a, b).ok
            )


def test_a_spec_states_complete_once():
    protocol, storage = build_rwlock()[0].protocol, build_excl((tint(1),))
    stages = (lambda c: True,) * len(protocol.parts)
    with pytest.raises(ValueError, match="exactly one"):
        StorageProtocolSpec("both", protocol, storage, lambda p: True, lambda p: UNIT, stages)
    with pytest.raises(ValueError, match="exactly one"):
        StorageProtocolSpec("neither", protocol, storage, None, lambda p: UNIT)
    with pytest.raises(ValueError, match="4 stages for 5 protocol parts"):
        StorageProtocolSpec("short", protocol, storage, None, lambda p: UNIT, stages[1:])
    with pytest.raises(ValueError, match="1 stages for 0 protocol parts"):
        StorageProtocolSpec("leaf", FRAC.protocol, storage, None, lambda p: UNIT, stages[:1])


def ref_complete_implies_valid_storage(sp) -> LawCheck:
    """The 𝒞 ⟹ 𝒱∘𝒮 check as a loop over the carrier, asking 𝒞 of each
    element."""
    witness, err, n = None, "", 0
    for p in carrier(sp.protocol):
        if not sp.complete(p):
            continue
        n += 1
        try:
            if not sp.storage.valid_fn(sp.stored(p)):
                witness = (p,)
                break
        except StorageDomainError as exc:
            witness, err = (p,), str(exc)
            break
    name = "complete-implies-valid-storage" + (" (domain error)" if err else "")
    return LawCheck(name, witness is None, not sp.protocol.bounded, n, witness)


def _no_unit_protocol(stored: list) -> dict:
    """A custom protocol on excl × a table monoid where ε·a = b, so the
    unit law fails; 𝒞 lists three tuples, storing ``stored`` in turn, and
    holds (ε, b) but not (ε, a)."""
    a, b, ex0 = ["sym", "a"], ["sym", "b"], ["con", "ex", [["int", 0]]]
    complete = [["tuple", pair] for pair in ([["unit"], b], [ex0, a], [ex0, b])]
    return {
        "name": "no-unit",
        "protocol": {"kind": "product", "total": True, "parts": [
            {"kind": "excl", "values": [["int", 0]]},
            {"kind": "table", "unit": ["unit"], "elements": [["unit"], a, b], "compose": [
                [["unit"], ["unit"], ["unit"]], [["unit"], a, b], [["unit"], b, b],
                [a, a, a], [a, b, b], [b, b, b],
            ]},
        ]},
        "storage": {"kind": "excl", "values": [["int", 1]]},
        "complete": {"table": complete},
        "stored_of": {"table": [[p, t] for p, t in zip(complete, stored)]},
    }


def test_complete_implies_valid_storage_walks_the_complete_elements():
    ex1 = ["con", "ex", [["int", 1]]]
    protocols = [
        FRAC, COUNTING, FOREVER, build_rwlock()[0], build_rwlock_multi()[0],
        load_protocol(_no_unit_protocol([ex1, ["unit"], ex1]))[0],
        load_protocol(_no_unit_protocol([ex1, ex1, ["bot"]]))[0],
        StorageProtocolSpec("bad", build_trivial("one-point"), build_excl((tint(1),)),
                            lambda p: True, lambda p: BOT),
    ]
    for sp in protocols:
        got = next(c for c in check_wellformed(sp).extra if c.law.startswith("complete-implies"))
        assert got == ref_complete_implies_valid_storage(sp), sp.name
    # the failing one reports its witness after the complete elements before it
    assert (got.ok, got.checked) == (False, 1)
    failing = load_protocol(_no_unit_protocol([ex1, ex1, ["bot"]]))[0]
    got = next(c for c in check_wellformed(failing).extra if c.law.startswith("complete-implies"))
    assert not got.ok and got.checked > 1
