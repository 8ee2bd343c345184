"""Built-in constructions: composition tables, completeness predicates,
and the relation families each protocol is designed to satisfy."""

from fractions import Fraction

import pytest

from guardcheck.library import (
    NONE,
    HashFunctionSpec,
    HashTableElems,
    agn,
    agnvec,
    build_agn,
    build_agnvec,
    build_excl,
    build_counting,
    build_finmap,
    build_frac,
    build_fractional_memory,
    build_hashtable_monoid,
    build_hashtable_protocol,
    build_int,
    build_nat,
    build_rwlock,
    build_rwlock_multi,
    ex,
    some,
)
from guardcheck.formats import load_protocols
from guardcheck.monoid import (
    FAILS,
    and_premise,
    carrier,
    compose,
    frame_preserving_update,
)
from guardcheck.protocol import (
    ExchangeQuery,
    check_wellformed,
    exchange_holds,
    guard_holds,
    valid_fragment,
)
from guardcheck.terms import BOT, UNIT, tbool, tcon, tfrac, tint, tmap, tsym, ttuple

X0, X1 = tsym("x0"), tsym("x1")


class TestExcl:
    def test_carrier_single_value(self):
        spec = build_excl((tint(1),))
        assert set(carrier(spec)) == {UNIT, ex(tint(1)), BOT}

    def test_bottom_invalid_and_absorbing(self):
        spec = build_excl((tint(1),))
        assert not spec.valid_fn(BOT)
        assert compose(spec, BOT, ex(tint(1))) == BOT

    def test_empty_base_set(self):
        spec = build_excl(())
        assert set(carrier(spec)) == {UNIT, BOT}


class TestAgreement:
    def test_counts_add_on_agreement(self):
        spec = build_agn((X0, X1))
        assert compose(spec, agn(X0, 1), agn(X0, 2)) == agn(X0, 3)

    def test_disagreement_is_conflict(self):
        spec = build_agn((X0, X1))
        assert compose(spec, agn(X0, 1), agn(X1, 1)) == BOT

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            agn(X0, 0)

    def test_vector_counts_add_elementwise(self):
        from guardcheck.library import agnvec

        spec = build_agnvec((X0, X1), 2)
        got = compose(spec, agnvec(X0, (1, 0)), agnvec(X0, (0, 1)))
        assert got == agnvec(X0, (1, 1))
        # brute-force check of the elementwise rule over the carrier prefix
        for a in carrier(spec)[:12]:
            for b in carrier(spec)[:12]:
                got = compose(spec, a, b)
                if a[0] == "con" and b[0] == "con" and a[2][0] == b[2][0]:
                    want = tuple(
                        u[1] + v[1] for u, v in zip(a[2][1][1], b[2][1][1])
                    )
                    assert got[2][1][1] == tuple(tint(n) for n in want)

    def test_vector_zero_rejected(self):
        from guardcheck.library import agnvec

        with pytest.raises(ValueError):
            agnvec(X0, (0, 0))


class TestFracMonoid:
    def test_split_is_addition(self):
        spec = build_frac()
        assert compose(spec, tfrac(1, 3), tfrac(1, 6)) == tfrac(1, 2)

    def test_carrier_is_the_fraction_deduplicated_list(self):
        # the carrier as built with Fraction: each value at its first (num, den)
        seen, elems = {Fraction(0)}, []
        for den in range(1, 13):
            for num in range(1, 4 * den + 1):
                if Fraction(num, den) not in seen:
                    seen.add(Fraction(num, den))
                    elems.append(tfrac(num, den))
        by_value = sorted(elems, key=lambda t: (Fraction(t[1], t[2]), t[2]))
        assert carrier(build_frac(12, 4)) == (tfrac(0), *by_value)
        assert len(by_value) == 4 * 46  # 46 reduced fractions in (0, 1] with den <= 12

    def test_counting_split_identity(self):
        # a counter at n equals a counter at n+1 plus one reference
        from guardcheck.library import build_counting

        sp, elems = build_counting()
        comp = sp.protocol.compose_fn
        for n in (-1, 0, 2):
            assert comp(elems.counter(n + 1), elems.ref()) == elems.counter(n)


RW, RWE = build_rwlock((X0, X1))


def _c(*parts):
    out = parts[0]
    for p in parts[1:]:
        out = RW.protocol.compose_fn(out, p)
    return out


class TestRwLockCompleteness:
    def test_idle_state_complete(self):
        assert RW.complete(RWE.fields(False, 0, X0))

    def test_exc_token_needs_flag(self):
        assert not RW.complete(_c(RWE.fields(False, 0, X0), RWE.exc()))

    def test_reader_counts_must_match(self):
        assert RW.complete(_c(RWE.fields(False, 1, X0), RWE.sh(X0)))
        assert not RW.complete(_c(RWE.fields(False, 2, X0), RWE.sh(X0)))

    def test_reader_value_must_agree(self):
        assert not RW.complete(_c(RWE.fields(False, 1, X0), RWE.sh(X1)))

    def test_stored_follows_exc_token(self):
        assert RW.stored(RWE.fields(False, 0, X0)) == ex(X0)
        held = _c(RWE.fields(True, 0, X0), RWE.exc())
        assert RW.stored(held) == UNIT


class TestRwLockRelations:
    """The full displayed list: five updates, one withdraw, one deposit,
    one guard — checked at several field instances."""

    @pytest.mark.parametrize("rc", [0, 1, 2])
    @pytest.mark.parametrize("x", [X0, X1])
    def test_update_exc_begin(self, rc, x):
        q = ExchangeQuery.update(
            RWE.fields(False, rc, x), _c(RWE.fields(True, rc, x), RWE.exc_pending()), UNIT
        )
        assert exchange_holds(RW, q).ok

    @pytest.mark.parametrize("rc", [0, 1])
    def test_update_shared_begin(self, rc):
        q = ExchangeQuery.update(
            RWE.fields(False, rc, X0),
            _c(RWE.fields(False, rc + 1, X0), RWE.sh_pending()),
            UNIT,
        )
        assert exchange_holds(RW, q).ok

    def test_update_shared_acquire(self):
        q = ExchangeQuery.update(
            _c(RWE.fields(False, 1, X0), RWE.sh_pending()),
            _c(RWE.fields(False, 1, X0), RWE.sh(X0)),
            UNIT,
        )
        assert exchange_holds(RW, q).ok

    def test_update_shared_release(self):
        q = ExchangeQuery.update(
            _c(RWE.fields(False, 1, X0), RWE.sh(X0)), RWE.fields(False, 0, X0), UNIT
        )
        assert exchange_holds(RW, q).ok

    def test_update_shared_retry(self):
        q = ExchangeQuery.update(
            _c(RWE.fields(True, 1, X0), RWE.sh_pending()), RWE.fields(True, 0, X0), UNIT
        )
        assert exchange_holds(RW, q).ok

    def test_withdraw_on_zero_count(self):
        q = ExchangeQuery.withdraw(
            _c(RWE.fields(True, 0, X0), RWE.exc_pending()),
            _c(RWE.fields(True, 0, X0), RWE.exc()),
            ex(X0),
            UNIT,
        )
        assert exchange_holds(RW, q).ok

    def test_deposit_restores_content(self):
        q = ExchangeQuery.deposit(
            _c(RWE.fields(True, 0, X1), RWE.exc()), ex(X0), RWE.fields(False, 0, X0), UNIT
        )
        assert exchange_holds(RW, q).ok

    def test_guard_reader_token(self):
        assert guard_holds(RW, RWE.sh(X0), ex(X0)).ok

    # -- systematically perturbed variants must fail with a witness

    def test_perturbed_rc_off_by_one(self):
        q = ExchangeQuery.update(
            RWE.fields(False, 0, X0), _c(RWE.fields(True, 1, X0), RWE.exc_pending()), UNIT
        )
        r = exchange_holds(RW, q)
        assert r.verdict == FAILS and r.witness is not None

    def test_perturbed_withdraw_with_readers(self):
        q = ExchangeQuery.withdraw(
            _c(RWE.fields(True, 1, X0), RWE.exc_pending()),
            _c(RWE.fields(True, 1, X0), RWE.exc()),
            ex(X0),
            UNIT,
        )
        assert exchange_holds(RW, q).verdict == FAILS

    def test_perturbed_guard_from_pending(self):
        r = guard_holds(RW, RWE.sh_pending(), ex(X0))
        assert r.verdict == FAILS

    def test_perturbed_swapped_flag(self):
        q = ExchangeQuery.update(
            RWE.fields(True, 0, X0), _c(RWE.fields(False, 0, X0), RWE.exc_pending()), UNIT
        )
        assert exchange_holds(RW, q).verdict == FAILS


class TestRwLockFragments:
    def test_two_exc_tokens_uncompletable(self):
        assert not valid_fragment(RW, _c(RWE.exc(), RWE.exc()))

    def test_unit_completable(self):
        assert valid_fragment(RW, ttuple(UNIT, UNIT, UNIT, tint(0), UNIT))

    def test_disagreeing_readers_uncompletable(self):
        assert not valid_fragment(RW, _c(RWE.sh(X0), RWE.sh(X1)))


RWM, RWME = build_rwlock_multi((X0, X1), 2)


def _cm(*parts):
    out = parts[0]
    for p in parts[1:]:
        out = RWM.protocol.compose_fn(out, p)
    return out


class TestRwLockMulti:
    def test_wellformed(self):
        assert check_wellformed(RWM).ok

    def test_exc_begin(self):
        q = ExchangeQuery.update(
            RWME.fields(False, (0, 0), X0),
            _cm(RWME.fields(True, (0, 0), X0), RWME.exc_pending(0)),
            UNIT,
        )
        assert exchange_holds(RWM, q).ok

    def test_exc_progress_requires_zero(self):
        good = ExchangeQuery.update(
            _cm(RWME.fields(True, (0, 1), X0), RWME.exc_pending(0)),
            _cm(RWME.fields(True, (0, 1), X0), RWME.exc_pending(1)),
            UNIT,
        )
        assert exchange_holds(RWM, good).ok
        bad = ExchangeQuery.update(
            _cm(RWME.fields(True, (1, 0), X0), RWME.exc_pending(0)),
            _cm(RWME.fields(True, (1, 0), X0), RWME.exc_pending(1)),
            UNIT,
        )
        assert exchange_holds(RWM, bad).verdict == FAILS

    def test_exc_acquire_at_k(self):
        q = ExchangeQuery.withdraw(
            _cm(RWME.fields(True, (0, 0), X0), RWME.exc_pending(2)),
            _cm(RWME.fields(True, (0, 0), X0), RWME.exc()),
            ex(X0),
            UNIT,
        )
        assert exchange_holds(RWM, q).ok

    def test_shared_on_distinct_counters(self):
        q = ExchangeQuery.update(
            _cm(RWME.fields(False, (1, 0), X0), RWME.sh_pending(0)),
            _cm(RWME.fields(False, (1, 0), X0), RWME.sh(0, X0)),
            UNIT,
        )
        assert exchange_holds(RWM, q).ok

    def test_shared_guard(self):
        assert guard_holds(RWM, RWME.sh(1, X0), ex(X0)).ok


# spelt-out lock terms
F, T, U, I, EX = tbool(False), tbool(True), UNIT, tint, tcon("ex")


class TestRwLockEncodings:
    """One element class writes both locks. The terms are spelt out here,
    so a change to how a lock writes its counters or tokens fails: the
    single lock writes counters as an int and the pending-writer token as
    EX, the multi-counter lock (also with one counter) a tuple and ex(j)."""

    @staticmethod
    def named(elems, name, *args):
        return elems.constructors[name](list(args))

    def test_single_lock(self):
        _, e = build_rwlock((X0, X1))
        fields = ttuple(ex(ttuple(F, I(1), X0)), U, U, I(0), U)
        assert e.fields(False, 1, X0) == e.fields(False, (1,), X0) == fields
        assert self.named(e, "fields", F, I(1), X0) == fields
        pending_w = ttuple(U, EX, U, I(0), U)
        assert e.exc_pending() == self.named(e, "excPending") == pending_w
        exc = ttuple(U, U, EX, I(0), U)
        assert e.exc() == self.named(e, "exc") == exc
        pending_r = ttuple(U, U, U, I(1), U)
        assert e.sh_pending() == self.named(e, "shPending") == pending_r
        reader = ttuple(U, U, U, I(0), tcon("agn", X0, I(1)))
        assert e.sh(X0) == e.sh(0, X0) == self.named(e, "sh", X0) == reader

        assert e.fields_of(ttuple(ex(ttuple(T, I(2), X1)), U, U, I(0), U)) == (True, (2,), X1)
        assert e.fields_of(exc) is None
        assert e.exc_pending_index(pending_w) == 0 and e.exc_pending_index(exc) is None
        assert e.has_exc(exc) and not e.has_exc(pending_w)
        assert e.take_exc(pending_w) == exc
        assert e.drop_exc(exc) == ttuple(U, U, U, I(0), U)
        assert e.seen_zero(pending_w, 0) == pending_w
        assert e.pending(pending_r, 0) == 1 and e.pending(exc, 0) == 0
        assert e.add_pending(pending_r, 0, 1) == ttuple(U, U, U, I(2), U)
        two = ttuple(U, U, U, I(0), tcon("agn", X0, I(2)))
        assert e.release_reader(two, 0) == reader
        assert e.release_reader(reader, 0) == ttuple(U, U, U, I(0), U)
        assert e.release_reader(exc, 0) is None
        assert e.sh_value(two) == X0 and e.sh_value(exc) is None

    def test_multi_lock(self):
        _, e = build_rwlock_multi((X0, X1), 2)
        none = ttuple(I(0), I(0))
        fields = ttuple(ex(ttuple(F, ttuple(I(0), I(1)), X0)), U, U, none, U)
        assert e.fields(False, (0, 1), X0) == fields
        assert self.named(e, "fields", F, ttuple(I(0), I(1)), X0) == fields
        pending_w = ttuple(U, ex(I(1)), U, none, U)
        assert e.exc_pending(1) == self.named(e, "excPending", I(1)) == pending_w
        exc = ttuple(U, U, EX, none, U)
        assert e.exc() == self.named(e, "exc") == exc
        pending_r = ttuple(U, U, U, ttuple(I(0), I(1)), U)
        assert e.sh_pending(1) == self.named(e, "shPending", I(1)) == pending_r
        reader = ttuple(U, U, U, none, tcon("agn", X0, ttuple(I(0), I(1))))
        assert e.sh(1, X0) == self.named(e, "sh", I(1), X0) == reader

        got = e.fields_of(ttuple(ex(ttuple(T, ttuple(I(2), I(-1)), X1)), U, U, none, U))
        assert got == (True, (2, -1), X1)
        assert e.exc_pending_index(pending_w) == 1 and e.exc_pending_index(exc) is None
        assert e.has_exc(exc) and not e.has_exc(pending_w)
        assert e.take_exc(pending_w) == exc
        assert e.drop_exc(exc) == ttuple(U, U, U, none, U)
        assert e.seen_zero(pending_w, 1) == ttuple(U, ex(I(2)), U, none, U)
        assert e.pending(pending_r, 1) == 1 and e.pending(pending_r, 0) == 0
        assert e.add_pending(pending_r, 0, 1) == ttuple(U, U, U, ttuple(I(1), I(1)), U)
        both = ttuple(U, U, U, none, tcon("agn", X0, ttuple(I(1), I(1))))
        assert e.release_reader(both, 0) == reader
        assert e.release_reader(reader, 1) == ttuple(U, U, U, none, U)
        assert e.release_reader(reader, 0) is None
        assert e.sh_value(both) == X0 and e.sh_value(exc) is None

    def test_multi_lock_with_one_counter_keeps_tuples(self):
        _, e = build_rwlock_multi((X0, X1), 1)
        none = ttuple(I(0))
        fields = ttuple(ex(ttuple(F, ttuple(I(1)), X0)), U, U, none, U)
        assert e.fields(False, (1,), X0) == e.fields(False, 1, X0) == fields
        assert self.named(e, "fields", F, ttuple(I(1)), X0) == fields
        pending_w = ttuple(U, ex(I(0)), U, none, U)
        assert e.exc_pending(0) == self.named(e, "excPending", I(0)) == pending_w
        exc = ttuple(U, U, EX, none, U)
        assert e.exc() == self.named(e, "exc") == exc
        pending_r = ttuple(U, U, U, ttuple(I(1)), U)
        assert e.sh_pending(0) == self.named(e, "shPending", I(0)) == pending_r
        reader = ttuple(U, U, U, none, tcon("agn", X0, ttuple(I(1))))
        assert e.sh(0, X0) == self.named(e, "sh", I(0), X0) == reader

        assert e.fields_of(ttuple(ex(ttuple(T, ttuple(I(2)), X1)), U, U, none, U)) == (
            True, (2,), X1,
        )
        assert e.exc_pending_index(pending_w) == 0 and e.exc_pending_index(exc) is None
        assert e.take_exc(pending_w) == exc
        assert e.drop_exc(exc) == ttuple(U, U, U, none, U)
        assert e.seen_zero(pending_w, 0) == ttuple(U, ex(I(1)), U, none, U)
        assert e.pending(pending_r, 0) == 1
        assert e.add_pending(pending_r, 0, 1) == ttuple(U, U, U, ttuple(I(2)), U)
        two = ttuple(U, U, U, none, tcon("agn", X0, ttuple(I(2))))
        assert e.release_reader(two, 0) == reader
        assert e.release_reader(reader, 0) == ttuple(U, U, U, none, U)
        assert e.release_reader(exc, 0) is None
        assert e.sh_value(two) == X0 and e.sh_value(exc) is None

    def test_named_constructors_take_their_own_forms(self):
        single, multi = build_rwlock((X0,))[1], build_rwlock_multi((X0,), 1)[1]
        with pytest.raises(ValueError):
            self.named(single, "sh", I(0), X0)
        with pytest.raises(ValueError):
            self.named(multi, "sh", X0)
        with pytest.raises(ValueError):
            self.named(single, "fields", F, ttuple(I(0)), X0)
        with pytest.raises((TypeError, ValueError)):
            self.named(multi, "fields", F, I(0), X0)


HASH = HashFunctionSpec(3, ((tint(0), 0), (tint(1), 0)))
HT, HTE = build_hashtable_monoid(HASH, (tint(10), tint(11)))
K0, K1, V0, V1 = tint(0), tint(1), tint(10), tint(11)


class TestHashTableMonoid:
    def test_distinct_keys_across_slots(self):
        z = compose(
            HT,
            HTE.slot(0, HTE.entry(K0, V0)),
            HTE.slot(1, HTE.entry(K0, V1)),
        )
        assert not HT.valid_fn(z)

    def test_unit_valid(self):
        assert HT.valid_fn(HT.unit)

    def test_map_entry_needs_matching_slot(self):
        # a map entry with no possible slot completion is invalid
        z = compose(
            HT,
            HTE.m(K0, some(V0)),
            compose(
                HT,
                HTE.slot(0, HTE.entry(K1, V1)),
                compose(HT, HTE.slot(1, NONE), HTE.slot(2, NONE)),
            ),
        )
        assert not HT.valid_fn(z)

    def test_query_found_as_validity_fact(self):
        # a map entry composed with a slot holding the same key forces
        # the values to agree
        ok = compose(HT, HTE.m(K0, some(V0)), HTE.slot(0, HTE.entry(K0, V0)))
        bad = compose(HT, HTE.m(K0, some(V0)), HTE.slot(0, HTE.entry(K0, V1)))
        assert HT.valid_fn(ok)
        assert not HT.valid_fn(bad)

    def test_query_not_found_as_validity_fact(self):
        # probed slots exclude the key and an empty slot ends the probe:
        # the map entry cannot be Some
        probe = compose(HT, HTE.slot(0, HTE.entry(K1, V1)), HTE.slot(1, NONE))
        assert HT.valid_fn(compose(HT, HTE.m(K0, NONE), probe))
        assert not HT.valid_fn(compose(HT, HTE.m(K0, some(V0)), probe))

    def test_contiguous_probe_runs(self):
        # slot 1 occupied by a key hashing to 0 requires slot 0 filled
        lone = HTE.slot(1, HTE.entry(K1, V1))
        assert HT.valid_fn(lone)  # completable by filling slot 0
        with_gap = compose(HT, lone, HTE.slot(0, NONE))
        assert not HT.valid_fn(with_gap)

    def test_update_existing_as_fpu(self):
        a = compose(HT, HTE.m(K0, some(V0)), HTE.slot(0, HTE.entry(K0, V0)))
        b = compose(HT, HTE.m(K0, some(V1)), HTE.slot(0, HTE.entry(K0, V1)))
        assert frame_preserving_update(HT, a, b).ok

    def test_update_insert_as_fpu(self):
        a = compose(
            HT,
            HTE.m(K1, NONE),
            compose(HT, HTE.slot(0, HTE.entry(K0, V0)), HTE.slot(1, NONE)),
        )
        b = compose(
            HT,
            HTE.m(K1, some(V1)),
            compose(HT, HTE.slot(0, HTE.entry(K0, V0)), HTE.slot(1, HTE.entry(K1, V1))),
        )
        assert frame_preserving_update(HT, a, b).ok

    def test_update_without_slot_fails(self):
        a = HTE.m(K0, NONE)
        b = HTE.m(K0, some(V0))
        r = frame_preserving_update(HT, a, b)
        assert r.verdict == FAILS

    def test_addendum_overlap_rules(self):
        # m ∧ slot, slot-run extension, m ∧ slot-run: all compose
        m = HTE.m(K0, some(V0))
        s0 = HTE.slot(0, HTE.entry(K0, V0))
        s1 = HTE.slot(1, HTE.entry(K1, V1))
        run = compose(HT, s0, s1)
        assert and_premise(HT, m, s0, compose(HT, m, s0)).ok
        assert and_premise(HT, s1, s0, run).ok
        assert and_premise(HT, m, run, compose(HT, m, run)).ok

    def test_validity_closure_matches_bruteforce(self):
        # cross-check the precomputed closure against direct enumeration
        small_hash = HashFunctionSpec(2, ((tint(0), 0), (tint(1), 0)))
        small, selems = build_hashtable_monoid(small_hash, (tint(10),))
        elems = carrier(small)
        for z in elems[:200]:
            brute = any(
                _ht_consistent_state(small_hash, small.compose_fn(z, c))
                for c in elems
            )
            assert small.valid_fn(z) == brute, z


class TestHashTableEncodings:
    """The table's fragments are spelt out here, so a change to how the
    table writes them fails: a pair (key map, slot map) of maps with
    exclusive values, the key map keyed by key and holding none or
    some(v), the slot map keyed by slot index and holding none or
    some((k, v))."""

    @staticmethod
    def own(t):
        return tcon("ex", t)

    def test_elements(self):
        empty, own, no = tmap(()), self.own, tcon("none")
        e00, e11 = tcon("some", ttuple(K0, V0)), tcon("some", ttuple(K1, V1))
        assert HTE.entry(K0, V0) == e00
        assert HashTableElems.slot_states((K0, K1), (V0,)) == (
            no, e00, tcon("some", ttuple(K1, V0)),
        )
        assert HTE.m(K0, some(V0)) == ttuple(tmap([(K0, own(tcon("some", V0)))]), empty)
        assert HTE.m(K1, NONE) == ttuple(tmap([(K1, own(no))]), empty)
        assert HTE.slot(2, e11) == ttuple(empty, tmap([(tint(2), own(e11))]))
        assert HTE.slot(0, NONE) == ttuple(empty, tmap([(tint(0), own(no))]))

    def test_readers_and_transitions(self):
        empty, own, no = tmap(()), self.own, tcon("none")
        e00, e11 = tcon("some", ttuple(K0, V0)), tcon("some", ttuple(K1, V1))
        # key 0 and slot 0 are both tint(0): a reader of the wrong map finds a value
        keys = tmap([(K0, own(tcon("some", V0))), (K1, own(no))])
        z = ttuple(keys, tmap([(tint(0), own(e00)), (tint(2), own(no))]))
        assert HTE.map_value(z, K0) == tcon("some", V0) and HTE.map_value(z, K1) == no
        assert HTE.slot_value(z, 0) == e00 and HTE.slot_value(z, 2) == no
        assert HTE.slot_value(z, 1) is None
        assert HTE.map_value(HTE.slot(0, NONE), K0) is None
        assert HTE.slot_value(HTE.m(K0, NONE), 0) is None
        assert HTE.without_slot(z, 0) == ttuple(keys, tmap([(tint(2), own(no))]))
        assert HTE.without_slot(z, 1) == z
        assert HTE.write(z, 2, K1, V1) == ttuple(
            tmap([(K0, own(tcon("some", V0))), (K1, own(tcon("some", V1)))]),
            tmap([(tint(0), own(e00)), (tint(2), own(e11))]),
        )
        assert HTE.write(ttuple(empty, empty), 1, K0, V0) == ttuple(
            tmap([(K0, own(tcon("some", V0)))]), tmap([(tint(1), own(e00))])
        )

    def test_hashtable_builtin_helper_is_the_elements(self):
        doc = {"builtin": "hashtable", "params": {
            "length": 3, "hash": [[["int", 0], 0], [["int", 1], 0]],
            "values": [["int", 10], ["int", 11]],
        }}
        protocols, named, _ = load_protocols([{"id": "ht", **doc}])
        elems, view = named["ht"], protocols["ht"].protocol
        assert isinstance(elems, HashTableElems)
        assert (elems.keys, elems.values, elems.length) == ((K0, K1), (V0, V1), 3)
        # the table itself, with the table's validity, not the total view
        clash = compose(HT, HTE.slot(0, HTE.entry(K0, V0)), HTE.slot(1, HTE.entry(K0, V1)))
        assert elems.monoid is not view and view.valid_fn(clash)
        assert not elems.monoid.valid_fn(clash)
        assert protocols["ht"].complete_fn is elems.monoid.valid_fn
        assert build_hashtable_protocol(HASH, (V0, V1))[1].monoid.name == "hashtable"
        assert HTE.monoid is HT


def _ht_consistent_state(hash_spec, z) -> bool:
    """Direct re-statement of the full-state consistency predicate, used
    only to cross-check the precomputed validity closure."""
    from guardcheck.terms import con_args, map_entries

    keymap, slotmap = z[1]
    filled = {}
    for i, entry in map_entries(slotmap):
        got = con_args(entry, "ex")
        if got is None:
            return False
        inner = con_args(got[0], "some")
        if inner is not None:
            k, v = inner[0][1]
            filled[i[1]] = (k, v)
    mapped = {}
    for k, entry in map_entries(keymap):
        got = con_args(entry, "ex")
        if got is None:
            return False
        mapped[k] = got[0]
    keys = [k for k, _ in filled.values()]
    if len(keys) != len(set(keys)):
        return False
    for k, mv in mapped.items():
        inner = con_args(mv, "some")
        if inner is not None and not any(
            fk == k and fv == inner[0] for fk, fv in filled.values()
        ):
            return False
    for i, (k, v) in filled.items():
        if k not in mapped or mapped[k] == NONE:
            return False
        h = hash_spec.hash_of(k)
        if h > i:
            return False
        for j in range(h, i + 1):
            entry = dict(map_entries(slotmap)).get(tint(j))
            if entry is None:
                return False
            got = con_args(entry, "ex")
            if got is None or got[0] == NONE:
                return False
    return True


class TestFinmapAndFractionalMemory:
    def test_pointwise_composition_drops_units(self):
        from guardcheck.library import build_int

        spec = build_finmap((tsym("a"),), build_int(-2, 2))
        m1 = tmap([(tsym("a"), tint(1))])
        m2 = tmap([(tsym("a"), tint(-1))])
        assert compose(spec, m1, m2) == tmap(())

    def test_elementwise_protocol(self):
        keys = (tsym("l1"), tsym("l2"))
        sp = build_fractional_memory(keys)
        assert check_wellformed(sp).ok
        one_at = tmap([(keys[0], tfrac(1))])
        stored_one = tmap([(keys[0], tint(1))])
        q = ExchangeQuery.withdraw(one_at, tmap(()), stored_one, tmap(()))
        assert exchange_holds(sp, q).ok
        assert guard_holds(sp, tmap([(keys[0], tfrac(1, 2))]), stored_one).ok


def test_all_builtins_wellformed_smoke():
    from guardcheck.library import build_counting, build_forever, build_fractional

    for sp in (build_fractional(), build_counting()[0], build_forever(), RW, RWM):
        assert check_wellformed(sp).ok, sp.name


def test_hashtable_protocol_wrapper():
    sp, _ = build_hashtable_protocol(HASH, (V0, V1))
    assert sp.complete(sp.protocol.unit)
    assert check_wellformed(sp).ok


def test_finmap_compose_sorts_as_tmap():
    # compose sorts the merged entries by each declared key's rank in
    # tmap's order, and by tmap for a key that is not declared
    def pointwise(a, b):
        """a · b for maps into an exclusive monoid, whose entries are
        never ε: a key of both holds the conflict ⊥."""
        merged = dict(a[1])
        for k, v in b[1]:
            merged[k] = BOT if k in merged else v
        return tmap(merged.items())

    stray = tmap([(tint(7), ex(some(V0)))])  # 7 is neither a key nor a slot
    for part in HT.parts:  # the key map and the slot map
        elems = list(carrier(part))[:40]
        for a in elems + [stray]:
            for b in elems:
                assert part.compose_fn(a, b) == pointwise(a, b)


def ref_finmap_compose(value, a, b):
    """a · b pointwise through a dict, sorted by tmap: the composition
    finmaps had before they merged their entries on key rank."""
    merged = dict(a[1])
    for k, v in b[1]:
        merged[k] = value.compose_fn(merged[k], v) if k in merged else v
    return tmap((k, v) for k, v in merged.items() if v != value.unit)


def test_finmap_compose_is_the_dict_reference():
    # 1 · -1 is the value unit 0, so entries drop out; the keys mix tags
    # and are declared out of term order; each stray key is undeclared and
    # sorts before, among or after the declared ones
    from guardcheck.library import build_int

    value = build_int(-1, 1)
    keys = (tsym("b"), tint(2), tbool(True), tint(-1))
    spec = build_finmap(keys, value)
    elems = list(carrier(spec))
    strays = [
        tmap([*m[1], (k, tint(1))])
        for m in elems[::7]
        for k in (tbool(False), tint(0), tsym("z"))
    ]
    assert strays and len(elems) == 3 ** len(keys)
    for a in elems + strays:
        for b in elems + strays:
            assert spec.compose_fn(a, b) == ref_finmap_compose(value, a, b), (a, b)


# ---------------------------------------------------------------------------
# The count and agreement algebras, built from the combinators, against the
# carriers and compositions they had as hand-written monoids


def _sum_counts(a, b):
    """Counts add: an int, or a tuple of ints elementwise."""
    if a[0] == "int":
        return tint(a[1] + b[1])
    return ttuple(*(tint(u[1] + v[1]) for u, v in zip(a[1], b[1])))


def _agreement_compose(a, b):
    if a == UNIT:
        return b
    if b == UNIT:
        return a
    if a == BOT or b == BOT or a[2][0] != b[2][0]:
        return BOT
    return tcon("agn", a[2][0], _sum_counts(a[2][1], b[2][1]))


def _vec(*counts):
    return ttuple(*map(tint, counts))


@pytest.mark.parametrize("spec, name, mode, note, elems, comp", [
    (build_nat(2), "nat", "bounded", "0..2", [tint(0), tint(1), tint(2)], _sum_counts),
    (build_nat(0, name="rw-sp"), "rw-sp", "bounded", "0..0", [tint(0)], _sum_counts),
    (build_agn((X0, X1), 2, "rw-sh"), "rw-sh", "bounded", "counts <= 2",
     [UNIT, agn(X0, 1), agn(X0, 2), agn(X1, 1), agn(X1, 2), BOT], _agreement_compose),
    (build_agnvec((X0,), 2, 1, "rwm-sh"), "rwm-sh", "bounded", "K=2, counts <= 1",
     [UNIT, agnvec(X0, (0, 1)), agnvec(X0, (1, 0)), agnvec(X0, (1, 1)), BOT],
     _agreement_compose),
    (build_agnvec((X1,), 1, 2), "agnvec", "bounded", "K=1, counts <= 2",
     [UNIT, agnvec(X1, (1,)), agnvec(X1, (2,)), BOT], _agreement_compose),
    (build_rwlock_multi((X0, X1), 2, sp_max=1)[0].protocol.parts[3], "rwm-sp", "bounded", "",
     [_vec(0, 0), _vec(0, 1), _vec(1, 0), _vec(1, 1)], _sum_counts),
    (build_rwlock_multi((X0,), 3, rc_range=(0, 1), sp_max=0)[0].protocol.parts[3],
     "rwm-sp", "bounded", "", [_vec(0, 0, 0)], _sum_counts),
])
def test_count_algebras_keep_their_carriers(spec, name, mode, note, elems, comp):
    assert carrier(spec) == tuple(elems)
    assert (spec.name, spec.enumerator.mode, spec.enumerator.note) == (name, mode, note)
    for a in elems:
        assert spec.valid_fn(a) == (a != BOT)
        for b in elems:
            assert spec.compose_fn(a, b) == comp(a, b), (a, b)


def _counting_reference(a, b):
    return ttuple(tint(a[1][0][1] + b[1][0][1]), tint(a[1][1][1] + b[1][1][1]))


@pytest.mark.parametrize("spec, ref", [
    (build_int(), lambda a, b: tint(a[1] + b[1])),
    (build_frac(), lambda a, b: tfrac(a[1] * b[2] + b[1] * a[2], a[2] * b[2])),
    (build_counting()[0].protocol, _counting_reference),
    (build_counting(drop_carrier_constraint=True)[0].protocol, _counting_reference),
], ids=["int", "frac", "counting", "counting-unconstrained"])
def test_builtin_compose_is_the_term_constructor_reference(spec, ref):
    # int, frac and counting build their terms without the constructors
    elems = carrier(spec)
    for a in elems:
        for b in elems:
            assert spec.compose_fn(a, b) == ref(a, b), (a, b)


# ---------------------------------------------------------------------------
# Hash-table validity from full slot assignments, against the closure of
# every consistent partial state


def ref_hashtable_valid_set(hash_spec, values):
    """The downward closure of the consistent partial states: each key and
    each slot absent (None) or present, consistency asked of every pair of
    a slot map and a key map."""
    from itertools import combinations, product

    from guardcheck.terms import con_args

    keys = hash_spec.keys
    slot_opts = [NONE] + [some(ttuple(k, v)) for k in keys for v in values]
    map_opts = [NONE] + [some(v) for v in values]

    def consistent(keymap, slotmap):
        filled = {i: con_args(s, "some")[0][1] for i, s in slotmap.items() if s != NONE}
        entries = set(filled.values())
        if len({k for k, _ in entries}) != len(filled):
            return False
        if any(m != NONE and (k, con_args(m, "some")[0]) not in entries
               for k, m in keymap.items()):
            return False
        if any(keymap.get(k, NONE) == NONE for k, _ in entries):
            return False
        return all(
            hash_spec.hash_of(k) <= i
            and all(slotmap.get(j, NONE) != NONE for j in range(hash_spec.hash_of(k), i))
            for i, (k, _) in filled.items()
        )

    def sub_maps(entries):
        owned = [(k, ex(v)) for k, v in entries]
        return [tmap(c) for r in range(len(owned) + 1) for c in combinations(owned, r)]

    valid = set()
    for slot_combo in product([None] + slot_opts, repeat=hash_spec.length):
        slotmap = {i: s for i, s in enumerate(slot_combo) if s is not None}
        for map_combo in product([None] + map_opts, repeat=len(keys)):
            keymap = {k: m for k, m in zip(keys, map_combo) if m is not None}
            if consistent(keymap, slotmap):
                valid.update(
                    ttuple(km, sm)
                    for km in sub_maps(keymap.items())
                    for sm in sub_maps((tint(i), s) for i, s in slotmap.items())
                )
    return valid


KA, KB, KC = tsym("a"), tsym("b"), tsym("c")
HASH_SPECS = [
    (HASH, (V0, V1)),  # hashtable-collide's table
    (HashFunctionSpec(1, ((KA, 0),)), (V0, V1)),
    (HashFunctionSpec(1, ((KA, 0), (KB, 0))), (V0,)),
    (HashFunctionSpec(2, ((KA, 0), (KB, 1), (KC, 1))), (V0, V1)),
    (HashFunctionSpec(3, ((KA, 2), (KB, 1))), (V0,)),
    (HashFunctionSpec(3, ((KA, 1), (KB, 0), (KC, 1))), (V0,)),
]


@pytest.mark.parametrize("hash_spec, values", HASH_SPECS)
def test_hashtable_validity_is_the_closure_of_partial_states(hash_spec, values):
    spec, _ = build_hashtable_monoid(hash_spec, values)
    want = ref_hashtable_valid_set(hash_spec, values)
    elems = carrier(spec)
    assert want <= set(elems)
    assert {z for z in elems if spec.valid_fn(z)} == want
    if hash_spec == HASH:
        assert len(want) == 280
