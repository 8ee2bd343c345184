"""Acceptance suite.

One test per criterion, each printing a PASS line; run with ``pytest -s``
(or ``-rA``) to see them. Budgets are asserted with the stated limits.

1. PCM law suite over all shipped monoids.
2. Relation suite, positive facts (exact boolean verdicts, up-to-bound
   allowed for bounded carriers).
3. Negative controls: perturbed variants fail with self-verifying
   witnesses.
4. Cross-validation of the ε-storage exchange against the plain
   frame-preserving update on the derived pair monoid.
5. Reader-writer lock explorations (single and multi counter, both
   admission modes).
6. Hash-table exploration against the sequential oracle.
7. Race-detection negative control.
8. Byte-identical reports across demo-registry reruns.
"""

import time

import pytest

from guardcheck.explore import explore
from guardcheck.library import (
    HashFunctionSpec,
    build_agn,
    build_agnvec,
    build_counting,
    build_excl,
    build_forever,
    build_frac,
    build_fractional,
    build_hashtable_monoid,
    build_hashtable_protocol,
    build_rwlock,
    build_rwlock_multi,
    ex,
)
from guardcheck.monoid import (
    FAILS,
    ElementEnumerator,
    MonoidSpec,
    carrier,
    check_pcm_laws,
    frame_preserving_update,
)
from guardcheck.protocol import (
    ExchangeQuery,
    exchange_holds,
    guard_holds,
    recheck_exchange_witness,
    recheck_guard_witness,
)
from guardcheck.studies import (
    HashTableScenarioParams,
    RwLockScenarioParams,
    build_hashtable_scenario,
    build_race_scenario,
    build_rwlock_scenario,
    explorer_outcomes,
    sequential_oracle,
)
from guardcheck.terms import UNIT, tfrac, tint, tsym, ttuple

X0, X1 = tsym("x0"), tsym("x1")
HASH = HashFunctionSpec(3, ((tint(0), 0), (tint(1), 0)))


@pytest.fixture(scope="module")
def rw():
    return build_rwlock((X0, X1))


@pytest.fixture(scope="module")
def rwm():
    return build_rwlock_multi((X0, X1), 2)


def _report(criterion: str):
    print(f"\nACCEPTANCE {criterion}: PASS")


def test_criterion_1_pcm_law_suite(rw, rwm):
    start = time.monotonic()
    suite = [
        build_excl((tint(0), tint(1))),
        build_agn((X0, X1), max_count=4),
        build_agnvec((X0, X1), 2),
        build_counting()[0].protocol,
        build_frac(den_bound=12, max_value=4),
        rw[0].protocol,
        build_hashtable_monoid(HASH, (tint(10), tint(11)))[0],
    ]
    for spec in suite:
        report = check_pcm_laws(spec)
        assert report.ok, f"{spec.name}:\n{report.describe()}"
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"law suite took {elapsed:.1f}s"
    _report(f"1 (PCM law suite, {len(suite)} monoids, {elapsed:.1f}s)")


def _positive_relations(rw, rwm):
    frac = build_fractional()
    counting, ce = build_counting()
    forever = build_forever()
    sp, e = rw
    msp, me = rwm
    eps_s = lambda p: p.storage.unit

    def c(spec, *parts):
        out = parts[0]
        for p in parts[1:]:
            out = spec.protocol.compose_fn(out, p)
        return out

    cases = []
    # fractional permissions as a storage protocol (also the Fig-3 shape)
    cases += [
        ("frac withdraw 1", frac, ExchangeQuery.withdraw(tfrac(1), tfrac(0), tint(1), tint(0))),
        ("frac deposit 1", frac, ExchangeQuery.deposit(tfrac(0), tint(1), tfrac(1), tint(0))),
        ("frac exchange out", frac, ExchangeQuery.exchange(tfrac(1), tint(0), tfrac(0), tint(1))),
        ("frac exchange in", frac, ExchangeQuery.exchange(tfrac(0), tint(1), tfrac(1), tint(0))),
    ]
    for q in (tfrac(1, 12), tfrac(1, 4), tfrac(1, 3), tfrac(1, 2), tfrac(1)):
        cases.append((f"frac guard {q}", frac, ("guard", q, tint(1))))
    # counting permissions
    cases += [
        ("count deposit", counting, ExchangeQuery.exchange(ce.element(0, 0), tint(1), ce.element(0, 1), tint(0))),
        ("count withdraw", counting, ExchangeQuery.exchange(ce.element(0, 1), tint(0), ce.element(0, 0), tint(1))),
        ("count guard ref", counting, ("guard", ce.ref(), tint(1))),
    ]
    # forever
    cases.append(("forever guard", forever, ("guard", UNIT, ex(tint(1)))))
    # single-counter lock: five updates, withdraw, deposit, guard
    for rc in (0, 1, 2):
        for x in (X0, X1):
            cases.append(
                (f"rw exc-begin rc={rc} x={x[1]}", sp,
                 ExchangeQuery.update(e.fields(False, rc, x), c(sp, e.fields(True, rc, x), e.exc_pending()), UNIT))
            )
    for rc in (0, 1):
        cases += [
            (f"rw shared-begin rc={rc}", sp,
             ExchangeQuery.update(e.fields(False, rc, X0), c(sp, e.fields(False, rc + 1, X0), e.sh_pending()), UNIT)),
            (f"rw shared-acquire rc={rc + 1}", sp,
             ExchangeQuery.update(c(sp, e.fields(False, rc + 1, X0), e.sh_pending()),
                                  c(sp, e.fields(False, rc + 1, X0), e.sh(X0)), UNIT)),
            (f"rw shared-release rc={rc + 1}", sp,
             ExchangeQuery.update(c(sp, e.fields(False, rc + 1, X0), e.sh(X0)), e.fields(False, rc, X0), UNIT)),
            (f"rw shared-retry rc={rc + 1}", sp,
             ExchangeQuery.update(c(sp, e.fields(True, rc + 1, X0), e.sh_pending()), e.fields(True, rc, X0), UNIT)),
        ]
    for exc in (False, True):
        cases.append(
            (f"rw withdraw exc={exc}", sp,
             ExchangeQuery.withdraw(c(sp, e.fields(exc, 0, X0), e.exc_pending()),
                                    c(sp, e.fields(exc, 0, X0), e.exc()), ex(X0), UNIT))
        )
    for rc in (0, 1):
        cases.append(
            (f"rw deposit rc={rc}", sp,
             ExchangeQuery.deposit(c(sp, e.fields(True, rc, X1), e.exc()), ex(X0),
                                   e.fields(False, rc, X0), UNIT))
        )
    cases.append(("rw guard", sp, ("guard", e.sh(X0), ex(X0))))
    # multi-counter lock at K = 2
    cases += [
        ("rwm exc-begin", msp,
         ExchangeQuery.update(me.fields(False, (0, 0), X0), c(msp, me.fields(True, (0, 0), X0), me.exc_pending(0)), UNIT)),
        ("rwm exc-progress 0", msp,
         ExchangeQuery.update(c(msp, me.fields(True, (0, 1), X0), me.exc_pending(0)),
                              c(msp, me.fields(True, (0, 1), X0), me.exc_pending(1)), UNIT)),
        ("rwm exc-progress 1", msp,
         ExchangeQuery.update(c(msp, me.fields(True, (1, 0), X0), me.exc_pending(1)),
                              c(msp, me.fields(True, (1, 0), X0), me.exc_pending(2)), UNIT)),
        ("rwm exc-acquire", msp,
         ExchangeQuery.withdraw(c(msp, me.fields(True, (0, 0), X0), me.exc_pending(2)),
                                c(msp, me.fields(True, (0, 0), X0), me.exc()), ex(X0), UNIT)),
        ("rwm exc-release", msp,
         ExchangeQuery.deposit(c(msp, me.fields(True, (0, 1), X1), me.exc()), ex(X0),
                               me.fields(False, (0, 1), X0), UNIT)),
        ("rwm shared-begin", msp,
         ExchangeQuery.update(me.fields(False, (0, 0), X0),
                              c(msp, me.fields(False, (1, 0), X0), me.sh_pending(0)), UNIT)),
        ("rwm shared-acquire", msp,
         ExchangeQuery.update(c(msp, me.fields(False, (0, 1), X0), me.sh_pending(1)),
                              c(msp, me.fields(False, (0, 1), X0), me.sh(1, X0)), UNIT)),
        ("rwm shared-release", msp,
         ExchangeQuery.update(c(msp, me.fields(False, (0, 1), X0), me.sh(1, X0)),
                              me.fields(False, (0, 0), X0), UNIT)),
        ("rwm shared-retry", msp,
         ExchangeQuery.update(c(msp, me.fields(True, (1, 0), X0), me.sh_pending(0)),
                              me.fields(True, (0, 0), X0), UNIT)),
        ("rwm shared-guard", msp, ("guard", me.sh(0, X0), ex(X0))),
    ]
    return cases


def test_criterion_2_relation_suite_positive(rw, rwm):
    start = time.monotonic()
    cases = _positive_relations(rw, rwm)
    for name, sp, q in cases:
        if isinstance(q, tuple) and q[0] == "guard":
            verdict = guard_holds(sp, q[1], q[2])
        else:
            verdict = exchange_holds(sp, q)
        assert verdict.ok, f"{name}: {verdict.describe()}"
    # splitting laws as monoid identities: shares add, a counter at n
    # equals a counter at n+1 plus one reference
    frac = build_fractional()
    assert frac.protocol.compose_fn(tfrac(1, 3), tfrac(1, 6)) == tfrac(1, 2)
    counting, ce = build_counting()
    for n in (-1, 0, 2):
        assert counting.protocol.compose_fn(ce.counter(n + 1), ce.ref()) == ce.counter(n)
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"relation suite took {elapsed:.1f}s"
    _report(f"2 (relation suite, {len(cases)} positive facts + split identities, {elapsed:.1f}s)")


def _negative_controls(rw, rwm):
    frac = build_fractional()
    dropped, de = build_counting(drop_carrier_constraint=True)
    counting, ce = build_counting()
    forever = build_forever()
    sp, e = rw
    msp, me = rwm

    def c(spec, *parts):
        out = parts[0]
        for p in parts[1:]:
            out = spec.protocol.compose_fn(out, p)
        return out

    return [
        ("frac guard from zero", frac, ("guard", tfrac(0), tint(1))),
        ("frac withdraw from half", frac,
         ExchangeQuery.withdraw(tfrac(1, 2), tfrac(0), tint(1), tint(0))),
        ("count guard without carrier constraint", dropped, ("guard", de.ref(), tint(1))),
        ("count conjuring", counting,
         ExchangeQuery.update(ce.counter(0), ce.counter(1), tint(0))),
        ("forever withdraw", forever,
         ExchangeQuery.withdraw(UNIT, UNIT, ex(tint(1)), UNIT)),
        ("rw exc-begin rc off by one", sp,
         ExchangeQuery.update(e.fields(False, 0, X0), c(sp, e.fields(True, 1, X0), e.exc_pending()), UNIT)),
        ("rw exc-begin swapped flag", sp,
         ExchangeQuery.update(e.fields(True, 0, X0), c(sp, e.fields(False, 0, X0), e.exc_pending()), UNIT)),
        ("rw withdraw with reader registered", sp,
         ExchangeQuery.withdraw(c(sp, e.fields(True, 1, X0), e.exc_pending()),
                                c(sp, e.fields(True, 1, X0), e.exc()), ex(X0), UNIT)),
        ("rw guard from pending reader", sp, ("guard", e.sh_pending(), ex(X0))),
        ("rw shared-acquire with wrong value", sp,
         ExchangeQuery.update(c(sp, e.fields(False, 1, X0), e.sh_pending()),
                              c(sp, e.fields(False, 1, X0), e.sh(X1)), UNIT)),
        ("rw deposit keeps exc flag", sp,
         ExchangeQuery.deposit(c(sp, e.fields(True, 0, X1), e.exc()), ex(X0),
                               e.fields(True, 0, X0), UNIT)),
        ("rwm progress over busy counter", msp,
         ExchangeQuery.update(c(msp, me.fields(True, (1, 0), X0), me.exc_pending(0)),
                              c(msp, me.fields(True, (1, 0), X0), me.exc_pending(1)), UNIT)),
        # premature acquire while counter 1 is busy: a frame may hold an
        # acquired reader on the unchecked counter
        ("rwm acquire before all counters", msp,
         ExchangeQuery.withdraw(c(msp, me.fields(True, (0, 1), X0), me.exc_pending(1)),
                                c(msp, me.fields(True, (0, 1), X0), me.exc()), ex(X0), UNIT)),
        ("rwm guard from pending reader", msp, ("guard", me.sh_pending(0), ex(X0))),
    ]


def test_criterion_3_negative_controls(rw, rwm):
    controls = _negative_controls(rw, rwm)
    failed_as_expected = 0
    for name, sp, q in controls:
        if isinstance(q, tuple) and q[0] == "guard":
            verdict = guard_holds(sp, q[1], q[2])
            assert verdict.verdict == FAILS, f"{name} unexpectedly holds"
            assert recheck_guard_witness(sp, q[1], q[2], verdict.witness), name
        else:
            verdict = exchange_holds(sp, q)
            assert verdict.verdict == FAILS, f"{name} unexpectedly holds"
            assert recheck_exchange_witness(sp, q, verdict.witness), name
        failed_as_expected += 1
    assert failed_as_expected == len(controls)
    _report(f"3 (negative controls, {failed_as_expected}/{len(controls)} fail with self-verifying witnesses)")


def _paired_monoid(sp):
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


def test_criterion_4_cross_validation(rw):
    small_multi, _ = build_rwlock_multi((X0, X1), 2, rc_range=(0, 1), sp_max=1, agn_max=1)
    builtins = [
        (build_fractional(), 8),
        (build_counting()[0], 8),
        (build_forever(), 1),
        (rw[0], 6),
        (small_multi, 4),
        (build_hashtable_protocol(HASH, (tint(10), tint(11)))[0], 6),
    ]
    checked = 0
    for sp, sample in builtins:
        paired = _paired_monoid(sp)
        eps = sp.storage.unit
        prefix = carrier(sp.protocol)[:sample]
        for p in prefix:
            for p2 in prefix:
                ours = exchange_holds(sp, ExchangeQuery.update(p, p2, eps)).ok
                theirs = frame_preserving_update(paired, ttuple(p, eps), ttuple(p2, eps)).ok
                assert ours == theirs, (sp.name, p, p2)
                checked += 1
    _report(f"4 (cross-validation, {checked} pairs across {len(builtins)} built-ins, exact agreement)")


def test_criterion_5_rwlock_exploration():
    start = time.monotonic()
    # two writers increment under the lock
    s1 = build_rwlock_scenario(RwLockScenarioParams(writers=(("incr", 1), ("incr", 1)), readers=()))
    r1 = explore(s1)
    assert r1.ok and r1.stuck_count == 0, [v.describe() for v in r1.violations]
    assert {dict(t.cells)["cell"] for t in r1.terminal_summaries} == {tint(2)}
    t1 = time.monotonic() - start

    # two readers and a writer, both admission modes
    start = time.monotonic()
    s2 = build_rwlock_scenario(RwLockScenarioParams(writers=(("write", 7),), readers=(0, 0)))
    stats = {}
    for mode in ("rule", "concrete"):
        r2 = explore(s2, mode=mode)
        assert r2.ok and r2.stuck_count == 0 and not r2.violations, mode
        stats[mode] = r2.states
    assert stats["rule"] == stats["concrete"]
    t2 = time.monotonic() - start
    assert t2 < 300, f"readers scenario took {t2:.1f}s"

    # multi-counter variant at K = 2
    start = time.monotonic()
    s3 = build_rwlock_scenario(
        RwLockScenarioParams(counters=2, writers=(("write", 5),), readers=(0, 1))
    )
    for mode in ("rule", "concrete"):
        r3 = explore(s3, mode=mode)
        assert r3.ok and r3.stuck_count == 0 and not r3.violations, mode
    t3 = time.monotonic() - start
    assert t3 < 300, f"multi-counter scenario took {t3:.1f}s"
    _report(
        "5 (lock explorations: 2 writers +2 [%d states, %.1fs]; 2r+1w both modes [%d states, %.1fs]; K=2 both modes [%.1fs])"
        % (r1.states, t1, stats["rule"], t2, t3)
    )


def test_criterion_6_hashtable_exploration():
    start = time.monotonic()
    a, b = tint(0), tint(1)
    params = HashTableScenarioParams(
        HASH,
        (tint(10), tint(11)),
        ((("update", a, tint(10)), ("update", b, tint(11))), (("query", a),)),
    )
    s = build_hashtable_scenario(params)
    r = explore(s)
    assert r.ok and r.stuck_count == 0 and not r.violations, [v.describe() for v in r.violations]
    exp = explorer_outcomes(s, r)
    orc = sequential_oracle(params.thread_ops)
    assert exp <= orc and exp
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"hash-table exploration took {elapsed:.1f}s"
    _report(
        f"6 (hash-table exploration, {r.states} states, outcomes {len(exp)}/{len(orc)} within oracle, {elapsed:.1f}s)"
    )


def test_criterion_7_race_negative_control():
    unlocked = explore(build_race_scenario(readers=2, writers=1))
    assert unlocked.stuck_count >= 1 and unlocked.ok
    locked = explore(
        build_rwlock_scenario(RwLockScenarioParams(writers=(("write", 7),), readers=(0, 0)))
    )
    assert locked.stuck_count == 0 and locked.ok
    _report(
        f"7 (race negative control: unlocked reaches {unlocked.stuck_count} stuck states, locked reaches 0)"
    )


def test_criterion_8_demo_registry_determinism(capsys):
    from guardcheck.cli import main
    from guardcheck.demos import DEMOS

    def run_all():
        out = {}
        for name in sorted(DEMOS):
            code = main(["demo", name, "--format", "json"])
            captured = capsys.readouterr().out
            out[name] = (code, captured)
        return out

    first = run_all()
    second = run_all()
    assert first == second
    assert all(code == 0 for code, _ in first.values())
    _report(f"8 (demo registry determinism, {len(first)} demos byte-identical across reruns)")
