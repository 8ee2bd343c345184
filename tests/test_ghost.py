"""Ghost ledger: admission in both modes, guard windows, transfers,
bookkeeping conservation."""

import pytest

from guardcheck.ghost import (
    AllocAction,
    ExchangeAction,
    GuardWindow,
    OpenGuardAction,
    TransferAction,
    apply_action,
    close_windows,
    empty_ledger,
)
from guardcheck.library import build_fractional, build_rwlock, ex
from guardcheck.terms import UNIT, tfrac, tint, tsym, ttuple

X0, X1 = tsym("x0"), tsym("x1")
RW, RWE = build_rwlock((X0, X1))
REGISTRY = {"rw": RW}


def comp(*parts):
    out = parts[0]
    for p in parts[1:]:
        out = RW.protocol.compose_fn(out, p)
    return out


@pytest.fixture
def ledger():
    out = apply_action(
        REGISTRY,
        empty_ledger(),
        AllocAction("rw", (("region", RWE.fields(False, 0, X0)),)),
    )
    assert out.ok
    return out.ledger


def test_alloc_requires_complete_state():
    out = apply_action(
        REGISTRY,
        empty_ledger(),
        AllocAction("rw", (("region", comp(RWE.fields(False, 0, X0), RWE.exc())),)),
    )
    assert not out.ok and out.violation.reason == "alloc-not-complete"


def test_alloc_composes_duplicate_owners():
    out = apply_action(
        REGISTRY,
        empty_ledger(),
        AllocAction(
            "rw",
            (
                ("region", RWE.fields(False, 1, X0)),
                ("reader", RWE.sh(X0)),
                ("reader", ttuple(UNIT, UNIT, UNIT, tint(0), UNIT)),
            ),
        ),
    )
    assert out.ok
    assert out.ledger.instance("rw").fragment_of("reader", RW.protocol.unit) == RWE.sh(X0)


def test_unknown_instance_rejected(ledger):
    out = apply_action(REGISTRY, ledger, ExchangeAction("nope", ()))
    assert not out.ok and out.violation.reason == "unknown-instance"


def exc_begin(ledger, mode="rule"):
    return apply_action(
        REGISTRY,
        ledger,
        ExchangeAction(
            "rw",
            (
                ("region", RWE.fields(True, 0, X0)),
                ("writer", RWE.exc_pending()),
            ),
            kind="update",
        ),
        mode,
    )


def test_exchange_updates_fragments_and_stored(ledger):
    out = exc_begin(ledger)
    assert out.ok
    inst = out.ledger.instance("rw")
    assert inst.fragment_of("writer", RW.protocol.unit) == RWE.exc_pending()
    assert inst.stored == ex(X0)

    withdrawn = apply_action(
        REGISTRY,
        out.ledger,
        ExchangeAction(
            "rw",
            (("region", RWE.fields(True, 0, X0)), ("writer", RWE.exc())),
            withdrawn=ex(X0),
            kind="withdraw",
        ),
    )
    assert withdrawn.ok
    assert withdrawn.ledger.instance("rw").stored == UNIT

    deposited = apply_action(
        REGISTRY,
        withdrawn.ledger,
        ExchangeAction(
            "rw",
            (
                ("region", RWE.fields(False, 0, X1)),
                ("writer", ttuple(UNIT, UNIT, UNIT, tint(0), UNIT)),
            ),
            deposited=ex(X1),
            kind="deposit",
        ),
    )
    assert deposited.ok
    assert deposited.ledger.instance("rw").stored == ex(X1)


def test_withdraw_with_nonzero_count_rejected_by_rule_mode(ledger):
    # claim a withdraw while a reader is registered: rc ≠ 0. The rule
    # (universal over frames, where a frame may hold an acquired reader)
    # rejects it; the concrete frame here is only a pending reader, which
    # does not yet pin the stored content, so concrete mode admits it.
    shared = apply_action(
        REGISTRY,
        ledger,
        ExchangeAction(
            "rw",
            (("region", RWE.fields(False, 1, X0)), ("reader", RWE.sh_pending())),
            kind="update",
        ),
    )
    assert shared.ok
    begin = apply_action(
        REGISTRY,
        shared.ledger,
        ExchangeAction(
            "rw",
            (("region", RWE.fields(True, 1, X0)), ("writer", RWE.exc_pending())),
            kind="update",
        ),
    )
    assert begin.ok
    withdraw = ExchangeAction(
        "rw",
        (("region", RWE.fields(True, 1, X0)), ("writer", RWE.exc())),
        withdrawn=ex(X0),
        kind="withdraw",
    )
    out = apply_action(REGISTRY, begin.ledger, withdraw, "rule")
    assert not out.ok and out.violation.reason == "withdraw-rejected"
    assert apply_action(REGISTRY, begin.ledger, withdraw, "concrete").ok

    # with an acquired reader instead, both modes reject: the live frame
    # itself pins the stored content
    acquired = apply_action(
        REGISTRY,
        shared.ledger,
        ExchangeAction(
            "rw",
            (("region", RWE.fields(False, 1, X0)), ("reader", RWE.sh(X0))),
            kind="update",
        ),
    )
    begin2 = apply_action(
        REGISTRY,
        acquired.ledger,
        ExchangeAction(
            "rw",
            (("region", RWE.fields(True, 1, X0)), ("writer", RWE.exc_pending())),
            kind="update",
        ),
    )
    assert begin2.ok
    for mode in ("rule", "concrete"):
        out = apply_action(REGISTRY, begin2.ledger, withdraw, mode)
        assert not out.ok, mode


def test_rule_mode_admits_subset_of_concrete(ledger):
    # an exchange that happens to preserve the live frame but not every
    # frame: raising rc by one with no token minted is rejected by the
    # universal check, while the concrete frame (empty) cannot tell for
    # a state that keeps completeness — use a reader-retreat without the
    # token to witness the difference
    shared = apply_action(
        REGISTRY,
        ledger,
        ExchangeAction(
            "rw",
            (("region", RWE.fields(False, 1, X0)), ("reader", RWE.sh_pending())),
            kind="update",
        ),
    )
    acquire_wrong_value = ExchangeAction(
        "rw",
        (("region", RWE.fields(False, 1, X0)), ("reader", RWE.sh(X1))),
        kind="update",
    )
    rule = apply_action(REGISTRY, shared.ledger, acquire_wrong_value, "rule")
    concrete = apply_action(REGISTRY, shared.ledger, acquire_wrong_value, "concrete")
    # both reject: the joint state would not be completable
    assert not rule.ok and not concrete.ok


def test_concrete_admits_more_than_rule(ledger):
    # fractional: moving 1/2 -> withdraw at the live frame 1/2 (total=1)
    # is concretely fine... but universally it fails; check the subset
    frac = build_fractional()
    reg = {"frac": frac}
    led = apply_action(
        reg,
        empty_ledger(),
        AllocAction("frac", (("a", tfrac(1, 2)), ("b", tfrac(1, 2)))),
    ).ledger
    action = ExchangeAction(
        "frac",
        (("a", tfrac(0)), ("b", tfrac(0))),
        withdrawn=tint(1),
        kind="withdraw",
    )
    # both owners together form the whole share: admitted in both modes
    assert apply_action(reg, led, action, "rule").ok
    assert apply_action(reg, led, action, "concrete").ok
    # one owner alone: universally rejected, concretely admitted
    # (the only live frame is the other half making the total complete)
    solo = ExchangeAction(
        "frac", (("a", tfrac(0)),), withdrawn=tint(1), kind="withdraw"
    )
    assert not apply_action(reg, led, solo, "rule").ok
    concrete = apply_action(reg, led, solo, "concrete")
    assert not concrete.ok  # storage books still disagree at the live frame


def test_guard_window_lifecycle(ledger):
    shared = apply_action(
        REGISTRY,
        ledger,
        ExchangeAction(
            "rw",
            (("region", RWE.fields(False, 1, X0)), ("reader", RWE.sh(X0))),
            kind="update",
        ),
    )
    opened = apply_action(
        REGISTRY, shared.ledger, OpenGuardAction("rw", "reader", ex(X0))
    )
    assert opened.ok
    assert len(opened.ledger.instance("rw").windows) == 1

    second = apply_action(
        REGISTRY, opened.ledger, OpenGuardAction("rw", "reader", ex(X0))
    )
    assert not second.ok and second.violation.reason == "second-window"

    closed = close_windows(REGISTRY, opened.ledger)
    assert closed.ok and not closed.ledger.instance("rw").windows

    again = close_windows(REGISTRY, closed.ledger)
    assert again.ok and again.ledger == closed.ledger


def test_close_rejects_a_window_whose_content_left_storage(ledger):
    window = GuardWindow("rw", "reader", ex(X0))
    state = ledger.instance("rw").replace(stored=UNIT, windows=(window,))
    uncovered = ledger.with_instance("rw", state)
    out = close_windows(REGISTRY, uncovered)
    assert not out.ok and out.violation.reason == "guard-content-removed"
    assert out.ledger == uncovered


def test_unknown_action_type_raises(ledger):
    with pytest.raises(TypeError, match="unknown ghost action"):
        apply_action(REGISTRY, ledger, GuardWindow("rw", "reader", UNIT))


def test_guard_rejected_without_fragment(ledger):
    out = apply_action(REGISTRY, ledger, OpenGuardAction("rw", "reader", ex(X0)))
    assert not out.ok and out.violation.reason == "guard-rejected"


def test_guard_rejected_for_pending_reader(ledger):
    # a pending reader is not a guard: some completion of the bare token
    # has the lock exclusively taken and stores nothing. Rule mode sees
    # that frame; concrete mode sees only the live state (lock free,
    # content stored) and admits.
    shared = apply_action(
        REGISTRY,
        ledger,
        ExchangeAction(
            "rw",
            (("region", RWE.fields(False, 1, X0)), ("reader", RWE.sh_pending())),
            kind="update",
        ),
    )
    out = apply_action(
        REGISTRY, shared.ledger, OpenGuardAction("rw", "reader", ex(X0)), "rule"
    )
    assert not out.ok and out.violation.reason == "guard-rejected"
    assert apply_action(
        REGISTRY, shared.ledger, OpenGuardAction("rw", "reader", ex(X0)), "concrete"
    ).ok


def test_concrete_guard_rejects_content_no_completion_stores(ledger):
    # the lock stores ex(x0); no completion of the live state stores ex(x1)
    out = apply_action(
        REGISTRY, ledger, OpenGuardAction("rw", "region", ex(X1)), "concrete"
    )
    assert not out.ok
    assert out.violation.reason == "guard-rejected"
    assert out.violation.witness == RWE.fields(False, 0, X0)  # the live total
    assert out.violation.detail == "a completion of the live state stores too little"


def test_trivial_guard_always_admitted(ledger):
    out = apply_action(
        REGISTRY, ledger, OpenGuardAction("rw", "reader", UNIT)
    )
    assert out.ok


def test_exchange_while_window_open_cannot_drop_content(ledger):
    shared = apply_action(
        REGISTRY,
        ledger,
        ExchangeAction(
            "rw",
            (("region", RWE.fields(False, 1, X0)), ("reader", RWE.sh(X0))),
            kind="update",
        ),
    )
    opened = apply_action(
        REGISTRY, shared.ledger, OpenGuardAction("rw", "reader", ex(X0))
    )
    # releasing the reader while its own window is open keeps the content
    # stored, so it is admitted; the window invariant is re-checked
    release = apply_action(
        REGISTRY,
        opened.ledger,
        ExchangeAction(
            "rw",
            (
                ("region", RWE.fields(False, 0, X0)),
                ("reader", ttuple(UNIT, UNIT, UNIT, tint(0), UNIT)),
            ),
            kind="update",
        ),
    )
    assert release.ok
    assert close_windows(REGISTRY, release.ledger).ok


def test_transfer_requires_exact_decomposition(ledger):
    moved = apply_action(
        REGISTRY,
        ledger,
        TransferAction("rw", "region", "writer", RWE.fields(False, 0, X0), RW.protocol.unit),
    )
    assert moved.ok
    assert moved.ledger.instance("rw").fragment_of("writer", RW.protocol.unit) == RWE.fields(
        False, 0, X0
    )
    bad = apply_action(
        REGISTRY,
        moved.ledger,
        TransferAction("rw", "writer", "region", RWE.exc(), RW.protocol.unit),
    )
    assert not bad.ok and bad.violation.reason == "transfer-mismatch"


def test_replaying_actions_reproduces_ledger(ledger):
    actions = [
        ExchangeAction(
            "rw",
            (("region", RWE.fields(True, 0, X0)), ("writer", RWE.exc_pending())),
            kind="update",
        ),
        ExchangeAction(
            "rw",
            (("region", RWE.fields(True, 0, X0)), ("writer", RWE.exc())),
            withdrawn=ex(X0),
            kind="withdraw",
        ),
    ]
    l1 = ledger
    for a in actions:
        l1 = apply_action(REGISTRY, l1, a).ledger
    l2 = ledger
    for a in actions:
        l2 = apply_action(REGISTRY, l2, a).ledger
    assert l1 == l2


def test_ledger_hashable_for_memoization(ledger):
    assert hash(ledger) == hash(ledger)
    assert len({ledger, exc_begin(ledger).ledger}) == 2
