"""Ghost ledger: protocol fragments carried alongside execution.

Each protocol instance tracks who owns which protocol-monoid fragment,
the storage-monoid content currently held by the protocol, and any open
guard windows. Actions are validated before they are applied:

* in **concrete** mode an exchange must satisfy the exchange body at the
  one frame that actually exists (the composition of everyone else's
  fragments), which is exactly what preserving the ledger invariants
  requires in a closed system;
* in **rule** mode the corresponding universal relation (quantified over
  all enumerated frames) must hold as well, so rule-mode admissions are
  a subset of concrete-mode admissions.

Guard windows license access to stored content for a single step: a
second open window on the same instance is a violation, and content a
window guards must stay below the stored composition until ``close_windows``
closes the window at the end of the step.
"""

from __future__ import annotations

from functools import reduce

from .monoid import leq, memo
from .protocol import (
    ExchangeQuery,
    StorageProtocolSpec,
    exchange_body_at,
    exchange_holds,
    guard_holds,
    valid_fragment,
)
from .terms import Record, Term, pretty

__all__ = [
    "GhostLedger",
    "InstanceState",
    "GuardWindow",
    "GhostViolation",
    "ApplyOutcome",
    "AllocAction",
    "ExchangeAction",
    "OpenGuardAction",
    "TransferAction",
    "apply_action",
    "close_windows",
    "joint_state",
    "empty_ledger",
]


class GuardWindow(Record):
    instance: str
    owner: str
    element: Term
    licenses: str = ""


class InstanceState(Record):
    fragments: tuple  # sorted (owner, element), unit fragments dropped
    stored: Term
    windows: tuple = ()

    def fragment_of(self, owner: str, unit: Term) -> Term:
        for o, el in self.fragments:
            if o == owner:
                return el
        return unit


class GhostLedger(Record):
    instances: tuple  # sorted (iid, InstanceState)

    def instance(self, iid: str) -> InstanceState:
        for i, st in self.instances:
            if i == iid:
                return st
        raise KeyError(f"unknown protocol instance {iid!r}")

    def with_instance(self, iid: str, state: InstanceState) -> "GhostLedger":
        rest = [(i, s) for i, s in self.instances if i != iid]
        rest.append((iid, state))
        return GhostLedger(tuple(sorted(rest, key=lambda p: p[0])))


def empty_ledger() -> GhostLedger:
    return GhostLedger(())


class GhostViolation(Record):
    reason: str
    instance: str = ""
    witness: Term | None = None
    detail: str = ""

    def describe(self) -> str:
        out = self.reason
        if self.instance:
            out += f" [{self.instance}]"
        if self.detail:
            out += f": {self.detail}"
        if self.witness is not None:
            out += f" (witness {pretty(self.witness)})"
        return out


class ApplyOutcome(Record):
    ledger: GhostLedger
    violation: GhostViolation | None = None

    @property
    def ok(self) -> bool:
        return self.violation is None


class AllocAction(Record):
    instance: str
    fragments: tuple  # (owner, element)


class ExchangeAction(Record):
    """Replace the listed owners' fragments wholesale.

    ``deposited`` enters the protocol's storage, ``withdrawn`` leaves it;
    the unit on either side gives deposits, withdraws and plain updates.
    """

    instance: str
    updates: tuple  # (owner, new_fragment)
    deposited: Term | None = None  # None means storage unit
    withdrawn: Term | None = None
    kind: str = "exchange"
    note: str = ""


class OpenGuardAction(Record):
    instance: str
    owner: str
    element: Term
    licenses: str = ""


class TransferAction(Record):
    """Move ``element`` from one owner to another; the sender must be
    decomposable as remainder · element."""

    instance: str
    from_owner: str
    to_owner: str
    element: Term
    remainder: Term


def _fragments_with(fragments, owner, element, unit):
    out = [(o, el) for o, el in fragments if o != owner]
    if element != unit:
        out.append((owner, element))
    return tuple(sorted(out))


def joint_state(sp: StorageProtocolSpec, fragments) -> Term:
    """The composition of an instance's (owner, element) fragments,
    folded once per distinct ``fragments`` tuple."""
    return memo(sp, ("joint", fragments), _fold, sp.protocol, fragments)


def _fold(protocol, fragments) -> Term:
    return reduce(protocol.compose_fn, (el for _, el in fragments), protocol.unit)


def _windows_still_guarded(sp: StorageProtocolSpec, state: InstanceState):
    for w in state.windows:
        if not leq(sp.storage, w.element, state.stored):
            return GhostViolation(
                "guard-content-removed",
                w.instance,
                w.element,
                f"open window needs {pretty(w.element)} stored",
            )
    return None


def _alloc(sp: StorageProtocolSpec, state: None, action: AllocAction, mode):
    merged: dict = {}
    for o, el in action.fragments:
        merged[o] = sp.protocol.compose_fn(merged.get(o, sp.protocol.unit), el)
    fragments = tuple(sorted((o, el) for o, el in merged.items() if el != sp.protocol.unit))
    total = joint_state(sp, fragments)
    if not sp.complete(total):
        return GhostViolation(
            "alloc-not-complete", action.instance, total,
            "initial joint state must satisfy the completeness predicate",
        )
    return InstanceState(fragments, sp.stored(total))


def _exchange(sp: StorageProtocolSpec, state: InstanceState, action: ExchangeAction, mode):
    unit = sp.protocol.unit
    s_dep = action.deposited if action.deposited is not None else sp.storage.unit
    s_wdr = action.withdrawn if action.withdrawn is not None else sp.storage.unit
    involved = [o for o, _ in action.updates]
    if len(set(involved)) != len(involved):
        return GhostViolation(
            "exchange-owner-repeated", action.instance,
            detail="an exchange may list each owner once",
        )
    old_parts = [state.fragment_of(o, unit) for o in involved]
    p_old = reduce(sp.protocol.compose_fn, old_parts, unit)
    p_new = reduce(sp.protocol.compose_fn, (el for _, el in action.updates), unit)
    rest = reduce(
        sp.protocol.compose_fn, (el for o, el in state.fragments if o not in involved), unit
    )
    query = ExchangeQuery(p_old, s_dep, p_new, s_wdr, action.kind)

    why = exchange_body_at(sp, query, rest)
    if why is not None:
        return GhostViolation(
            f"{action.kind}-rejected", action.instance, rest,
            f"{action.note or 'exchange body fails at the live frame'}: {why}",
        )
    before = sp.protocol.compose_fn(p_old, rest)
    if not sp.complete(before):
        return GhostViolation("ledger-not-complete", action.instance, before)
    if mode == "rule":
        verdict = exchange_holds(sp, query)
        if not verdict.ok:
            return GhostViolation(
                f"{action.kind}-rejected", action.instance, verdict.witness,
                f"{action.note or 'universal relation fails'}: {verdict.reason}",
            )

    fragments = state.fragments
    for o, el in action.updates:
        fragments = _fragments_with(fragments, o, el, unit)
    new_total = joint_state(sp, fragments)
    if not valid_fragment(sp, new_total):
        return GhostViolation("joint-state-uncompletable", action.instance, new_total)
    new_state = state.replace(fragments=fragments, stored=sp.stored(new_total))
    return _windows_still_guarded(sp, new_state) or new_state


def _open_guard(sp: StorageProtocolSpec, state: InstanceState, action: OpenGuardAction, mode):
    if state.windows:
        return GhostViolation(
            "second-window", action.instance,
            detail="an instance admits one open guard window at a time",
        )
    if mode == "rule":
        mine = state.fragment_of(action.owner, sp.protocol.unit)
        verdict = guard_holds(sp, mine, action.element)
        if not verdict.ok:
            return GhostViolation(
                "guard-rejected", action.instance, verdict.witness, verdict.reason
            )
    else:
        total = joint_state(sp, state.fragments)
        if not guard_holds(sp, total, action.element).ok:
            return GhostViolation(
                "guard-rejected", action.instance, total,
                "a completion of the live state stores too little",
            )
    if not leq(sp.storage, action.element, state.stored):
        return GhostViolation(
            "guard-rejected", action.instance, state.stored,
            f"stored content does not cover {pretty(action.element)}",
        )
    window = GuardWindow(action.instance, action.owner, action.element, action.licenses)
    return state.replace(windows=(window,))


def _transfer(sp: StorageProtocolSpec, state: InstanceState, action: TransferAction, mode):
    unit = sp.protocol.unit
    have = state.fragment_of(action.from_owner, unit)
    if sp.protocol.compose_fn(action.remainder, action.element) != have:
        return GhostViolation(
            "transfer-mismatch", action.instance, have,
            f"{pretty(action.remainder)} · {pretty(action.element)} "
            f"is not the sender's fragment",
        )
    if action.from_owner == action.to_owner:
        return state
    fragments = _fragments_with(state.fragments, action.from_owner, action.remainder, unit)
    merged = sp.protocol.compose_fn(state.fragment_of(action.to_owner, unit), action.element)
    return state.replace(fragments=_fragments_with(fragments, action.to_owner, merged, unit))


# each action kind's rule: (spec, the instance's state or None, action,
# mode) to the instance's new state, or the violation that rejects it
_RULES = {
    AllocAction: _alloc,
    ExchangeAction: _exchange,
    OpenGuardAction: _open_guard,
    TransferAction: _transfer,
}


def apply_action(registry, ledger: GhostLedger, action, mode: str = "rule") -> ApplyOutcome:
    """Validate and apply one ghost action. ``mode`` is "rule" or "concrete".
    A rejection leaves the ledger as it was; an admission files the
    instance's new state."""
    if mode not in ("rule", "concrete"):
        raise ValueError(f"bad admission mode {mode!r}")
    rule = _RULES.get(type(action))
    if rule is None:
        raise TypeError(f"unknown ghost action {action!r}")
    iid = action.instance
    state = dict(ledger.instances).get(iid)
    if (state is None) != (rule is _alloc):
        got = GhostViolation("unknown-instance" if state is None else "instance-exists", iid)
    else:
        got = rule(registry[iid], state, action, mode)
    if isinstance(got, GhostViolation):
        return ApplyOutcome(ledger, got)
    return ApplyOutcome(ledger.with_instance(iid, got))


def close_windows(registry, ledger: GhostLedger) -> ApplyOutcome:
    """Close every open window (end of the licensed step). Each window's
    element must still be stored; if one is not, the ledger stays as it
    was."""
    out = ledger
    for iid, state in ledger.instances:
        if state.windows:
            bad = _windows_still_guarded(registry[iid], state)
            if bad:
                return ApplyOutcome(ledger, bad)
            out = out.with_instance(iid, state.replace(windows=()))
    return ApplyOutcome(out)
