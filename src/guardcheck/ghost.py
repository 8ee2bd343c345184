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
window guards must stay below the stored composition until it closes.
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
from .terms import Record, Term, pretty, term_to_json

__all__ = [
    "GhostLedger",
    "InstanceState",
    "GuardWindow",
    "GhostViolation",
    "ApplyOutcome",
    "AllocAction",
    "ExchangeAction",
    "OpenGuardAction",
    "CloseGuardAction",
    "TransferAction",
    "apply_action",
    "close_windows",
    "joint_state",
    "ledger_snapshot",
    "empty_ledger",
]


class GuardWindow(Record):
    instance: str
    owner: str
    element: Term
    licenses: str = ""


class InstanceState(Record):
    protocol: str  # registry key
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

    def __hash__(self):
        # each computed transition hashes its ledgers several times
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self.instances))
            return self._hash

    def instance(self, iid: str) -> InstanceState:
        for i, st in self.instances:
            if i == iid:
                return st
        raise KeyError(f"unknown protocol instance {iid!r}")

    def has_instance(self, iid: str) -> bool:
        return any(i == iid for i, _ in self.instances)

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


class CloseGuardAction(Record):
    instance: str


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


def apply_action(registry, ledger: GhostLedger, action, mode: str = "rule") -> ApplyOutcome:
    """Validate and apply one ghost action. ``mode`` is "rule" or "concrete"."""
    if mode not in ("rule", "concrete"):
        raise ValueError(f"bad admission mode {mode!r}")

    if isinstance(action, AllocAction):
        if ledger.has_instance(action.instance):
            return ApplyOutcome(
                ledger, GhostViolation("instance-exists", action.instance)
            )
        sp = registry[action.instance]
        merged: dict = {}
        for o, el in action.fragments:
            merged[o] = sp.protocol.compose_fn(merged.get(o, sp.protocol.unit), el)
        fragments = tuple(
            sorted((o, el) for o, el in merged.items() if el != sp.protocol.unit)
        )
        total = joint_state(sp, fragments)
        if not sp.complete(total):
            return ApplyOutcome(
                ledger,
                GhostViolation(
                    "alloc-not-complete", action.instance, total,
                    "initial joint state must satisfy the completeness predicate",
                ),
            )
        state = InstanceState(action.instance, fragments, sp.stored(total))
        return ApplyOutcome(ledger.with_instance(action.instance, state))

    if not ledger.has_instance(action.instance):
        return ApplyOutcome(ledger, GhostViolation("unknown-instance", action.instance))
    sp = registry[action.instance]
    state = ledger.instance(action.instance)
    unit = sp.protocol.unit

    if isinstance(action, ExchangeAction):
        s_dep = action.deposited if action.deposited is not None else sp.storage.unit
        s_wdr = action.withdrawn if action.withdrawn is not None else sp.storage.unit
        involved = [o for o, _ in action.updates]
        if len(set(involved)) != len(involved):
            return ApplyOutcome(
                ledger,
                GhostViolation(
                    "exchange-owner-repeated", action.instance,
                    detail="an exchange may list each owner once",
                ),
            )
        old_parts = [state.fragment_of(o, unit) for o in involved]
        p_old = reduce(sp.protocol.compose_fn, old_parts, unit)
        p_new = reduce(sp.protocol.compose_fn, (el for _, el in action.updates), unit)
        rest = reduce(
            sp.protocol.compose_fn,
            (el for o, el in state.fragments if o not in involved),
            unit,
        )
        query = ExchangeQuery(p_old, s_dep, p_new, s_wdr, action.kind)

        why = exchange_body_at(sp, query, rest)
        if why is not None:
            return ApplyOutcome(
                ledger,
                GhostViolation(
                    f"{action.kind}-rejected", action.instance, rest,
                    f"{action.note or 'exchange body fails at the live frame'}: {why}",
                ),
            )
        if not sp.complete(sp.protocol.compose_fn(p_old, rest)):
            return ApplyOutcome(
                ledger,
                GhostViolation(
                    "ledger-not-complete", action.instance,
                    sp.protocol.compose_fn(p_old, rest),
                ),
            )
        if mode == "rule":
            verdict = exchange_holds(sp, query)
            if not verdict.ok:
                return ApplyOutcome(
                    ledger,
                    GhostViolation(
                        f"{action.kind}-rejected", action.instance, verdict.witness,
                        f"{action.note or 'universal relation fails'}: {verdict.reason}",
                    ),
                )

        fragments = state.fragments
        for o, el in action.updates:
            fragments = _fragments_with(fragments, o, el, unit)
        new_total = joint_state(sp, fragments)
        if not valid_fragment(sp, new_total):
            return ApplyOutcome(
                ledger,
                GhostViolation("joint-state-uncompletable", action.instance, new_total),
            )
        new_state = state.replace(fragments=fragments, stored=sp.stored(new_total))
        bad = _windows_still_guarded(sp, new_state)
        if bad:
            return ApplyOutcome(ledger, bad)
        return ApplyOutcome(ledger.with_instance(action.instance, new_state))

    if isinstance(action, OpenGuardAction):
        if state.windows:
            return ApplyOutcome(
                ledger,
                GhostViolation(
                    "second-window", action.instance,
                    detail="an instance admits one open guard window at a time",
                ),
            )
        p = state.fragment_of(action.owner, unit)
        if mode == "rule":
            verdict = guard_holds(sp, p, action.element)
            if not verdict.ok:
                return ApplyOutcome(
                    ledger,
                    GhostViolation(
                        "guard-rejected", action.instance, verdict.witness, verdict.reason
                    ),
                )
        else:
            total = joint_state(sp, state.fragments)
            if not guard_holds(sp, total, action.element).ok:
                return ApplyOutcome(
                    ledger,
                    GhostViolation(
                        "guard-rejected", action.instance, total,
                        "a completion of the live state stores too little",
                    ),
                )
        if not leq(sp.storage, action.element, state.stored):
            return ApplyOutcome(
                ledger,
                GhostViolation(
                    "guard-rejected", action.instance, state.stored,
                    f"stored content does not cover {pretty(action.element)}",
                ),
            )
        window = GuardWindow(action.instance, action.owner, action.element, action.licenses)
        new_state = state.replace(windows=state.windows + (window,))
        return ApplyOutcome(ledger.with_instance(action.instance, new_state))

    if isinstance(action, CloseGuardAction):
        if not state.windows:
            return ApplyOutcome(
                ledger, GhostViolation("no-open-window", action.instance)
            )
        bad = _windows_still_guarded(sp, state)
        if bad:
            return ApplyOutcome(ledger, bad)
        new_state = state.replace(windows=state.windows[:-1])
        return ApplyOutcome(ledger.with_instance(action.instance, new_state))

    if isinstance(action, TransferAction):
        have = state.fragment_of(action.from_owner, unit)
        if sp.protocol.compose_fn(action.remainder, action.element) != have:
            return ApplyOutcome(
                ledger,
                GhostViolation(
                    "transfer-mismatch", action.instance, have,
                    f"{pretty(action.remainder)} · {pretty(action.element)} "
                    f"is not the sender's fragment",
                ),
            )
        if action.from_owner == action.to_owner:
            return ApplyOutcome(ledger)
        fragments = _fragments_with(
            state.fragments, action.from_owner, action.remainder, unit
        )
        merged = sp.protocol.compose_fn(
            state.fragment_of(action.to_owner, unit), action.element
        )
        fragments = _fragments_with(fragments, action.to_owner, merged, unit)
        new_state = state.replace(fragments=fragments)
        return ApplyOutcome(ledger.with_instance(action.instance, new_state))

    raise TypeError(f"unknown ghost action {action!r}")


def close_windows(registry, ledger: GhostLedger) -> ApplyOutcome:
    """Close every open window (end of the licensed step)."""
    out = ledger
    for iid, state in ledger.instances:
        while out.instance(iid).windows:
            result = apply_action(registry, out, CloseGuardAction(iid))
            if not result.ok:
                return result
            out = result.ledger
    return ApplyOutcome(out)


def ledger_snapshot(ledger: GhostLedger):
    """Deterministic JSON-able snapshot (also usable as a memo key)."""
    return [
        {
            "instance": iid,
            "protocol": st.protocol,
            "fragments": [[o, term_to_json(el)] for o, el in st.fragments],
            "stored": term_to_json(st.stored),
            "windows": [
                {"owner": w.owner, "element": term_to_json(w.element), "licenses": w.licenses}
                for w in st.windows
            ],
        }
        for iid, st in ledger.instances
    ]
