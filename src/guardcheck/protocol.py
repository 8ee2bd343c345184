"""Storage protocols and their derived relations, decided by enumeration.

A storage protocol couples a total protocol monoid P with a storage
monoid S through a completeness predicate 𝒞 and a storage map 𝒮 (defined
exactly where 𝒞 holds). The derived relations — exchange (with
its deposit, withdraw and update specializations) and guard — quantify
over frames from P's enumerator and report Holds / FailsWithWitness /
HoldsUpToBound. They constrain only frames q where 𝒞(p·q) holds, so
where 𝒞 rejects every element with a ⊥ part, the frames that give p·q a
⊥ part are skipped (see :func:`quantify_frames`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .monoid import (
    CheckResult,
    LawCheck,
    LawReport,
    MonoidSpec,
    carrier,
    check_pcm_laws,
    first_counterexample,
    leq,
    memo,
)
from .terms import BOT, Term, pretty

__all__ = [
    "StorageProtocolSpec",
    "ExchangeQuery",
    "StorageDomainError",
    "WellformedReport",
    "check_wellformed",
    "exchange_holds",
    "guard_holds",
    "valid_fragment",
    "exchange_body_at",
    "guard_body_at",
    "quantify_frames",
    "recheck_exchange_witness",
    "recheck_guard_witness",
]


class StorageDomainError(ValueError):
    """𝒮 applied outside 𝒞."""


@dataclass(eq=False)
class StorageProtocolSpec:
    """(P, S, 𝒞, 𝒮). P must be total (valid ≡ true); S is a PCM.

    ``stored_of`` may assume 𝒞 holds; callers go through :meth:`stored`,
    which raises :class:`StorageDomainError` outside 𝒞.

    ``bot_parts_incomplete`` (for a product P only) makes 𝒞 fail at every
    element with a ⊥ part, before ``complete_fn`` is asked. Relation
    checks then skip the frames q where some part of p·q is ⊥.
    """

    name: str
    protocol: MonoidSpec
    storage: MonoidSpec
    complete_fn: Callable[[Term], bool]
    stored_of_fn: Callable[[Term], Term]
    bot_parts_incomplete: bool = False
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.bot_parts_incomplete:
            decide = self.complete_fn
            self.complete_fn = lambda p: BOT not in p[1] and decide(p)

    def complete(self, p: Term) -> bool:
        return self.complete_fn(p)

    def stored(self, p: Term) -> Term:
        if not self.complete_fn(p):
            raise StorageDomainError(
                f"{self.name}: 𝒮 applied outside 𝒞 at {pretty(p)}"
            )
        return self.stored_of_fn(p)

    @property
    def bounded(self) -> bool:
        return self.protocol.bounded or self.storage.bounded


@dataclass(frozen=True)
class ExchangeQuery:
    """One (p, s) ⇝⇝ (p', s') question, with the ε-specializations tagged.

    Orientation: ``s`` is deposited into the protocol, ``s_after`` is
    withdrawn from it.
    """

    p: Term
    s: Term
    p_after: Term
    s_after: Term
    kind: str = "exchange"  # exchange | deposit | withdraw | update

    @classmethod
    def exchange(cls, p: Term, s: Term, p_after: Term, s_after: Term) -> "ExchangeQuery":
        return cls(p, s, p_after, s_after, "exchange")

    @classmethod
    def deposit(cls, p: Term, s: Term, p_after: Term, storage_unit: Term) -> "ExchangeQuery":
        return cls(p, s, p_after, storage_unit, "deposit")

    @classmethod
    def withdraw(cls, p: Term, p_after: Term, s_after: Term, storage_unit: Term) -> "ExchangeQuery":
        return cls(p, storage_unit, p_after, s_after, "withdraw")

    @classmethod
    def update(cls, p: Term, p_after: Term, storage_unit: Term) -> "ExchangeQuery":
        return cls(p, storage_unit, p_after, storage_unit, "update")

    def check_shape(self, sp: StorageProtocolSpec) -> None:
        eps = sp.storage.unit
        if self.kind == "deposit" and self.s_after != eps:
            raise ValueError("deposit fixes s_after = ε")
        if self.kind == "withdraw" and self.s != eps:
            raise ValueError("withdraw fixes s = ε")
        if self.kind == "update" and (self.s != eps or self.s_after != eps):
            raise ValueError("update fixes both storage sides to ε")


def exchange_body_at(sp: StorageProtocolSpec, q: ExchangeQuery, frame: Term) -> str | None:
    """The exchange body at one frame: None if it holds, else why not."""
    comp_p = sp.protocol.compose_fn
    comp_s = sp.storage.compose_fn
    pq = comp_p(q.p, frame)
    if not sp.complete(pq):
        return None
    if not sp.complete(comp_p(q.p_after, frame)):
        return "completion lost after transition"
    before = comp_s(sp.stored(pq), q.s)
    if not sp.storage.valid_fn(before):
        return "stored content composed with deposit is invalid"
    after = comp_s(sp.stored(comp_p(q.p_after, frame)), q.s_after)
    if before != after:
        return f"storage books disagree: {pretty(before)} vs {pretty(after)}"
    return None


def guard_body_at(sp: StorageProtocolSpec, p: Term, s: Term, frame: Term) -> str | None:
    """The guard body at one frame: None if it holds, else why not."""
    pq = sp.protocol.compose_fn(p, frame)
    if sp.complete(pq) and not leq(sp.storage, s, sp.stored(pq)):
        return f"completion stores {pretty(sp.stored(pq))}, short of {pretty(s)}"
    return None


def quantify_frames(
    sp: StorageProtocolSpec, key, p: Term, body: Callable[[Term], str | None]
) -> CheckResult:
    """∀q. body(q) over the protocol frames, kept in the memo under ``key``.

    ``body`` must hold wherever p·q is not complete: the frames that give
    p·q a ⊥ part are then skipped when 𝒞 rejects those by construction.
    """
    return memo(
        sp, key, first_counterexample, sp.protocol, body, sp.bounded,
        p if sp.bot_parts_incomplete else None,
    )


def exchange_holds(sp: StorageProtocolSpec, q: ExchangeQuery) -> CheckResult:
    """(p, s) ⇝⇝ (p', s') quantified over enumerated protocol frames."""
    q.check_shape(sp)
    return quantify_frames(
        sp, ("exch", q.p, q.s, q.p_after, q.s_after), q.p, partial(exchange_body_at, sp, q)
    )


def guard_holds(sp: StorageProtocolSpec, p: Term, s: Term) -> CheckResult:
    """p ↝ s: every 𝒞-completion of p stores at least s."""
    return quantify_frames(sp, ("guard", p, s), p, partial(guard_body_at, sp, p, s))


def valid_fragment(sp: StorageProtocolSpec, p: Term) -> bool:
    """Some enumerated frame completes p to a 𝒞-state."""
    comp_p = sp.protocol.compose_fn
    found = quantify_frames(
        sp, ("vf", p), p, lambda q: "completes" if sp.complete(comp_p(p, q)) else None
    )
    return not found.ok


def recheck_exchange_witness(sp: StorageProtocolSpec, q: ExchangeQuery, frame: Term) -> bool:
    """True when the frame really falsifies the exchange body (self-verifying)."""
    return exchange_body_at(sp, q, frame) is not None


def recheck_guard_witness(sp: StorageProtocolSpec, p: Term, s: Term, frame: Term) -> bool:
    return guard_body_at(sp, p, s, frame) is not None


@dataclass(frozen=True)
class WellformedReport:
    name: str
    protocol_laws: LawReport
    storage_laws: LawReport
    extra: tuple[LawCheck, ...]

    @property
    def ok(self) -> bool:
        return self.protocol_laws.ok and self.storage_laws.ok and all(c.ok for c in self.extra)

    def describe(self) -> str:
        lines = [f"storage protocol {self.name}"]
        lines += ["  " + line for line in self.protocol_laws.describe().splitlines()]
        lines += ["  " + line for line in self.storage_laws.describe().splitlines()]
        lines += ["  " + c.describe() for c in self.extra]
        return "\n".join(lines)


def check_wellformed(sp: StorageProtocolSpec, **law_limits) -> WellformedReport:
    """PCM laws on both monoids, P totality, and 𝒞 ⟹ 𝒱∘𝒮 over the carrier."""
    proto_laws = check_pcm_laws(sp.protocol, **law_limits)
    storage_laws = check_pcm_laws(sp.storage, **law_limits)
    extra = []

    total = first_counterexample(
        sp.protocol, lambda p: None if sp.protocol.valid_fn(p) else "not valid"
    )
    witness = None if total.witness is None else (total.witness,)
    extra.append(LawCheck(
        "protocol-monoid-total", witness is None, not sp.protocol.bounded, total.frames, witness
    ))

    witness = None
    err = ""
    n = 0
    for p in carrier(sp.protocol):
        if not sp.complete(p):
            continue
        n += 1
        try:
            if not sp.storage.valid_fn(sp.stored(p)):
                witness = (p,)
                break
        except StorageDomainError as exc:  # reported, not raised
            witness = (p,)
            err = str(exc)
            break
    name = "complete-implies-valid-storage" + (" (domain error)" if err else "")
    extra.append(LawCheck(name, witness is None, not sp.protocol.bounded, n, witness))

    return WellformedReport(sp.name, proto_laws, storage_laws, tuple(extra))
