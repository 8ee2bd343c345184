"""Storage protocols and their derived relations, decided by enumeration.

A storage protocol couples a total protocol monoid P with a storage
monoid S through a completeness predicate 𝒞 and a storage map 𝒮 (defined
exactly where 𝒞 holds). The derived relations — exchange (with
its deposit, withdraw and update specializations) and guard — quantify
over frames from P's enumerator and report Holds / FailsWithWitness /
HoldsUpToBound. They constrain only frames q where 𝒞(p·q) holds, so
only those frames are visited: grouped by the value of p·q, part by
part (see :func:`completion_boxes`). 𝒞 is searched as stages, one
constraint per part on the values bound so far, by backtracking over the
parts, so a value tuple that fails on a prefix is never built. A
protocol on a product P may state its own stages; any other 𝒞 is one
stage that tests the whole tuple of values.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator

from .monoid import (
    Box,
    CheckResult,
    LawCheck,
    LawReport,
    MonoidSpec,
    _box_walk,
    axes,
    components,
    check_pcm_laws,
    first_counterexample,
    leq,
    memo,
    term_order,
)
from .terms import Record, Term, pretty, ttuple

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
    "completion_boxes",
    "recheck_exchange_witness",
    "recheck_guard_witness",
]


class StorageDomainError(ValueError):
    """𝒮 applied outside 𝒞."""


# Stage j of a staged 𝒞: a test of the values (c_0, ..., c_j) of the first
# j + 1 parts of a product protocol state.
Stage = Callable[[tuple[Term, ...]], bool]


class StorageProtocolSpec(Record):
    """(P, S, 𝒞, 𝒮). P must be total (valid ≡ true); S is a PCM.

    𝒞 is given either as ``complete_fn``, or, on a product P, as
    ``stages``: one per part, where stage j tests the values of parts
    0..j and may read no later part. 𝒞 is then the conjunction of the
    stages, and :func:`completion_boxes` checks each stage as soon as its
    parts are bound. A spec takes one of the two, never both. The search
    reads a ``complete_fn`` as one stage on the whole tuple of values,
    after a trivially true stage for each earlier part.

    ``stored_of`` may assume 𝒞 holds; callers go through :meth:`stored`,
    which raises :class:`StorageDomainError` outside 𝒞.
    """

    name: str
    protocol: MonoidSpec
    storage: MonoidSpec
    complete_fn: Callable[[Term], bool] | None
    stored_of_fn: Callable[[Term], Term]
    stages: tuple[Stage, ...] = ()

    __eq__ = object.__eq__  # specs compare by identity
    __hash__ = object.__hash__

    def __post_init__(self):
        if (self.complete_fn is None) == (not self.stages):
            raise ValueError(f"{self.name}: give 𝒞 as exactly one of complete_fn and stages")
        if not self.stages:
            complete = self.complete_fn
            search = _whole_tuple(self.complete_fn, len(self.protocol.parts))
        elif len(self.stages) != len(self.protocol.parts):
            raise ValueError(
                f"{self.name}: {len(self.stages)} stages for "
                f"{len(self.protocol.parts)} protocol parts"
            )
        else:
            complete, search = _conjunction(self.stages), self.stages
        # not fields, so a replace starts afresh; _search is what the search checks
        self.__dict__.update(_cache={}, _complete=complete, _search=search)

    def complete(self, p: Term) -> bool:
        return self._complete(p)

    def stored(self, p: Term) -> Term:
        if not self._complete(p):
            raise StorageDomainError(
                f"{self.name}: 𝒮 applied outside 𝒞 at {pretty(p)}"
            )
        return self.stored_of_fn(p)

    @property
    def bounded(self) -> bool:
        return self.protocol.bounded or self.storage.bounded


def _conjunction(stages: tuple[Stage, ...]) -> Callable[[Term], bool]:
    """𝒞 of a product state: each stage holds of its prefix."""
    ends = tuple(enumerate(stages, 1))

    def complete(p):
        c = p[1]
        for end, stage in ends:
            if not stage(c[:end]):
                return False
        return True

    return complete


def _whole_tuple(complete: Callable[[Term], bool], n: int) -> tuple[Stage, ...]:
    """𝒞 as stages on a P of ``n`` parts (one part if not a product):
    trivially true until the last part is bound, then 𝒞 of the state."""
    if not n:
        return (lambda c: complete(c[0]),)
    return (lambda c: True,) * (n - 1) + (lambda c: complete(ttuple(*c)),)


class ExchangeQuery(Record):
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

    ``body`` must hold wherever p·q is not complete: only the frames in
    :func:`completion_boxes` are visited.
    """
    return memo(
        sp, key,
        lambda: first_counterexample(sp.protocol, body, sp.bounded, completion_boxes(sp, p)),
    )


def completion_boxes(sp: StorageProtocolSpec, p: Term) -> tuple[Box, ...]:
    """The enumerated frames q with 𝒞(p·q), as boxes (see :data:`Box`).

    P composes part by part (a non-product P is its own one part), so on
    each part j the elements q_j are grouped by the value of p_j·q_j.
    Where a tuple c of such values is complete, the frames q with p·q = c
    form the box of those groups. The values are bound part by part and
    stage j of 𝒞 (see :class:`StorageProtocolSpec`) is checked on each
    prefix (c_0, ..., c_j), so a prefix that fails is not extended. The
    boxes come in the order of the tuples, and 𝒞 is asked of the values
    p·q themselves, so a completion outside the enumerated carrier is
    found too. Kept in the memo.
    """
    return memo(sp, ("completions", p), lambda: tuple(_completions(sp, p)))


def _completions(sp: StorageProtocolSpec, p: Term) -> Iterator[Box]:
    """The boxes of :func:`completion_boxes`, one at a time."""
    proto = sp.protocol
    groups = [
        memo(part, ("by-value", x), _by_value, part, x)
        for part, x in zip(axes(proto), components(proto, p))
    ]
    return _staged_boxes(sp._search, groups, 0, ())


def _staged_boxes(stages, groups, j: int, prefix: tuple) -> Iterator[Box]:
    """The boxes of groups (value -> its group, one dict per part) of the
    complete tuples that extend ``prefix``, the values of parts 0..j-1,
    binding part j to each of its values in turn: chronological
    backtracking, in the order of ``itertools.product`` over the parts."""
    stage, last = stages[j], j == len(groups) - 1
    for v in groups[j]:
        c = prefix + (v,)
        if not stage(c):
            continue
        if last:
            yield [by_value[x] for by_value, x in zip(groups, c)]
        else:
            yield from _staged_boxes(stages, groups, j + 1, c)


def _by_value(part: MonoidSpec, x: Term) -> dict[Term, list[Term]]:
    """The elements q of ``part`` in term order, grouped by x·q."""
    comp = part.compose_fn
    groups: dict[Term, list[Term]] = {}
    for q in term_order(part)[0]:
        groups.setdefault(comp(x, q), []).append(q)
    return groups


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
    """Some enumerated frame completes p to a 𝒞-state: the first complete
    value tuple of :func:`completion_boxes` decides it."""
    return memo(sp, ("vf", p), lambda: next(_completions(sp, p), None) is not None)


def recheck_exchange_witness(sp: StorageProtocolSpec, q: ExchangeQuery, frame: Term) -> bool:
    """True when the frame really falsifies the exchange body (self-verifying)."""
    return exchange_body_at(sp, q, frame) is not None


def recheck_guard_witness(sp: StorageProtocolSpec, p: Term, s: Term, frame: Term) -> bool:
    return guard_body_at(sp, p, s, frame) is not None


class WellformedReport(Record):
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


def check_wellformed(sp: StorageProtocolSpec) -> WellformedReport:
    """PCM laws on both monoids, P totality, and 𝒞 ⟹ 𝒱∘𝒮 over the carrier."""
    proto_laws = check_pcm_laws(sp.protocol)
    storage_laws = check_pcm_laws(sp.storage)
    extra = []

    total = first_counterexample(
        sp.protocol, lambda p: None if sp.protocol.valid_fn(p) else "not valid"
    )
    witness = None if total.witness is None else (total.witness,)
    extra.append(LawCheck(
        "protocol-monoid-total", witness is None, not sp.protocol.bounded, total.frames, witness
    ))

    # the complete carrier elements, in carrier order: each part grouped
    # by its elements themselves, so 𝒞 is asked of the elements
    proto = sp.protocol
    singletons = [{q: [q] for q in term_order(part)[0]} for part in axes(proto)]
    walk, _ = _box_walk(proto, _staged_boxes(sp._search, singletons, 0, ()))
    witness = None
    err = ""
    n = 0
    for _, p in walk:
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
