"""Partial commutative monoids as explicit, enumerable algebras.

A :class:`MonoidSpec` packages a carrier (via a deterministic enumerator),
a total composition function, a unit, and a validity predicate. The
derived relations — extension order, frame-preserving update, and the
overlapping-conjunction premise — are decided by enumeration over the
carrier, exactly or up to the enumerator's declared bound. Every such
"for each frame" check, here and in the storage protocols, goes through
:func:`first_counterexample`; :func:`memo` keeps the results. A caller
whose body holds outside some boxes of frames (tuples of part elements)
has the walk visit only those boxes, in carrier order.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .terms import Record, Term, pretty, sort_terms, term_key, ttuple

__all__ = [
    "ElementEnumerator",
    "MonoidSpec",
    "CheckResult",
    "LawCheck",
    "LawReport",
    "HOLDS",
    "FAILS",
    "UP_TO_BOUND",
    "carrier",
    "term_order",
    "is_element",
    "compose",
    "valid",
    "leq",
    "leq_witness",
    "first_counterexample",
    "Box",
    "axes",
    "components",
    "memo",
    "frame_preserving_update",
    "and_premise",
    "check_pcm_laws",
    "DEFAULT_PAIR_LIMIT",
    "DEFAULT_TRIPLE_LIMIT",
]

HOLDS = "holds"
FAILS = "fails"
UP_TO_BOUND = "holds-up-to-bound"

# Law checks over big carriers sample a deterministic prefix; see LawReport.
DEFAULT_PAIR_LIMIT = 256
DEFAULT_TRIPLE_LIMIT = 48


class ElementEnumerator(Record):
    """Deterministic, duplicate-free stream of carrier elements.

    ``exhaustive`` mode promises to yield the whole carrier; ``bounded``
    mode yields a fixed, reproducible prefix (unit first). ``in_term_order``
    promises that the elements after the unit come in term order, so
    :func:`term_order` need only place the unit among them.
    """

    mode: str  # "exhaustive" | "bounded"
    generate: Callable[[], Iterable[Term]]
    note: str = ""
    in_term_order: bool = False

    def __post_init__(self):
        if self.mode not in ("exhaustive", "bounded"):
            raise ValueError(f"bad enumerator mode {self.mode!r}")


class MonoidSpec(Record):
    """A monoid (M, ·, ε, 𝒱) with an enumerable carrier.

    ``compose`` must be total on the carrier encoding and return canonical
    terms. Specs compare by identity; results of carrier enumeration and
    relation checks are cached on the instance. A product records its
    ``parts``: it composes part by part, and its carrier is every tuple of
    part elements, in term order with the unit moved to the front. Its
    validity may be any predicate, so laws and relations that read
    validity still walk its tuples.
    """

    name: str
    unit: Term
    compose_fn: Callable[[Term, Term], Term]
    valid_fn: Callable[[Term], bool]
    enumerator: ElementEnumerator
    parts: tuple["MonoidSpec", ...] = ()

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self):
        self.__dict__["_cache"] = {}  # see memo; not a field, so a replace starts afresh

    @property
    def bounded(self) -> bool:
        return self.enumerator.mode == "bounded"


_MISSING = object()


def memo(owner, key, compute, *args):
    """``compute(*args)``, computed once per ``key`` and kept in the cache
    of ``owner`` (a monoid or a storage protocol)."""
    cache = owner._cache
    got = cache.get(key, _MISSING)
    if got is _MISSING:
        got = cache[key] = compute(*args)
    return got


def carrier(spec: MonoidSpec) -> tuple[Term, ...]:
    """Enumerated carrier (unit first). Cached; duplicates rejected."""
    return memo(spec, "carrier", _enumerate, spec)


def _enumerate(spec: MonoidSpec) -> tuple[Term, ...]:
    elems = list(spec.enumerator.generate())
    if not elems or elems[0] != spec.unit:
        raise ValueError(f"{spec.name}: enumerator must yield the unit first")
    if len(set(elems)) != len(elems):
        raise ValueError(f"{spec.name}: enumerator yielded duplicates")
    return tuple(elems)


def term_order(spec: MonoidSpec) -> tuple[tuple[Term, ...], dict[Term, int]]:
    """The carrier sorted by term order, and each element's index in it."""
    return memo(spec, "term-order", _term_order, spec)


def _term_order(spec: MonoidSpec):
    elems = carrier(spec)
    if spec.enumerator.in_term_order:
        i = bisect_left(elems, term_key(spec.unit), 1, key=term_key)
        ordered = elems[1:i] + elems[:1] + elems[i:]
    else:
        ordered = tuple(sort_terms(elems))
    return ordered, {t: i for i, t in enumerate(ordered)}


def is_element(spec: MonoidSpec, t: Term) -> bool:
    """Whether ``t`` is enumerated in the carrier of ``spec``. A product
    asks its parts, so its own carrier is not built."""
    if spec.parts:
        return (
            t[0] == "tuple"
            and len(t[1]) == len(spec.parts)
            and all(map(is_element, spec.parts, t[1]))
        )
    return t in term_order(spec)[1]


def compose(spec: MonoidSpec, a: Term, b: Term) -> Term:
    return spec.compose_fn(a, b)


def valid(spec: MonoidSpec, a: Term) -> bool:
    return spec.valid_fn(a)


class CheckResult(Record):
    """Outcome of one enumerated relation check.

    A failing result carries a frame that, substituted back into the
    quantified body, falsifies it. ``frames`` counts carrier positions:
    up to and including the witness when the check fails, the whole
    carrier when it holds. Frames a walk over boxes skipped count too, so
    it is not the number of bodies evaluated.
    """

    verdict: str  # HOLDS | FAILS | UP_TO_BOUND
    witness: Term | None = None
    reason: str = ""
    frames: int = 0

    @property
    def ok(self) -> bool:
        return self.verdict != FAILS

    def describe(self) -> str:
        if self.ok:
            return f"{self.verdict} ({self.frames} frames)"
        return f"{self.verdict}: {self.reason} [witness {pretty(self.witness)}]"


# A box of frames: one list of distinct elements per axis of a monoid; the
# box holds every tuple of one element from each list. A product's axes
# are its parts, and its frames are those tuples; any other monoid has one
# axis, and its frames are that axis's elements.
Box = Sequence[Sequence[Term]]


def axes(spec: MonoidSpec) -> tuple[MonoidSpec, ...]:
    """The monoids a frame of ``spec`` has one component in."""
    return spec.parts or (spec,)


def components(spec: MonoidSpec, frame: Term) -> tuple[Term, ...]:
    """A frame's component on each axis (see :func:`axes`)."""
    return frame[1] if spec.parts else (frame,)


def first_counterexample(
    spec: MonoidSpec,
    body: Callable[[Term], str | None],
    bounded: bool = False,
    boxes: Iterable[Box] | None = None,
) -> CheckResult:
    """Decide ∀c. body(c) over the carrier of ``spec``, in carrier order.

    ``body`` returns None where it holds and the reason where it does
    not. The first failing frame is the witness, and ``frames`` is its
    carrier position, counted from 1; a holding verdict reports the
    carrier size. The verdict holds up to the bound when ``spec`` is
    bounded or ``bounded`` says that something else the body reads is.

    ``boxes`` is a promise by the caller: body(c) holds at every frame
    outside them. The walk then visits only the frames in the boxes,
    ranked by carrier position (see :data:`Box`), and never builds a
    product's carrier.
    """
    if boxes is None:
        frames = carrier(spec)
        walk, size = enumerate(frames), len(frames)
    else:
        walk, size = _box_walk(spec, boxes)
    for position, frame in walk:
        why = body(frame)
        if why is not None:
            return CheckResult(FAILS, frame, why, position + 1)
    return CheckResult(UP_TO_BOUND if spec.bounded or bounded else HOLDS, frames=size)


def _box_walk(spec: MonoidSpec, boxes: Iterable[Box]):
    """(every (carrier position, frame) of ``boxes`` in position order, the
    carrier size). Boxes must not overlap."""
    ranks, unit_rank, size = memo(spec, "ranks", _ranks, spec)
    ranked = []
    for box in boxes:
        columns = [list(map(rank.__getitem__, axis)) for rank, axis in zip(ranks, box)]
        ranked += zip(map(sum, itertools.product(*columns)), itertools.product(*box))
    ranked.sort(key=itemgetter(0))
    # positions follow ranks, but for the unit's frame, which goes first
    i = bisect_left(ranked, unit_rank, key=itemgetter(0))
    if i < len(ranked) and ranked[i][0] == unit_rank:
        ranked.insert(0, ranked.pop(i))
    frame = ttuple if spec.parts else lambda c: c
    return ((0 if r == unit_rank else r + (r < unit_rank), frame(*c)) for r, c in ranked), size


def _ranks(spec: MonoidSpec):
    """(per axis, each element's rank times the axis's stride; the unit's
    rank; the carrier size). A frame's rank is the sum over its axes. A
    product's carrier is its parts' term orders multiplied out, with the
    unit moved to the front, so a tuple's rank is its mixed-radix rank
    there, and its position is that rank shifted by one if it ranks below
    the unit. Any other carrier is indexed, unit first: rank is position."""
    if not spec.parts:
        index = {t: i for i, t in enumerate(carrier(spec))}
        return [index], 0, len(index)
    ranks, stride = [], 1
    for part in reversed(spec.parts):
        index = term_order(part)[1]
        ranks.insert(0, {t: stride * i for t, i in index.items()})
        stride *= len(index)
    unit_rank = sum(rank[u] for rank, u in zip(ranks, spec.unit[1]))
    return ranks, unit_rank, stride


def _image(spec: MonoidSpec, a: Term) -> Callable[[Term], bool]:
    """Membership in {a·c : c enumerated}, which decides a ≼ t. A product's
    carrier is every tuple of part elements, so t_j in the image of a_j for
    every part j decides it, without composing the product's tuples."""
    if spec.parts:
        tests = [_image(part, x) for part, x in zip(spec.parts, a[1])]
        return lambda t: all(test(x) for test, x in zip(tests, t[1]))
    comp = spec.compose_fn
    return frozenset(comp(a, c) for c in carrier(spec)).__contains__


def leq(spec: MonoidSpec, a: Term, b: Term) -> bool:
    """a ≼ b: some enumerated c satisfies a·c = b."""
    return leq_witness(spec, a, b) is not None


def leq_witness(spec: MonoidSpec, a: Term, b: Term) -> Term | None:
    """The first enumerated c with a·c = b: a counterexample to a ⋠ b."""
    comp = spec.compose_fn
    return first_counterexample(spec, lambda c: "extends" if comp(a, c) == b else None).witness


def frame_preserving_update(spec: MonoidSpec, a: Term, b: Term) -> CheckResult:
    """a ⇝ b: every frame c with 𝒱(a·c) also satisfies 𝒱(b·c)."""
    comp, ok = spec.compose_fn, spec.valid_fn

    def body(c):
        if ok(comp(a, c)) and not ok(comp(b, c)):
            return f"frame keeps {pretty(a)} valid but not {pretty(b)}"

    return first_counterexample(spec, body)


def and_premise(spec: MonoidSpec, x: Term, y: Term, z: Term) -> CheckResult:
    """∀t. (x ≼ t ∧ y ≼ t ∧ 𝒱(t)) ⟹ z ≼ t, over the enumerated carrier.
    On a product, ≼ is decided part by part (see :func:`_image`), so the
    walk visits the one box of tuples whose every part extends both x's
    and y's."""
    parts = axes(spec)
    box = [
        [c for c in term_order(part)[0] if above_x(c) and above_y(c)]
        for part, above_x, above_y in zip(
            parts, map(_image, parts, components(spec, x)), map(_image, parts, components(spec, y))
        )
    ]
    above_z = _image(spec, z)
    ok = spec.valid_fn

    def body(t):
        if ok(t) and not above_z(t):
            return f"{pretty(t)} extends both operands but not {pretty(z)}"

    return first_counterexample(spec, body, boxes=[box])


class LawCheck(Record):
    law: str
    ok: bool
    exhaustive: bool
    checked: int
    witness: tuple[Term, ...] | None = None

    def describe(self) -> str:
        status = "ok" if self.ok else "FAILED"
        scope = "exhaustive" if self.exhaustive else "sampled"
        out = f"{self.law}: {status} ({scope}, {self.checked} cases)"
        if self.witness is not None:
            out += " witness " + ", ".join(pretty(t) for t in self.witness)
        return out


class LawReport(Record):
    name: str
    mode: str
    carrier_size: int
    checks: tuple[LawCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def describe(self) -> str:
        head = f"{self.name} [{self.mode}, {self.carrier_size} elements]"
        return "\n".join([head] + ["  " + c.describe() for c in self.checks])


def check_pcm_laws(
    spec: MonoidSpec,
    pair_limit: int = DEFAULT_PAIR_LIMIT,
    triple_limit: int = DEFAULT_TRIPLE_LIMIT,
) -> LawReport:
    """Unit, commutativity, associativity, and validity downward closure.

    Unit laws run over the whole enumerated carrier. Pair and triple laws
    run over a deterministic prefix capped at ``pair_limit``/``triple_limit``
    elements; each check reports whether it covered the full carrier.
    A product decides its unit, commutativity and associativity laws on
    its parts (see :func:`_decide`), with the report the loops over its
    tuples would give. Associativity compares numbered products, each
    composed once (see :func:`_associativity`), and reports the first
    failing triple in loop order and the cases up to it, as a loop over
    the triples would.
    """
    elems = carrier(spec)
    comp, ok = spec.compose_fn, spec.valid_fn
    exhaustive_carrier = not spec.bounded
    pair_elems = elems[: max(pair_limit, 1)]
    triple_elems = elems[: max(triple_limit, 1)]
    pairs_full = exhaustive_carrier and len(pair_elems) == len(elems)
    triples_full = exhaustive_carrier and len(triple_elems) == len(elems)
    m, k = len(pair_elems), len(triple_elems)
    checks = []

    witness, n = _decide(spec, _unit_identity, elems, len(elems))
    checks.append(LawCheck("unit-right-identity", witness is None, exhaustive_carrier, n, witness))

    checks.append(
        LawCheck("unit-valid", ok(spec.unit), True, 1, None if ok(spec.unit) else (spec.unit,))
    )

    witness, n = _decide(spec, _commutativity, pair_elems, m * (m + 1) // 2)
    checks.append(LawCheck("commutativity", witness is None, pairs_full, n, witness))

    witness, n = _decide(spec, _associativity, triple_elems, k**3)
    checks.append(LawCheck("associativity", witness is None, triples_full, n, witness))

    # a ≼ b ∧ 𝒱(b) ⟹ 𝒱(a), phrased over extensions b = a·c.
    witness = None
    n = 0
    for a in pair_elems:
        if ok(a):
            continue
        for c in pair_elems:
            n += 1
            if ok(comp(a, c)):
                witness = (a, c)
                break
        if witness:
            break
    checks.append(LawCheck("validity-downward-closed", witness is None, pairs_full, n, witness))

    return LawReport(spec.name, spec.enumerator.mode, len(elems), tuple(checks))


# Each law below decides its cases over ``elems`` in order and returns (the
# first witness or None, the cases checked up to and including it).


def _unit_identity(spec: MonoidSpec, elems):
    comp, unit = spec.compose_fn, spec.unit
    for a in elems:
        if comp(a, unit) != a:
            return (a,), len(elems)
    return None, len(elems)


def _commutativity(spec: MonoidSpec, elems):
    comp = spec.compose_fn
    n = 0
    for i, a in enumerate(elems):
        for b in elems[i:]:
            n += 1
            if comp(a, b) != comp(b, a):
                return (a, b), n
    return None, n


def _associativity(spec: MonoidSpec, elems):
    """(a·b)·c = a·(b·c) for every triple of the k ``elems``, decided on
    numbered products (see :func:`_numbering`). With
    table[i][j] = #(e_i·e_j), triple (h, i, j) holds when
    #(table[h][i]·e_j) = #(e_h·table[i][j]), so row (h, i) is one compare
    of two lists of numbers. Each v·c is composed once per distinct
    product v, and each a·w once per a and distinct product w: at most
    2·|V|·k + k² compositions for the |V| distinct products of two
    elements, in place of 2·k³. Compositions do not follow the order of
    the triples, so compose must be total on these products; every
    builtin compose is, and a loaded table has a row for every pair. The
    witness and case count are those of the first failing triple in
    order, as a loop over the triples would report."""
    comp = spec.compose_fn
    number, terms = _numbering()
    table = [[number(comp(b, c)) for c in elems] for b in elems]
    inner = terms[:]  # the distinct products b·c, by number
    left = {}  # v -> [#(v·c) for each c]
    k = len(elems)
    for h, a in enumerate(elems):
        right = [number(comp(a, w)) for w in inner]  # w -> #(a·w)
        for i, v in enumerate(table[h]):
            row = left.get(v)
            if row is None:
                row = left[v] = [number(comp(inner[v], c)) for c in elems]
            got = list(map(right.__getitem__, table[i]))
            if row != got:
                j = next(j for j, (x, y) in enumerate(zip(row, got)) if x != y)
                return (a, elems[i], elems[j]), (h * k + i) * k + j + 1
    return None, k**3


class _Numbering(dict):
    """Each distinct term's number, from 0 in the order first met, and
    ``terms[n]``, the term numbered n; a term met before is one lookup."""

    def __init__(self):
        self.terms = []

    def __missing__(self, t):
        n = self[t] = len(self.terms)
        self.terms.append(t)
        return n


def _numbering():
    """(number, terms): ``number(t)`` gives each distinct term an int, so two
    numbers are equal exactly when their terms are ==; see :class:`_Numbering`."""
    numbering = _Numbering()
    return numbering.__getitem__, numbering.terms


def _decide(spec: MonoidSpec, law, elems, holding_count: int):
    """``law(spec, elems)``, with ``holding_count`` cases checked where it
    holds. A product composes part by part, so the law fails at a tuple
    exactly where it fails in some part at that tuple's components, and
    every pair or triple of a column's values is that column of some pair
    or triple of ``elems``. So it is decided on the parts first; the loop
    over tuples runs only when a part fails, to find the first witness."""
    if spec.parts and _holds_in_parts(spec, law, elems):
        return None, holding_count
    return law(spec, elems)


def _holds_in_parts(spec: MonoidSpec, law, elems) -> bool:
    if not spec.parts:
        return law(spec, elems)[0] is None
    # part j is checked on the values of column j, each once
    return all(
        _holds_in_parts(part, law, tuple({t[1][j]: None for t in elems}))
        for j, part in enumerate(spec.parts)
    )
