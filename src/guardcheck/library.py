"""Ready-made monoids and storage protocols.

Combinators (excl, agn, agnvec, nat, int, frac, product, finmap) plus the
named constructions used by the case studies: the fractional, counting and
forever protocols, the reader-writer lock protocol (single and
multi-counter), and the linear-probing hash-table monoid with its
closure-based validity.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import gcd

from .monoid import ElementEnumerator, MonoidSpec, carrier, term_order
from .protocol import StorageProtocolSpec
from .terms import (
    BOT,
    UNIT,
    Record,
    Term,
    con_args,
    map_entries,
    map_get,
    map_remove,
    map_set,
    pretty,
    sort_terms,
    tbool,
    tcon,
    tfrac,
    tint,
    tmap,
    tsym,
    ttuple,
)

__all__ = [
    "EX",
    "build_excl",
    "build_agn",
    "build_agnvec",
    "build_nat",
    "build_int",
    "build_frac",
    "build_product",
    "build_finmap",
    "build_table_monoid",
    "build_trivial",
    "as_total",
    "pcm_as_protocol",
    "build_fractional",
    "build_fractional_memory",
    "build_counting",
    "CountingElems",
    "build_forever",
    "build_rwlock",
    "RwLockElems",
    "build_rwlock_multi",
    "HashFunctionSpec",
    "build_hashtable_monoid",
    "build_hashtable_protocol",
    "HashTableElems",
    "NONE",
    "some",
    "ex",
]

EX = tcon("ex")  # payload-free exclusive token
NONE = tcon("none")


def some(t: Term) -> Term:
    return tcon("some", t)


def ex(t: Term) -> Term:
    return tcon("ex", t)


def _enum(elements, unit, mode, note=""):
    elems = tuple([unit] + sort_terms(set(elements) - {unit}))
    return ElementEnumerator(mode, lambda: iter(elems), note, in_term_order=True)


# ---------------------------------------------------------------------------
# Combinators


def _excl_compose(a, b):
    if a == UNIT:
        return b
    if b == UNIT:
        return a
    return BOT


def _excl(name: str, tokens) -> MonoidSpec:
    """ε, the given exclusive tokens, and the conflict element ⊥."""
    elems = [UNIT, BOT, *tokens]
    return MonoidSpec(
        name, UNIT, _excl_compose, lambda t: t != BOT, _enum(elems, UNIT, "exhaustive")
    )


def build_excl(values: tuple[Term, ...], name: str = "excl") -> MonoidSpec:
    """Exclusive-ownership monoid: ε, ex(x), and the conflict element ⊥."""
    return _excl(name, [ex(v) for v in values])


def agn(x: Term, n: int) -> Term:
    if n < 1:
        raise ValueError("agreement count must be >= 1")
    return tcon("agn", x, tint(n))


def _agreement(name: str, values: tuple[Term, ...], counts: MonoidSpec, note: str) -> MonoidSpec:
    """Agreement monoid: agn(x, n) for a value x and a count n of
    ``counts`` other than its unit; counts compose on agreement, and
    disagreement is ⊥."""
    add = counts.compose_fn

    def compose(a, b):
        if a == UNIT:
            return b
        if b == UNIT:
            return a
        if a == BOT or b == BOT:
            return BOT
        ax, an = a[2]
        bx, bn = b[2]
        if ax != bx:
            return BOT
        return tcon("agn", ax, add(an, bn))

    ns = carrier(counts)[1:]  # the unit comes first
    elems = [UNIT, BOT] + [tcon("agn", v, n) for v in values for n in ns]
    return MonoidSpec(name, UNIT, compose, lambda t: t != BOT, _enum(elems, UNIT, "bounded", note))


def build_agn(values: tuple[Term, ...], max_count: int = 4, name: str = "agn") -> MonoidSpec:
    """Agreement monoid: agn(x, n) sums counts on agreement, ⊥ otherwise."""
    return _agreement(name, values, build_nat(max_count), f"counts <= {max_count}")


def agnvec(x: Term, counts: tuple[int, ...]) -> Term:
    if not any(counts) or any(c < 0 for c in counts):
        raise ValueError("agreement count vector must be nonzero and nonnegative")
    return tcon("agn", x, ttuple(*(tint(c) for c in counts)))


def build_agnvec(
    values: tuple[Term, ...], k: int, max_count: int = 2, name: str = "agnvec"
) -> MonoidSpec:
    """Vector-count agreement monoid (elementwise count addition)."""
    if k < 1:
        raise ValueError("need at least one counter")
    counts = build_product(f"{name}-counts", [build_nat(max_count)] * k)
    return _agreement(name, values, counts, f"K={k}, counts <= {max_count}")


def build_nat(limit: int = 8, name: str = "nat") -> MonoidSpec:
    return build_int(0, limit, name)


def build_int(lo: int = -8, hi: int = 8, name: str = "int") -> MonoidSpec:
    if lo > hi:
        raise ValueError(f"lo {lo} > hi {hi}")

    def compose(a, b):
        return ("int", a[1] + b[1])

    return MonoidSpec(
        name,
        tint(0),
        compose,
        lambda t: True,
        _enum([tint(n) for n in range(lo, hi + 1)], tint(0), "bounded", f"{lo}..{hi}"),
    )


def build_frac(den_bound: int = 12, max_value: int = 4, name: str = "frac") -> MonoidSpec:
    """Nonnegative rationals under addition, enumerated as the reduced
    fractions in [0, max_value] with denominator <= den_bound."""

    def compose(a, b):  # tfrac's reduction, for positive denominators
        g = gcd(num := a[1] * b[2] + b[1] * a[2], den := a[2] * b[2])
        return ("frac", num // g, den // g)

    # each value once, at its least denominator: where num / den is reduced
    elems = [tfrac(0)]
    for den in range(1, den_bound + 1):
        elems += [("frac", num, den) for num in range(1, max_value * den + 1) if gcd(num, den) == 1]
    return MonoidSpec(
        name,
        tfrac(0),
        compose,
        lambda t: True,
        _enum(elems, tfrac(0), "bounded", f"den <= {den_bound}, value <= {max_value}"),
    )


def build_product(name: str, parts: list[MonoidSpec], total: bool = False) -> MonoidSpec:
    """Componentwise product: it composes and enumerates part by part.
    ``total`` forces validity to be constantly true (protocol-monoid
    convention); otherwise validity is componentwise. A caller may
    ``replace`` the result's ``valid_fn``, as the hash table does: validity
    need not be componentwise."""
    units = ttuple(*(p.unit for p in parts))
    fns = [p.compose_fn for p in parts]
    vals = [p.valid_fn for p in parts]

    def compose(a, b):
        return ttuple(*(f(x, y) for f, x, y in zip(fns, a[1], b[1])))

    if total:
        def valid_fn(t):
            return True
    else:
        def valid_fn(t):
            return all(v(x) for v, x in zip(vals, t[1]))

    mode = "bounded" if any(p.bounded for p in parts) else "exhaustive"

    def generate():
        # every tuple of part elements, each part in term order: tuples
        # compare part by part, so the product is in term order as
        # generated; the unit moves to the front
        elems = [ttuple(*c) for c in itertools.product(*(term_order(p)[0] for p in parts))]
        elems.remove(units)
        return iter([units] + elems)

    return MonoidSpec(
        name, units, compose, valid_fn, ElementEnumerator(mode, generate, in_term_order=True),
        tuple(parts),
    )


def build_finmap(keys: tuple[Term, ...], value: MonoidSpec, name: str = "finmap") -> MonoidSpec:
    """Finite maps into a monoid, composed pointwise; unit entries dropped.

    A map's entries are in the keys' term order, so maps are built and
    composed in that order, with nothing to sort: the carrier is generated
    in term order (see ``generate``) and two maps compose by a merge of
    their entries on key rank."""
    for i, k in enumerate(keys):
        if k in keys[:i]:
            raise ValueError(f"duplicate key {pretty(k)}")
    vunit = value.unit
    vcomp = value.compose_fn
    vvalid = value.valid_fn
    ordered = sort_terms(keys)
    rank = {k: i for i, k in enumerate(ordered)}  # tmap's order on the keys

    def compose(a, b):
        ea, eb = map_entries(a), map_entries(b)
        if not ea:
            return b
        if not eb:
            return a
        out = []
        i = j = 0
        try:
            while i < len(ea) and j < len(eb):
                ka, kb = ea[i][0], eb[j][0]
                ra, rb = rank[ka], rank[kb]
                if ra < rb:
                    out.append(ea[i])
                    i += 1
                elif rb < ra:
                    out.append(eb[j])
                    j += 1
                else:
                    v = vcomp(ea[i][1], eb[j][1])
                    if v != vunit:
                        out.append((ka, v))
                    i += 1
                    j += 1
        except KeyError:  # a key that is not declared
            merged = dict(ea)
            for k, v in eb:
                merged[k] = vcomp(merged[k], v) if k in merged else v
            return tmap((k, v) for k, v in merged.items() if v != vunit)
        return ("map", (*out, *ea[i:], *eb[j:]))

    def valid_fn(t):
        return all(vvalid(v) for _, v in map_entries(t))

    def generate():
        # maps compare by size, then entry by entry, key before value:
        # so for each size, the maps whose first key is least come first,
        # by value, each followed by its rest in the same order
        values = [v for v in term_order(value)[0] if v != vunit]

        @cache
        def rests(lo, size):
            """The entry tuples of ``size`` keys ranked from ``lo``, in order."""
            if not size:
                return [()]
            return [
                ((ordered[r], v), *rest)
                for r in range(lo, len(ordered) - size + 1)
                for v in values
                for rest in rests(r + 1, size - 1)
            ]

        return (("map", e) for size in range(len(ordered) + 1) for e in rests(0, size))

    mode = "bounded" if value.bounded else "exhaustive"
    enumerator = ElementEnumerator(mode, generate, in_term_order=True)
    return MonoidSpec(name, tmap(()), compose, valid_fn, enumerator)


def build_table_monoid(
    name: str,
    elements: list[Term],
    unit: Term,
    table: dict[tuple[Term, Term], Term],
    invalid: tuple[Term, ...] = (),
) -> MonoidSpec:
    """Small custom monoid given by an explicit composition table."""
    bad = frozenset(invalid)

    def compose(a, b):
        got = table.get((a, b))
        if got is None:
            got = table.get((b, a))
        if got is None:
            raise KeyError(f"{name}: no table entry for {a!r} · {b!r}")
        return got

    return MonoidSpec(
        name, unit, compose, lambda t: t not in bad, _enum(elements, unit, "exhaustive")
    )


def build_trivial(name: str = "trivial") -> MonoidSpec:
    return MonoidSpec(
        name, UNIT, lambda a, b: UNIT, lambda t: True, _enum([UNIT], UNIT, "exhaustive")
    )


def as_total(spec: MonoidSpec, name: str | None = None) -> MonoidSpec:
    """Same carrier, composition and parts, validity constantly true. The
    carrier is read from ``spec``, so it is enumerated once for both."""
    return MonoidSpec(
        name or spec.name + "-total",
        spec.unit,
        spec.compose_fn,
        lambda t: True,
        spec.enumerator.replace(generate=lambda: carrier(spec)),
        spec.parts,
    )


def pcm_as_protocol(spec: MonoidSpec, name: str | None = None) -> StorageProtocolSpec:
    """View a PCM as a storage protocol with trivial storage.

    𝒞 is the PCM's validity and 𝒮 is constantly ε, so exchange with ε on
    both storage sides coincides with the frame-preserving update over
    validity-reachable frames.
    """
    trivial = build_trivial(f"{spec.name}-storage")
    return StorageProtocolSpec(
        name or spec.name,
        as_total(spec),
        trivial,
        spec.valid_fn,
        lambda p: UNIT,
    )


# ---------------------------------------------------------------------------
# Fractional, counting, forever


def build_fractional(den_bound: int = 12, max_value: int = 4, nat_limit: int = 16) -> StorageProtocolSpec:
    """One shared item split into rational shares.

    Protocol states are nonnegative rationals (addition), storage counts
    items; a state is complete exactly when it is an integer, and an
    integer state stores that many items.
    """
    protocol = build_frac(den_bound, max_value, name="frac")
    storage = build_nat(nat_limit, name="nat")
    return StorageProtocolSpec(
        "fractional",
        protocol,
        storage,
        lambda p: p[2] == 1 and p[1] >= 0,
        lambda p: tint(p[1]),
    )


def build_fractional_memory(
    keys: tuple[Term, ...], den_bound: int = 4, max_value: int = 2, nat_limit: int = 4
) -> StorageProtocolSpec:
    """Per-key fractional shares: everything defined elementwise over a
    finite key set (keys stand for location/value pairs)."""
    protocol = build_finmap(keys, build_frac(den_bound, max_value), name="frac-map")
    storage = build_finmap(keys, build_nat(nat_limit), name="nat-map")

    def complete(p):
        return all(v[2] == 1 and v[1] >= 0 for _, v in map_entries(p))

    def stored_of(p):
        return tmap((k, tint(v[1])) for k, v in map_entries(p) if v[1] != 0)

    return StorageProtocolSpec("fractional-memory", protocol, storage, complete, stored_of)


def _ctor(n: int, build):
    """A named constructor: ``build(args)`` for exactly ``n`` argument terms."""

    def ctor(args):
        if len(args) != n:
            raise ValueError(f"takes {n} argument(s), got {len(args)}")
        return build(args)

    return ctor


def _payload(t: Term, tag: str):
    """The payload of a named constructor's argument ``t``, a ``tag`` term."""
    if t[0] != tag:
        raise ValueError(f"expected a {tag}, got {pretty(t)}")
    return t[1]


class CountingElems(Record):
    """Named elements of the counting protocol."""

    def ref(self) -> Term:
        return ttuple(tint(-1), tint(0))

    def counter(self, r: int) -> Term:
        return ttuple(tint(r), tint(1))

    def element(self, r: int, c: int) -> Term:
        if c < 0:
            raise ValueError("count must be nonnegative")
        if c == 0 and r > 0:
            raise ValueError(f"({r}, 0) is outside the counting carrier (needs r <= 0)")
        return ttuple(tint(r), tint(c))

    @property
    def constructors(self):
        return {
            "ref": _ctor(0, lambda args: self.ref()),
            "counter": _ctor(1, lambda args: self.counter(_payload(args[0], "int"))),
        }


def build_counting(
    r_range: tuple[int, int] = (-4, 4),
    c_max: int = 4,
    nat_limit: int = 8,
    drop_carrier_constraint: bool = False,
) -> tuple[StorageProtocolSpec, CountingElems]:
    """Counting protocol: pairs (r, c) under pairwise addition with the
    carrier constraint c = 0 ⟹ r <= 0; complete iff r = 0; stores c.

    ``drop_carrier_constraint`` admits the out-of-carrier elements (r > 0,
    c = 0) — a deliberately broken variant for negative controls.
    """

    def compose(a, b):
        return ("tuple", (("int", a[1][0][1] + b[1][0][1]), ("int", a[1][1][1] + b[1][1][1])))

    lo, hi = r_range
    elems = []
    for r in range(lo, hi + 1):
        for c in range(c_max + 1):
            if c == 0 and r > 0 and not drop_carrier_constraint:
                continue
            elems.append(ttuple(tint(r), tint(c)))
    name = "counting" + ("-unconstrained" if drop_carrier_constraint else "")
    protocol = MonoidSpec(
        name,
        ttuple(tint(0), tint(0)),
        compose,
        lambda t: True,
        _enum(elems, ttuple(tint(0), tint(0)), "bounded", f"r in {r_range}, c <= {c_max}"),
    )
    storage = build_nat(nat_limit)
    sp = StorageProtocolSpec(
        name,
        protocol,
        storage,
        lambda p: p[1][0] == tint(0),
        lambda p: p[1][1],
    )
    return sp, CountingElems()


def build_forever() -> StorageProtocolSpec:
    """Trivial protocol monoid over Excl(1) storage: content goes in once
    and is guarded by ε forever; no interesting updates exist."""
    protocol = build_trivial("forever-protocol")
    storage = build_excl((tint(1),), name="excl-1")
    return StorageProtocolSpec(
        "forever", protocol, storage, lambda p: True, lambda p: ex(tint(1))
    )


# ---------------------------------------------------------------------------
# Reader-writer lock protocols
#
# Both locks share one element layout, a 5-tuple
#   (fields, exc-pending token, exc token, pending readers, reader agreement)
# where fields is ex((exc flag, counters, value)) and reader agreement is
# agn(value, readers). One class, RwLockElems, reads and writes it for
# both locks, and the resolvers in resolvers.py go through its methods.
# Those methods take counters as tuples of k counts. Its codec (_vec,
# _counts and _token, and exc_pending_index, which reads a token back)
# writes them as terms, and is the one place where the locks differ: the
# single lock writes a count vector as one int and the pending-writer
# token as EX; the multi-counter lock (vector=True, any k) writes a vector
# as a k-tuple and the token as ex(j), for a writer that has seen
# counters 0..j-1 at zero. A lock's builder uses the same codec for the
# counters and tokens in its carrier.


def _set_part(p: Term, i: int, v: Term) -> Term:
    """The tuple ``p`` with its i-th part replaced by ``v``."""
    return ttuple(*p[1][:i], v, *p[1][i + 1 :])


class RwLockElems(Record):
    """Named elements of a lock with ``k`` counters; an index j defaults to 0."""

    values: tuple[Term, ...]
    k: int = 1
    vector: bool = False

    def _vec(self, counts: tuple[int, ...]) -> Term:
        return ttuple(*(tint(c) for c in counts)) if self.vector else tint(counts[0])

    def _counts(self, t: Term) -> tuple[int, ...]:
        return tuple(c[1] for c in t[1]) if self.vector else (t[1],)

    def _token(self, j: int) -> Term:
        return ex(tint(j)) if self.vector else EX

    def _unit_vec(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.k:
            raise ValueError(f"counter index {j} out of range [0, {self.k})")
        return tuple(int(i == j) for i in range(self.k))

    def _no_readers(self) -> Term:
        return self._vec((0,) * self.k)

    def fields(self, exc: bool, rc, x: Term) -> Term:
        """The fields with counters ``rc``: an int or a k-tuple."""
        rcs = (rc,) if isinstance(rc, int) else tuple(rc)
        if len(rcs) != self.k:
            raise ValueError(f"need {self.k} counters")
        return ttuple(
            ex(ttuple(tbool(exc), self._vec(rcs), x)), UNIT, UNIT, self._no_readers(), UNIT
        )

    def exc_pending(self, j: int = 0) -> Term:
        if not 0 <= j <= self.k:
            raise ValueError("checked-counter index out of range")
        return ttuple(UNIT, self._token(j), UNIT, self._no_readers(), UNIT)

    def exc(self) -> Term:
        return ttuple(UNIT, UNIT, EX, self._no_readers(), UNIT)

    def sh_pending(self, j: int = 0) -> Term:
        return ttuple(UNIT, UNIT, UNIT, self._vec(self._unit_vec(j)), UNIT)

    def sh(self, *args) -> Term:
        """A reader token, sh(x) or sh(j, x): agreement on x, on counter j."""
        j, x = args if len(args) == 2 else (0, *args)
        agn = tcon("agn", x, self._vec(self._unit_vec(j)))
        return ttuple(UNIT, UNIT, UNIT, self._no_readers(), agn)

    # -- the interface of the lock resolvers and properties

    def fields_of(self, p: Term) -> tuple[bool, tuple[int, ...], Term] | None:
        got = con_args(p[1][0], "ex")
        if got is None:
            return None
        exc_t, rc_t, x = got[0][1]
        return exc_t[1], self._counts(rc_t), x

    def exc_pending_index(self, p: Term) -> int | None:
        if not self.vector:
            return None if p[1][1] == UNIT else 0
        got = con_args(p[1][1], "ex")
        return got[0][1] if got else None

    def has_exc(self, p: Term) -> bool:
        return p[1][2] != UNIT

    def take_exc(self, p: Term) -> Term:
        """``p`` with its pending-writer token traded for the exc token."""
        return _set_part(_set_part(p, 1, UNIT), 2, EX)

    def drop_exc(self, p: Term) -> Term:
        return _set_part(p, 2, UNIT)

    def seen_zero(self, p: Term, j: int) -> Term:
        """``p`` with its writer token recording counters 0..j at zero."""
        return _set_part(p, 1, self._token(j + 1))

    def add_count(self, rcs: tuple[int, ...], j: int, delta: int) -> tuple[int, ...]:
        return rcs[:j] + (rcs[j] + delta,) + rcs[j + 1 :]

    def pending(self, p: Term, j: int) -> int:
        return self._counts(p[1][3])[j]

    def add_pending(self, p: Term, j: int, delta: int) -> Term:
        return _set_part(p, 3, self._vec(self.add_count(self._counts(p[1][3]), j, delta)))

    def release_reader(self, p: Term, j: int) -> Term | None:
        """``p`` less one reader on counter j, or None without one."""
        got = con_args(p[1][4], "agn")
        if got is None or self._counts(got[1])[j] < 1:
            return None
        counts = self.add_count(self._counts(got[1]), j, -1)
        return _set_part(p, 4, tcon("agn", got[0], self._vec(counts)) if any(counts) else UNIT)

    def sh_value(self, p: Term) -> Term | None:
        got = con_args(p[1][4], "agn")
        return got[0] if got else None

    @property
    def constructors(self):
        n = int(self.vector)  # the multi lock's pending and reader tokens name their counter

        def index(args):
            return _payload(args[0], "int") if self.vector else 0

        def fields(args):
            rcs = self._counts(args[1])
            if self._vec(rcs) != args[1]:  # written as this lock writes counters
                raise ValueError(f"{pretty(args[1])} is not a counter term of this lock")
            return self.fields(_payload(args[0], "bool"), rcs, args[2])

        return {
            "fields": _ctor(3, fields),
            "excPending": _ctor(n, lambda args: self.exc_pending(index(args))),
            "exc": _ctor(0, lambda args: self.exc()),
            "shPending": _ctor(n, lambda args: self.sh_pending(index(args))),
            "sh": _ctor(n + 1, lambda args: self.sh(index(args), args[-1])),
        }


def _build_rwlock_protocol(name, prefix, elems, rc_range, c_sp, c_sh, counts_ok):
    """The lock protocol over the shared layout, its counters in
    ``rc_range`` and written by ``elems``. 𝒞 is stated as one stage per
    part (see :class:`StorageProtocolSpec`), each checking what the parts
    bound so far decide: no part is ⊥, the fields are an ``ex``, the exc
    flag is set exactly when one writer token is out, a writer excludes
    readers, readers agree with the fields value, and ``counts_ok(rc, spc,
    agn, ep)``. That last asks whether each fields counter ``rc`` equals
    its pending readers ``spc`` plus its acquired readers (``agn``, the
    agreement's arguments, None without readers), and whatever else the
    lock's writer token ``ep`` says about them."""
    ranges = [range(rc_range[0], rc_range[1] + 1)] * elems.k
    counters = [elems._vec(rcs) for rcs in itertools.product(*ranges)]
    values = elems.values
    payloads = [ttuple(tbool(e), c, x) for e in (False, True) for c in counters for x in values]
    c_fields = build_excl(tuple(payloads), name=f"{prefix}-fields")
    c_ep = _excl(f"{prefix}-ep", {elems._token(j) for j in range(elems.k + 1)})
    c_e = _excl(f"{prefix}-e", [EX])
    product = build_product(f"{name}-protocol", [c_fields, c_ep, c_e, c_sp, c_sh], total=True)
    storage = build_excl(values, name=f"{prefix}-storage")
    parsed = {ex(t): t[1] for t in payloads}  # ex(payload) -> (exc flag, counter, value)

    def fields(c1):
        """(exc flag, counter, value) of a fields value, or None if it is
        not an ``ex``."""
        got = parsed.get(c1)
        if got is None:
            args = con_args(c1, "ex")
            got = None if args is None else args[0][1]
        return got

    def fields_ex(c):
        return fields(c[0]) is not None

    def ep_not_bot(c):
        return c[1] != BOT

    def exc_flag(c):
        e = c[2]
        return e != BOT and (c[1] != UNIT) + (e != UNIT) == fields(c[0])[0][1]

    def sp_not_bot(c):
        return c[3] != BOT

    def readers(c):
        c1, ep, e, spc, s = c
        if s == BOT or (e == EX and s != UNIT):
            return False
        _, rc_t, x = fields(c1)
        agn = con_args(s, "agn")
        return (agn is None or agn[0] == x) and counts_ok(rc_t, spc, agn, ep)

    def stored_of(p):
        c1, _, e, _, _ = p[1]
        return UNIT if e == EX else ex(fields(c1)[2])

    return StorageProtocolSpec(
        name, product, storage, None, stored_of,
        stages=(fields_ex, ep_not_bot, exc_flag, sp_not_bot, readers),
    )


def build_rwlock(
    values: tuple[Term, ...] = (tsym("x0"), tsym("x1")),
    rc_range: tuple[int, int] = (-2, 4),
    sp_max: int = 4,
    agn_max: int = 4,
) -> tuple[StorageProtocolSpec, RwLockElems]:
    """Reader-writer lock protocol over an abstract value set.

    Completeness ties the reference count to the pending and acquired
    reader tokens, makes the exc flag account for the writer tokens, and
    forces reader agreement with the fields value.
    """
    def counts_ok(rc, spc, agn, ep):
        return rc[1] == spc[1] + (agn[1][1] if agn else 0)

    elems = RwLockElems(tuple(values))
    c_sp = build_nat(sp_max, name="rw-sp")
    c_sh = build_agn(values, agn_max, name="rw-sh")
    sp = _build_rwlock_protocol("rwlock", "rw", elems, rc_range, c_sp, c_sh, counts_ok)
    return sp, elems


def build_rwlock_multi(
    values: tuple[Term, ...] = (tsym("x0"), tsym("x1")),
    k: int = 2,
    rc_range: tuple[int, int] = (-1, 2),
    sp_max: int = 1,
    agn_max: int = 1,
) -> tuple[StorageProtocolSpec, RwLockElems]:
    """Multi-counter variant: one reference counter per reader class, the
    writer checks them in order and records how many it has seen at zero."""
    c_sp = build_product("rwm-sp", [build_nat(sp_max)] * k)

    def counts_ok(rcs, spc, agn, ep):
        readers = agn[1][1] if agn else c_sp.unit[1]
        for i in range(k):
            if rcs[1][i][1] != spc[1][i][1] + readers[i][1]:
                return False
        checked = con_args(ep, "ex")  # counters the writer has seen at zero
        return checked is None or not any(n[1] for n in readers[: checked[0][1]])

    elems = RwLockElems(tuple(values), k, vector=True)
    c_sh = build_agnvec(values, k, agn_max, name="rwm-sh")
    sp = _build_rwlock_protocol("rwlock-multi", "rwm", elems, rc_range, c_sp, c_sh, counts_ok)
    return sp, elems


# ---------------------------------------------------------------------------
# Linear-probing hash-table monoid
#
# A table fragment is a pair (key map, slot map) of finite maps with
# exclusive values: the key map sends a key to ex(none) or ex(some(v)),
# its logical value, and the slot map sends tint(i) to ex(none) or
# ex(some((k, v))), what slot i stores. One class, HashTableElems, builds
# and takes these pairs apart, and the table resolvers and properties in
# resolvers.py go through its methods. It also carries the table monoid, so
# it is the hash-table builtin's one helper.


class HashFunctionSpec(Record):
    """Table length plus a total hash on the declared key set."""

    length: int
    table: tuple[tuple[Term, int], ...]

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("table length must be positive")
        for key, h in self.table:
            if not 0 <= h < self.length:
                raise ValueError(f"hash of {key!r} out of [0, {self.length})")

    def hash_of(self, key: Term) -> int:
        for k, h in self.table:
            if k == key:
                return h
        raise KeyError(f"key {key!r} not in hash table domain")

    @property
    def keys(self) -> tuple[Term, ...]:
        return tuple(k for k, _ in self.table)


class HashTableElems(Record):
    """Fragments of the hash-table monoid ``monoid`` (the table itself,
    not its total protocol view): logical map entries and slots."""

    keys: tuple[Term, ...]
    values: tuple[Term, ...]
    length: int
    monoid: MonoidSpec

    @staticmethod
    def slot_states(keys: tuple[Term, ...], values: tuple[Term, ...]) -> tuple[Term, ...]:
        """What a slot may hold: none, or an entry per key and value."""
        return (NONE,) + tuple(HashTableElems.entry(k, v) for k in keys for v in values)

    def m(self, k: Term, v: Term) -> Term:
        """v is some(value) or none."""
        return ttuple(tmap([(k, ex(v))]), tmap(()))

    def slot(self, i: int, s: Term) -> Term:
        """s is some((key, value)) or none."""
        return ttuple(tmap(()), tmap([(tint(i), ex(s))]))

    @staticmethod
    def entry(k: Term, v: Term) -> Term:
        return some(ttuple(k, v))

    def map_value(self, z: Term, k: Term) -> Term | None:
        return _owned(z[1][0], k)

    def slot_value(self, z: Term, i: int) -> Term | None:
        return _owned(z[1][1], tint(i))

    def without_slot(self, z: Term, i: int) -> Term:
        return ttuple(z[1][0], map_remove(z[1][1], tint(i)))

    def write(self, z: Term, i: int, k: Term, v: Term) -> Term:
        """``z`` after writing (k, v) into slot i: key k maps to some(v)
        and slot i holds the entry (k, v)."""
        keymap = map_set(z[1][0], k, ex(some(v)))
        return ttuple(keymap, map_set(z[1][1], tint(i), ex(self.entry(k, v))))


def _owned(m: Term, k: Term) -> Term | None:
    """x where the exclusive map ``m`` holds ex(x) at ``k``, else None."""
    inner = con_args(map_get(m, k) or BOT, "ex")
    return inner[0] if inner else None


def build_hashtable_monoid(
    hash_spec: HashFunctionSpec, values: tuple[Term, ...]
) -> tuple[MonoidSpec, HashTableElems]:
    """The product of two exclusive finite maps — logical key map and
    physical slot map — with validity 𝒱(z) = "z extends to a consistent
    table" in place of the componentwise one.

    A full state owns every key and every slot, exclusively. It is
    consistent when the keys in its slots are distinct, every occupied
    slot sits in a contiguous run starting at its key's hash index, and
    the key map holds some(v) exactly at the keys stored as (k, v) and
    none elsewhere. So the slots decide the key map, and every partial
    state that is consistent extends to a full one by adding its absent
    slots and keys as none. Validity is precomputed as the downward
    closure of the consistent full states, one per slot assignment that
    passes the two slot checks.
    """
    keys = hash_spec.keys
    length = hash_spec.length
    slot_opts = HashTableElems.slot_states(keys, values)
    map_opts = [NONE] + [some(v) for v in values]

    def sub_maps(entries):
        """The maps of some of ``entries``, each value owned exclusively."""
        owned = [(k, ex(v)) for k, v in entries]
        return [tmap(c) for r in range(len(owned) + 1) for c in itertools.combinations(owned, r)]

    valid_set: set[Term] = set()
    for slots in itertools.product(slot_opts, repeat=length):
        filled = [(i, con_args(s, "some")[0][1]) for i, s in enumerate(slots) if s != NONE]
        stored = dict(kv for _, kv in filled)  # smaller if a key is in two slots
        if len(stored) < len(filled) or any(
            hash_spec.hash_of(k) > i or NONE in slots[hash_spec.hash_of(k):i]
            for i, (k, _) in filled
        ):
            continue
        key_maps = sub_maps((k, some(stored[k]) if k in stored else NONE) for k in keys)
        slot_maps = sub_maps((tint(i), s) for i, s in enumerate(slots))
        valid_set.update(ttuple(km, sm) for km in key_maps for sm in slot_maps)

    slot_indices = tuple(tint(i) for i in range(length))
    spec = build_product("hashtable", [
        build_finmap(keys, build_excl(tuple(map_opts), "ht-value"), "ht-keys"),
        build_finmap(slot_indices, build_excl(slot_opts, "ht-slot"), "ht-slots"),
    ]).replace(valid_fn=valid_set.__contains__)
    return spec, HashTableElems(keys, tuple(values), length, spec)


def build_hashtable_protocol(
    hash_spec: HashFunctionSpec, values: tuple[Term, ...]
) -> tuple[StorageProtocolSpec, HashTableElems]:
    monoid, elems = build_hashtable_monoid(hash_spec, values)
    return pcm_as_protocol(monoid), elems
