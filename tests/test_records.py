"""Records against the dataclasses they stand for.

Each value :class:`guardcheck.terms.Record` subclass is compared with its
twin: a frozen dataclass made by ``dataclasses.make_dataclass`` with the
same fields, defaults, ``__post_init__`` and ``__hash__``. The two must
agree on equality, hash, repr, binding, frozenness and ``replace``. The
records compared by identity (a scenario, a monoid, a storage protocol)
are compared with a mutable ``eq=False`` dataclass twin: they must bind
and reject the same arguments, and keep their per-instance state out of
``replace``.
"""

import dataclasses

import pytest

import guardcheck.explore  # noqa: F401  (loads ghost, lang, monoid, protocol, resolvers)
import guardcheck.library  # noqa: F401
import guardcheck.studies  # noqa: F401  (the scenario params records)
from guardcheck.explore import PropertySpec, ResolveCtx, Scenario
from guardcheck.ghost import GuardWindow, OpenGuardAction
from guardcheck.library import build_fractional, build_rwlock
from guardcheck.monoid import MonoidSpec, carrier
from guardcheck.protocol import StorageProtocolSpec, valid_fragment
from guardcheck.terms import UNIT, Record, tfrac, tint


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


SUBCLASSES = sorted(
    (c for c in _subclasses(Record) if c.__module__.startswith("guardcheck.")),
    key=lambda c: c.__qualname__,
)
RECORDS = [c for c in SUBCLASSES if c.__eq__ is Record.__eq__]  # the value records
BY_IDENTITY = [c for c in SUBCLASSES if c.__eq__ is object.__eq__]

# field values that each record with a __post_init__ accepts, and one it rejects
ACCEPTED = {
    "ElementEnumerator": {"mode": "bounded"},
    "HashFunctionSpec": {"length": 1, "table": ()},
    "RwLockScenarioParams": {"counters": 1, "writers": (), "readers": ()},
}
REJECTED = {
    "ElementEnumerator": {"mode": "neither"},
    "HashFunctionSpec": {"length": 0},
    "RwLockScenarioParams": {"counters": 0},
}


def field_names(cls) -> list:
    """The annotated fields, base classes first, as a dataclass reads them."""
    names = {}
    for klass in reversed(cls.__mro__):
        names.update(dict.fromkeys(vars(klass).get("__annotations__", {})))
    return list(names)


def twin(cls):
    spec = [
        (n, object, dataclasses.field(default=getattr(cls, n))) if hasattr(cls, n) else (n, object)
        for n in field_names(cls)
    ]
    namespace = {k: vars(cls)[k] for k in ("__post_init__", "__hash__") if k in vars(cls)}
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True, namespace=namespace)


def sample(cls, k: int) -> dict:
    """Field values for ``cls``, each different for another ``k``."""
    values = {n: tint(100 * k + i) for i, n in enumerate(field_names(cls))}
    values.update(ACCEPTED.get(cls.__qualname__, {}))
    return values


def required(cls) -> list:
    return [n for n in field_names(cls) if not hasattr(cls, n)]


def agree(record, dc) -> None:
    assert repr(record) == repr(dc)
    assert hash(record) == hash(dc)


@pytest.fixture(params=RECORDS, ids=lambda c: c.__qualname__)
def pair(request):
    return request.param, twin(request.param)


def test_every_value_class_is_a_record():
    assert len(RECORDS) == 31
    assert BY_IDENTITY == [MonoidSpec, Scenario, StorageProtocolSpec]
    assert set(SUBCLASSES) == set(RECORDS) | set(BY_IDENTITY)


def test_equality_hash_and_repr_agree(pair):
    cls, dc = pair
    v0, v1 = sample(cls, 0), sample(cls, 1)
    a, b, c = cls(**v0), cls(**v0), cls(**v1)
    A, B, C = dc(**v0), dc(**v0), dc(**v1)
    for x, y, X, Y in [(a, b, A, B), (a, c, A, C), (c, a, C, A)]:
        assert (x == y) == (X == Y)
        assert (x != y) == (X != Y)
    agree(a, A)
    agree(c, C)
    assert a == b and hash(a) == hash(b)
    for n in field_names(cls):  # each field on its own makes a difference
        if n in ACCEPTED.get(cls.__qualname__, {}):
            continue
        changed = {**v0, n: v1[n]}
        assert a != cls(**changed) and A != dc(**changed)
        agree(cls(**changed), dc(**changed))


def test_positional_keyword_and_default_binding_agree(pair):
    cls, dc = pair
    v = sample(cls, 2)
    values = list(v.values())
    agree(cls(*values), dc(*values))
    assert cls(*values) == cls(**v)
    head = len(values) // 2
    mixed = dict(list(v.items())[head:])
    assert cls(*values[:head], **mixed) == cls(**v)
    agree(cls(*values[:head], **mixed), dc(*values[:head], **mixed))
    needed = {n: v[n] for n in required(cls)}
    agree(cls(**needed), dc(**needed))
    agree(cls(*needed.values()), dc(*needed.values()))


def test_bad_arguments_raise_type_error(pair):
    cls, dc = pair
    v = sample(cls, 3)
    values = list(v.values())
    calls = [((), {**v, "no_such_field": 1}), ((*values, 1), {})]
    if values:
        calls.append(((values[0],), v))  # the first field twice
    if required(cls):
        calls.append(((), {n: x for n, x in v.items() if n != required(cls)[-1]}))
    for args, kwargs in calls:
        for make in (cls, dc):
            with pytest.raises(TypeError):
                make(*args, **kwargs)


def test_post_init_runs(pair):
    cls, dc = pair
    rejected = REJECTED.get(cls.__qualname__)
    if rejected is None:
        return
    for make in (cls, dc):
        with pytest.raises(ValueError):
            make(**{**sample(cls, 4), **rejected})


def test_frozen(pair):
    cls, _ = pair
    record = cls(**sample(cls, 5))
    for n in field_names(cls) + ["no_such_field"]:
        with pytest.raises(AttributeError):
            setattr(record, n, 0)
        with pytest.raises(AttributeError):
            delattr(record, n)
    assert record == cls(**sample(cls, 5))


def test_replace_agrees(pair):
    cls, dc = pair
    v0, v1 = sample(cls, 6), sample(cls, 7)
    a, A = cls(**v0), dc(**v0)
    assert a.replace() == a
    agree(a.replace(), dataclasses.replace(A))
    for n in field_names(cls):
        agree(a.replace(**{n: v1[n]}), dataclasses.replace(A, **{n: v1[n]}))
    agree(a.replace(**v1), dc(**v1))
    with pytest.raises(TypeError):
        a.replace(no_such_field=1)
    with pytest.raises(TypeError):
        dataclasses.replace(A, no_such_field=1)


def test_records_equal_only_records_of_their_type(pair):
    cls, _ = pair
    v = sample(cls, 8)
    record = cls(**v)
    values = tuple(v.values())
    assert record != values and values != record
    for other in RECORDS:  # those whose __post_init__ takes any values
        if other is not cls and other.__qualname__ not in ACCEPTED and len(field_names(other)) == len(values):
            same_values = other(*values)
            assert record != same_values and same_values != record


def test_records_with_the_same_fields_are_unequal():
    v = ("lock", "t0", tint(1), "read")
    assert field_names(GuardWindow) == field_names(OpenGuardAction)
    assert GuardWindow(*v) != OpenGuardAction(*v)
    assert len({GuardWindow(*v), OpenGuardAction(*v)}) == 2


# ---------------------------------------------------------------------------
# Records compared by identity


def by_identity_twin(cls):
    """The ``eq=False`` dataclass with ``cls``'s fields, defaults and ``__post_init__``."""
    spec = [
        (n, object, dataclasses.field(default_factory=lambda d=getattr(cls, n): d))
        if hasattr(cls, n) else (n, object)
        for n in field_names(cls)
    ]
    namespace = {"__post_init__": vars(cls)["__post_init__"]}
    return dataclasses.make_dataclass(cls.__qualname__, spec, eq=False, namespace=namespace)


FRAC, RWLOCK = build_fractional(4, 2), build_rwlock()[0]  # 𝒞 as complete_fn, as stages
CELL = ("c", tint(0))
# field values that each record compared by identity accepts
BY_IDENTITY_SAMPLE = {
    MonoidSpec: ("m", FRAC.storage.unit, FRAC.storage.compose_fn, FRAC.storage.valid_fn,
                 FRAC.storage.enumerator),
    Scenario: ("s", (CELL,), (), {}, {}),
    StorageProtocolSpec: ("sp", FRAC.protocol, FRAC.storage, FRAC.complete_fn,
                          FRAC.stored_of_fn),
}
STAGES = (lambda c: True,) * len(RWLOCK.protocol.parts)
STAGED = ("staged", RWLOCK.protocol, RWLOCK.storage, None, RWLOCK.stored_of_fn)
# (args, kwargs) that a __post_init__ rejects
BY_IDENTITY_REJECTED = {
    Scenario: [
        (("s", (CELL, CELL), (), {}, {}), {}),
        (("s", (CELL,), (), {}, {}), {"expectation": "maybe"}),
        (("s", (CELL,), (), {}, {}), {"properties": (PropertySpec("p", "k"),),
                                       "terminal_properties": (PropertySpec("p", "j"),)}),
    ],
    StorageProtocolSpec: [
        (BY_IDENTITY_SAMPLE[StorageProtocolSpec], {"stages": STAGES[:1]}),
        (STAGED, {}),
        (STAGED, {"stages": STAGES[1:]}),
    ],
}


@pytest.fixture(params=BY_IDENTITY, ids=lambda c: c.__qualname__)
def by_identity(request):
    return request.param


def test_equal_fields_make_unequal_records(by_identity):
    cls, args = by_identity, BY_IDENTITY_SAMPLE[by_identity]
    a, b = cls(*args), cls(*args)
    assert a == a and a != b and not a == b
    assert hash(a) == object.__hash__(a) and len({a, b}) == 2
    assert a._values == b._values


def test_binding_agrees_with_the_dataclass(by_identity):
    cls, args = by_identity, BY_IDENTITY_SAMPLE[by_identity]
    dc = by_identity_twin(cls)
    for made, twin in [(cls(*args), dc(*args)),
                       (cls(**dict(zip(field_names(cls), args))), dc(*args)),
                       (cls(*args[:2], **dict(zip(field_names(cls)[2:], args[2:]))), dc(*args))]:
        assert made._values == tuple(getattr(twin, n) for n in field_names(cls))
        assert repr(made) == repr(twin)
    for make in (cls, dc):
        with pytest.raises(TypeError):
            make(*args, no_such_field=1)
        with pytest.raises(TypeError):
            make(*args[:-1])
    with pytest.raises(AttributeError):
        cls(*args).name = "other"


def test_post_init_raises_what_the_dataclass_raises(by_identity):
    cls = by_identity
    for args, kwargs in BY_IDENTITY_REJECTED.get(cls, []):
        errors = []
        for make in (cls, by_identity_twin(cls)):
            with pytest.raises(ValueError) as exc:
                make(*args, **kwargs)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


def test_a_monoid_copy_starts_with_an_empty_cache():
    spec = MonoidSpec(*BY_IDENTITY_SAMPLE[MonoidSpec])
    assert spec._cache == {} and MonoidSpec(*BY_IDENTITY_SAMPLE[MonoidSpec])._cache is not spec._cache
    carrier(spec)
    copy = spec.replace(name="copy")
    assert spec._cache and copy._cache == {} and copy.parts == spec.parts == ()
    assert copy.compose_fn is spec.compose_fn and copy.enumerator is spec.enumerator


def test_a_protocol_copy_starts_with_its_own_cache_and_stages():
    sp = StorageProtocolSpec(*BY_IDENTITY_SAMPLE[StorageProtocolSpec])
    assert valid_fragment(sp, tfrac(1, 2)) and sp._cache
    copy = sp.replace(complete_fn=lambda p: False)
    assert copy._cache == {} and copy._complete is copy.complete_fn
    assert not copy.complete(tfrac(1)) and sp.complete(tfrac(1))
    staged = StorageProtocolSpec(*STAGED, stages=STAGES)
    assert staged._search is STAGES and staged.replace()._search is STAGES


def test_a_scenario_copy_has_no_document():
    s = Scenario(*BY_IDENTITY_SAMPLE[Scenario])
    assert s.document is None
    s.__dict__["document"] = {"name": "s"}
    copy = s.replace(name="copy")
    assert copy.document is None and s.document == {"name": "s"}
    assert "document" not in repr(s)


def test_a_scenario_default_mapping_is_shared_and_read_only():
    a, b = Scenario(*BY_IDENTITY_SAMPLE[Scenario]), Scenario(*BY_IDENTITY_SAMPLE[Scenario])
    for name in ("script", "named", "cell_instances", "protected_cells", "meta"):
        assert getattr(a, name) == {} and getattr(a, name) is getattr(b, name)
        with pytest.raises(TypeError):
            getattr(a, name)["x"] = 1
        assert getattr(b, name) == {}


def test_a_resolver_context_is_a_plain_class():
    args = ("scenario", "ledger", (), 0, "lbl", UNIT, None)
    ctx = ResolveCtx(*args)
    assert not isinstance(ctx, Record) and not hasattr(ctx, "__dict__")
    assert tuple(getattr(ctx, n) for n in ResolveCtx.__slots__) == args
    assert ctx.self_owner == "thread:0" and ctx.event_cell() is None
