"""Records against the frozen dataclasses they stand for.

Each :class:`guardcheck.terms.Record` subclass is compared with its twin:
a frozen dataclass made by ``dataclasses.make_dataclass`` with the same
fields, defaults, ``__post_init__`` and ``__hash__``. The two must agree on
equality, hash, repr, binding, frozenness and ``replace``.
"""

import dataclasses

import pytest

import guardcheck.explore  # noqa: F401  (loads ghost, lang, monoid, protocol, studies)
import guardcheck.library  # noqa: F401
from guardcheck.ghost import GuardWindow, OpenGuardAction
from guardcheck.terms import Record, tint


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted(
    (c for c in _subclasses(Record) if c.__module__.startswith("guardcheck.")),
    key=lambda c: c.__qualname__,
)

# field values that each record with a __post_init__ accepts, and one it rejects
ACCEPTED = {
    "ElementEnumerator": {"mode": "bounded"},
    "HashFunctionSpec": {"length": 1, "table": ()},
    "RwLockScenarioParams": {"counters": 1, "readers": ()},
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
