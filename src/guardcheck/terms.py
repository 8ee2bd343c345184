"""Canonical term encoding for monoid carrier elements.

Every carrier element is a nested tuple whose first entry is a tag. Terms
are hashable, totally ordered via :func:`term_key`, and compare equal iff
their encodings are identical. Constructors canonicalize on the way in
(fractions reduced, map entries sorted and unit-free), so canonicalization
is idempotent by construction.

Tags: ``unit``, ``bot``, ``bool``, ``int``, ``frac``, ``sym``, ``tuple``,
``map``, ``con``. :class:`Record` is the base of the value classes that
hold terms.
"""

from __future__ import annotations

from math import gcd
from typing import Any, Iterable

Term = tuple

__all__ = [
    "Term",
    "EncodingError",
    "Record",
    "UNIT",
    "BOT",
    "tbool",
    "tint",
    "tfrac",
    "tsym",
    "ttuple",
    "tmap",
    "tcon",
    "is_term",
    "term_key",
    "sort_terms",
    "term_to_json",
    "term_from_json",
    "map_entries",
    "map_get",
    "map_set",
    "map_remove",
    "con_args",
    "pretty",
]


class EncodingError(ValueError):
    """Raised for terms that do not follow the canonical encoding."""


class Record:
    """An immutable value with the fields its class annotates, in order, and their
    class-level defaults. It acts as the frozen dataclass with those fields (``==``,
    ``hash``, repr, ``__post_init__``), but with shared methods: it generates no code.
    A subclass compared by identity sets ``__eq__ = object.__eq__`` and ``__hash__ =
    object.__hash__``; its ``__post_init__`` may keep state that is not a field in
    ``self.__dict__``, which ``replace`` does not copy."""

    __slots__ = ("_values",)  # the field tuple, for == and hash
    _fields = ()

    def __init_subclass__(cls):
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = fields = cls._fields + tuple(n for n in own if n not in cls._fields)
        cls._template = {n: getattr(cls, n, None) for n in fields}
        # with i positional arguments, the keywords allowed and those needed
        cls._allowed = [frozenset(fields[i:]) for i in range(len(fields) + 1)]
        cls._needed = [s - {n for n in s if hasattr(cls, n)} for s in cls._allowed]
        # with i positional arguments and no keywords, the defaults that follow them
        cls._tails = {
            i: tuple(cls._template[n] for n in fields[i:])
            for i in range(len(fields) + 1) if not cls._needed[i]
        }
        cls._post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        cls = self.__class__
        fields = cls._fields
        tail = None if kwargs else cls._tails.get(len(args))
        if tail is None:
            i = len(args)
            if i > len(fields) or not cls._needed[i] <= kwargs.keys() <= cls._allowed[i]:
                raise TypeError(f"{cls.__qualname__}{fields}: got {i} positional, {[*kwargs]}")
            d = cls._template.copy()  # the defaults, in field order
            d |= kwargs
            d |= zip(fields, args)
            args = tuple(d.values())
        else:
            args += tail
            d = dict(zip(fields, args))
        object.__setattr__(self, "__dict__", d)  # reads from a filled-in __dict__ are slower
        _set_values(self, args)
        if cls._post_init is not None:
            cls._post_init(self)

    def __eq__(self, o):
        return self._values == o._values if o.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        pairs = zip(self._fields, self._values)
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def replace(self, **changes):
        """A copy with ``changes`` made, as ``dataclasses.replace`` gives."""
        return self.__class__(**dict(zip(self._fields, self._values), **changes))


_set_values = Record._values.__set__


UNIT: Term = ("unit",)
BOT: Term = ("bot",)

_TAG_RANK = {
    "unit": 0,
    "bool": 1,
    "int": 2,
    "frac": 3,
    "sym": 4,
    "tuple": 5,
    "map": 6,
    "con": 7,
    "bot": 8,
}


def tbool(b: bool) -> Term:
    return ("bool", bool(b))


def tint(n: int) -> Term:
    if isinstance(n, bool) or not isinstance(n, int):
        raise EncodingError(f"int term needs a plain int, got {n!r}")
    return ("int", n)


def tfrac(num: int, den: int = 1) -> Term:
    """Reduced fraction with a positive denominator; integers stay fractions."""
    if den == 0:
        raise EncodingError("fraction with zero denominator")
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g:
        num, den = num // g, den // g
    return ("frac", num, den)


def tsym(name: str) -> Term:
    if not isinstance(name, str) or not name:
        raise EncodingError(f"symbol needs a nonempty string, got {name!r}")
    return ("sym", name)


def ttuple(*items: Term) -> Term:
    return ("tuple", tuple(items))


def tmap(entries: Iterable[tuple[Term, Term]]) -> Term:
    """Finite map as sorted (key, value) pairs; duplicate keys rejected."""
    pairs = sorted(entries, key=lambda kv: term_key(kv[0]))
    for (k1, _), (k2, _) in zip(pairs, pairs[1:]):
        if k1 == k2:
            raise EncodingError(f"duplicate map key {k1!r}")
    return ("map", tuple(pairs))


def tcon(name: str, *args: Term) -> Term:
    if not isinstance(name, str) or not name:
        raise EncodingError("constructor needs a name")
    return ("con", name, tuple(args))


def is_term(t: Any) -> bool:
    if not isinstance(t, tuple) or not t or t[0] not in _TAG_RANK:
        return False
    tag = t[0]
    if tag in ("unit", "bot"):
        return len(t) == 1
    if tag == "bool":
        return len(t) == 2 and isinstance(t[1], bool)
    if tag == "int":
        return len(t) == 2 and isinstance(t[1], int) and not isinstance(t[1], bool)
    if tag == "frac":
        return len(t) == 3 and t == tfrac(t[1], t[2])
    if tag == "sym":
        return len(t) == 2 and isinstance(t[1], str)
    if tag == "tuple":
        return len(t) == 2 and all(is_term(x) for x in t[1])
    if tag == "map":
        if len(t) != 2:
            return False
        try:
            return t == tmap(t[1]) and all(
                is_term(k) and is_term(v) for k, v in t[1]
            )
        except EncodingError:
            return False
    if tag == "con":
        return len(t) == 3 and all(is_term(x) for x in t[2])
    return False


class _Ratio:
    """The value ``num / den`` (``den > 0``), compared exactly by cross-multiplying."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        self.num, self.den = num, den

    def __eq__(self, o):
        return self.num * o.den == o.num * self.den

    def __lt__(self, o):
        return self.num * o.den < o.num * self.den

    def __le__(self, o):
        return self.num * o.den <= o.num * self.den

    def __gt__(self, o):
        return self.num * o.den > o.num * self.den

    def __ge__(self, o):
        return self.num * o.den >= o.num * self.den


def term_key(t: Term):
    """Total-order key. Fractions order by value then denominator."""
    tag = t[0]
    rank = _TAG_RANK[tag]
    if tag in ("unit", "bot"):
        return (rank,)
    if tag in ("bool", "sym"):
        return (rank, t[1])
    if tag == "int":
        return (rank, t[1])
    if tag == "frac":
        return (rank, _Ratio(t[1], t[2]), t[2])
    if tag == "tuple":
        return (rank, len(t[1]), tuple(term_key(x) for x in t[1]))
    if tag == "map":
        return (
            rank,
            len(t[1]),
            tuple((term_key(k), term_key(v)) for k, v in t[1]),
        )
    if tag == "con":
        return (rank, t[1], len(t[2]), tuple(term_key(x) for x in t[2]))
    raise EncodingError(f"not a term: {t!r}")


def sort_terms(terms: Iterable[Term]) -> list[Term]:
    return sorted(terms, key=term_key)


def term_to_json(t: Term):
    """Canonical JSON form: tag-first arrays mirroring the tuple encoding."""
    tag = t[0]
    if tag in ("unit", "bot"):
        return [tag]
    if tag in ("bool", "int", "sym"):
        return [tag, t[1]]
    if tag == "frac":
        return [tag, t[1], t[2]]
    if tag == "tuple":
        return [tag, [term_to_json(x) for x in t[1]]]
    if tag == "map":
        return [tag, [[term_to_json(k), term_to_json(v)] for k, v in t[1]]]
    if tag == "con":
        return [tag, t[1], [term_to_json(x) for x in t[2]]]
    raise EncodingError(f"not a term: {t!r}")


# tag -> the number of fields after the tag in a term's JSON form
_JSON_ARITY = {
    "unit": 0, "bot": 0, "bool": 1, "int": 1, "frac": 2, "sym": 1, "tuple": 1, "map": 1, "con": 2,
}


def term_from_json(doc) -> Term:
    if not isinstance(doc, list) or not doc or not isinstance(doc[0], str):
        raise EncodingError(f"bad term document: {doc!r}")
    tag = doc[0]
    if tag not in _JSON_ARITY:
        raise EncodingError(f"unknown term tag {tag!r}")
    if len(doc) != _JSON_ARITY[tag] + 1:
        raise EncodingError(f"bad arity for {tag}: {doc!r}")
    if tag in ("tuple", "map", "con") and not isinstance(doc[-1], list):
        raise EncodingError(f"{tag} term needs a list, got {doc[-1]!r}")
    try:
        if tag == "unit":
            return UNIT
        if tag == "bot":
            return BOT
        if tag == "bool":
            if not isinstance(doc[1], bool):
                raise EncodingError(f"bool term needs true or false, got {doc[1]!r}")
            return tbool(doc[1])
        if tag == "int":
            return tint(doc[1])
        if tag == "frac":
            if type(doc[1]) is not int or type(doc[2]) is not int:
                raise EncodingError(f"frac term needs two ints, got {doc!r}")
            return tfrac(doc[1], doc[2])
        if tag == "sym":
            return tsym(doc[1])
        if tag == "tuple":
            return ttuple(*(term_from_json(x) for x in doc[1]))
        if tag == "map":
            return tmap((term_from_json(k), term_from_json(v)) for k, v in doc[1])
        if tag == "con":
            return tcon(doc[1], *(term_from_json(x) for x in doc[2]))
    except EncodingError:
        raise
    except (TypeError, ValueError) as exc:  # ValueError: a map entry not a pair
        raise EncodingError(f"bad term document: {doc!r}") from exc


def map_entries(t: Term) -> tuple[tuple[Term, Term], ...]:
    if t[0] != "map":
        raise EncodingError(f"expected map, got {t!r}")
    return t[1]


def map_get(t: Term, key: Term) -> Term | None:
    for k, v in map_entries(t):
        if k == key:
            return v
    return None


def map_set(t: Term, key: Term, value: Term) -> Term:
    entries = [(k, v) for k, v in map_entries(t) if k != key]
    entries.append((key, value))
    return tmap(entries)


def map_remove(t: Term, key: Term) -> Term:
    return tmap((k, v) for k, v in map_entries(t) if k != key)


def con_args(t: Term, name: str) -> tuple[Term, ...] | None:
    """Arguments of a constructor term, or None when the name differs."""
    if t[0] == "con" and t[1] == name:
        return t[2]
    return None


def pretty(t: Term) -> str:
    tag = t[0]
    if tag == "unit":
        return "ε"
    if tag == "bot":
        return "⊥"
    if tag == "bool":
        return "True" if t[1] else "False"
    if tag == "int":
        return str(t[1])
    if tag == "frac":
        return f"{t[1]}/{t[2]}" if t[2] != 1 else str(t[1])
    if tag == "sym":
        return t[1]
    if tag == "tuple":
        return "(" + ", ".join(pretty(x) for x in t[1]) + ")"
    if tag == "map":
        return "{" + ", ".join(f"{pretty(k)}↦{pretty(v)}" for k, v in t[1]) + "}"
    if tag == "con":
        if not t[2]:
            return t[1]
        return t[1] + "(" + ", ".join(pretty(x) for x in t[2]) + ")"
    return repr(t)
