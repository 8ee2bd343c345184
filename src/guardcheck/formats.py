"""JSON schemas: monoid combinators, protocols, relation queries,
scenarios, and reports.

Monoids are combinator trees (excl | agn | agnvec | nat | int | frac |
product | finmap | table | trivial). Protocols are either a named builtin
with parameters or a custom pair of monoids with ``complete`` and
``stored_of`` given as decision tables over enumerated elements. Elements
are canonical term arrays, with ["named", ctor, [args...]] resolving
through a protocol's named-element constructors. Every input document
is read through one field table (see :func:`_read`).

All emitters produce key-sorted JSON so identical inputs give
byte-identical outputs.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import TYPE_CHECKING

from .library import (
    HashFunctionSpec,
    HashTableElems,
    build_agn,
    build_agnvec,
    build_counting,
    build_excl,
    build_finmap,
    build_forever,
    build_frac,
    build_fractional,
    build_fractional_memory,
    build_hashtable_protocol,
    build_int,
    build_nat,
    build_product,
    build_rwlock,
    build_rwlock_multi,
    build_table_monoid,
    build_trivial,
)
from .monoid import MonoidSpec, is_element
from .protocol import StorageProtocolSpec
from .terms import EncodingError, Term, pretty, term_from_json

if TYPE_CHECKING:  # scenarios import the explorer and interpreter when read
    from .explore import ExplorationResult, PropertySpec, Scenario, ScriptEntry

__all__ = [
    "FormatError",
    "load_monoid",
    "load_protocol",
    "load_protocols",
    "set_den_bound",
    "element_from_json",
    "load_queries",
    "scenario_to_json",
    "scenario_from_json",
    "result_to_json",
    "read_report",
    "dumps",
]


class FormatError(ValueError):
    """Input document does not match the schema."""


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# The field table
#
# A node is a dict: field -> (kind, default). A kind is a reader
# fn(doc, path) -> value; ``path`` locates ``doc`` in its file, for error
# messages. The default is _REQUIRED; _UNSET, which leaves an absent
# field out, so that the builder it is passed to supplies the default; or
# a JSON value that the kind reads in place of an absent field.

_REQUIRED, _UNSET = object(), object()


def _at(path: str, key: str) -> str:
    """The JSON path of field ``key`` of the node at ``path`` ("" is the root)."""
    return f"{path}.{key}" if path else key


def _read(doc, node: dict, path: str, field: str = "field") -> dict:
    """The fields of the object ``doc``, decoded by their kinds in
    ``node``. A missing required field is an error, and so is a ``field``
    that ``node`` does not list: a misspelt optional one would otherwise
    fall back to its default unseen."""
    for key in _object(doc, path):
        if key not in node:
            raise FormatError(f"{_at(path, key)}: unknown {field}")
    out = {}
    for key, (kind, default) in node.items():
        if key in doc:
            out[key] = kind(doc[key], _at(path, key))
        elif default is _REQUIRED:
            raise FormatError(f"{_at(path, key)}: missing")
        elif default is not _UNSET:
            out[key] = kind(default, _at(path, key))
    return out


# -- kinds


def _typed(test, expected: str, by_type: bool = False):
    """A value that passes ``test``; ``expected`` describes one for error
    messages, which show a stray value, or its type if ``by_type``."""

    def read(doc, path: str):
        if not test(doc):
            got = type(doc).__name__ if by_type else repr(doc)
            raise FormatError(f"{path}: must be {expected}, got {got}")
        return doc

    return read


_any = _typed(lambda doc: True, "anything")  # read by the code it is passed to
_object = _typed(lambda doc: isinstance(doc, dict), "an object", by_type=True)
_list = _typed(lambda doc: isinstance(doc, list), "a list", by_type=True)
_name = _typed(lambda doc: isinstance(doc, str), "a string", by_type=True)
_int = _typed(lambda doc: type(doc) is int, "an integer")
_count = _typed(lambda doc: type(doc) is int and doc >= 0, "a non-negative integer")
_positive = _typed(lambda doc: type(doc) is int and doc >= 1, "a positive integer")
_bool = _typed(lambda doc: isinstance(doc, bool), "true or false")


def _term(doc, path: str) -> Term:
    try:
        return term_from_json(doc)
    except EncodingError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _program(doc, path: str):
    from .lang import UsageError, ast_from_json

    try:
        return ast_from_json(doc, path)
    except UsageError as exc:
        raise FormatError(str(exc)) from exc


def _value(doc, path: str):
    """An encoded value: a string, number or bool as itself, {"term": T}
    or {"list": [values...]}."""
    if isinstance(doc, dict):
        if "term" in doc:
            return _term(doc["term"], f"{path}.term")
        if "list" in doc:
            return _list_of(_value)(doc["list"], f"{path}.list")
        raise FormatError(f"{path}: bad encoded value {doc!r}")
    if isinstance(doc, list):
        raise FormatError(
            f"{path}: write a list as {{\"list\": [...]}} and a term as {{\"term\": T}}"
        )
    return doc


def _one_of(values, what: str = ""):
    """A string in ``values``. The error calls a stray one an unknown
    ``what`` or, without ``what``, lists the values."""

    def read(doc, path: str) -> str:
        if isinstance(doc, str) and doc in values:
            return doc
        if what:
            raise FormatError(f"{path}: unknown {what} {doc!r}")
        raise FormatError(f"{path}: must be {' or '.join(values)}, got {doc!r}")

    return read


def _list_of(kind):
    return lambda doc, path: tuple(kind(x, f"{path}[{i}]") for i, x in enumerate(_list(doc, path)))


def _object_of(kind):
    return lambda doc, path: {k: kind(v, _at(path, k)) for k, v in _object(doc, path).items()}


def _tuple_of(kinds: tuple, form: str):
    """A list of one item of each of ``kinds``; ``form`` spells it out
    for error messages."""

    def read(doc, path: str) -> tuple:
        if not isinstance(doc, list) or len(doc) != len(kinds):
            raise FormatError(f"{path}: {form}, got {doc!r}")
        return tuple(kind(x, f"{path}[{i}]") for i, (kind, x) in enumerate(zip(kinds, doc)))

    return read


def _form_of(forms: dict, form: str):
    """A list [tag, items...] whose items have the kinds ``forms[tag]``;
    ``form`` spells it out for error messages."""

    def read(doc, path: str) -> tuple:
        if not (isinstance(doc, list) and doc and isinstance(doc[0], str) and doc[0] in forms):
            raise FormatError(f"{path}: {form}, got {doc!r}")
        return _tuple_of((_any, *forms[doc[0]]), form)(doc, path)

    return read


def _node(node: dict):
    return lambda doc, path: _read(doc, node, path)


def _wrapped(key: str, kind):
    """The object {key: X}, read as the X of ``kind``."""
    return lambda doc, path: _read(doc, {key: (kind, _REQUIRED)}, path)[key]


_TERMS = _list_of(_term)


def _element(monoid: MonoidSpec | None = None, named: dict | None = None):
    """An element: a term, in the carrier of ``monoid`` if given. Given
    ``named``, a protocol's named-element constructors (maybe none), the
    forms of a query too: ["named", ctor, [term args...]] resolved through
    ``named`` and, given ``monoid``, ["compose", [elements...]] composed in
    it. Each part of a composite is in the carrier; the composite itself
    may lie outside a bound."""

    def read(doc, path: str) -> Term:
        tag = doc[0] if named is not None and isinstance(doc, list) and doc else None
        if tag == "compose" and monoid is not None:
            parts = composite(doc, path)[1]
            if not parts:
                raise FormatError(f"{path}: compose needs at least one element")
            return functools.reduce(monoid.compose_fn, parts)
        if tag == "named":
            _, ctor, args = named_form(doc, path)
            try:
                el = named[ctor](args)
            except (IndexError, TypeError, ValueError) as exc:
                raise FormatError(f"{path}: bad named element {doc!r}: {exc}") from exc
        else:
            el = _term(doc, path)
        if monoid is not None and not is_element(monoid, el):
            raise FormatError(f"{path}: {pretty(el)} is not in the carrier of {monoid.name}")
        return el

    composite = _tuple_of((_any, _list_of(read)), 'a composite is ["compose", [elements...]]')
    named_form = _tuple_of(
        (_any, _one_of(named or (), "named element"), _TERMS),
        'a named element is ["named", ctor, [args...]]',
    )
    return read


# ---------------------------------------------------------------------------
# Monoids


def load_monoid(doc: dict, path: str = "") -> MonoidSpec:
    """The monoid of a combinator tree. ``path`` locates ``doc`` in its
    file, for error messages."""
    kind = _object(doc, path or "monoid").get("kind")
    builder, node = _MONOIDS[_one_of(_MONOIDS, "monoid kind")(kind, _at(path, "kind"))]
    fields = _read(doc, {"kind": (_any, _REQUIRED), **node}, path)
    del fields["kind"]
    if "compose" in fields:
        listed = tuple(dict.fromkeys([fields["unit"], *fields["elements"]]))
        fields["table"] = _compose_table(fields.pop("compose"), listed, _at(path, "compose"))
    try:
        return builder(**fields)
    except ValueError as exc:
        raise FormatError(f"{path or 'monoid'}: bad {kind} monoid: {exc}") from exc


def _compose_table(rows, listed: tuple[Term, ...], path: str) -> dict:
    """A table monoid's rows [a, b, a·b] as a dict. Every term in them is
    a listed element (the unit counts as listed), and every unordered pair
    of listed elements has a row, in either order."""
    table = {}
    for i, (a, b, ab) in enumerate(rows):
        for t in (a, b, ab):
            if t not in listed:
                raise FormatError(f"{path}[{i}]: {pretty(t)} is not a listed element")
        table[a, b] = ab
    for a, b in itertools.combinations_with_replacement(listed, 2):
        if (a, b) not in table and (b, a) not in table:
            raise FormatError(f"{path}: no row for {pretty(a)} · {pretty(b)}")
    return table


_TABLE = {
    "name": (_name, "table"),
    "unit": (_term, _REQUIRED),
    "elements": (_TERMS, _REQUIRED),
    "compose": (_list_of(_tuple_of((_term,) * 3, "a row is [a, b, a·b]")), _REQUIRED),
    "invalid": (_TERMS, _UNSET),
}

# monoid kind -> (builder, the fields its node holds besides "kind"). A
# field that the node leaves unset takes the builder's default.
_MONOIDS = {
    "excl": (build_excl, {"values": (_TERMS, _REQUIRED)}),
    "agn": (build_agn, {"values": (_TERMS, _REQUIRED), "max_count": (_count, _UNSET)}),
    "agnvec": (build_agnvec, {
        "values": (_TERMS, _REQUIRED), "k": (_positive, _REQUIRED), "max_count": (_count, _UNSET),
    }),
    "nat": (build_nat, {"limit": (_count, _UNSET)}),
    "int": (build_int, {"lo": (_int, _UNSET), "hi": (_int, _UNSET)}),
    "frac": (build_frac, {"den_bound": (_positive, _UNSET), "max_value": (_positive, _UNSET)}),
    "product": (build_product, {
        "name": (_name, "product"),
        "parts": (_list_of(load_monoid), _REQUIRED),
        "total": (_bool, _UNSET),
    }),
    "finmap": (build_finmap, {"keys": (_TERMS, _REQUIRED), "value": (load_monoid, _REQUIRED)}),
    "table": (build_table_monoid, _TABLE),
    "custom-table": (build_table_monoid, _TABLE),
    "trivial": (build_trivial, {}),
}


# ---------------------------------------------------------------------------
# Protocols


def _hashtable(length, hash, values):
    """The hash-table builtin, from its JSON params."""
    return build_hashtable_protocol(HashFunctionSpec(length, hash), values)


# builtin name -> (builder, the params it requires). The builder's
# signature names the params a builtin reads and holds their defaults.
_BUILTINS = {
    "fractional": (build_fractional, ()),
    "fractional-memory": (build_fractional_memory, ("keys",)),
    "counting": (build_counting, ()),
    "forever": (build_forever, ()),
    "rwlock": (build_rwlock, ("values",)),
    "rwlock-multi": (build_rwlock_multi, ("values",)),
    "hashtable": (_hashtable, ("length", "hash", "values")),
}


def _range(doc, path: str) -> tuple[int, int]:
    """[lo, hi], two integers with lo <= hi."""
    lo, hi = _tuple_of((_int, _int), "a range is [lo, hi]")(doc, path)
    if lo > hi:
        raise FormatError(f"{path}: a range is [lo, hi] with lo <= hi, got {doc!r}")
    return lo, hi


# builtin param -> its kind. A bound below its kind's least value would
# leave some carrier with the unit alone.
_PARAMS = {
    **dict.fromkeys(("keys", "values"), _TERMS),
    **dict.fromkeys(("r_range", "rc_range"), _range),
    **dict.fromkeys(("length", "den_bound", "max_value", "k"), _positive),
    **dict.fromkeys(("nat_limit", "c_max", "sp_max", "agn_max"), _count),
    "hash": _list_of(_tuple_of((_term, _int), "a hash entry is [key, index]")),
    "drop_carrier_constraint": _bool,
}
_BUILTIN = {
    "builtin": (_one_of(_BUILTINS, "builtin protocol"), _REQUIRED),
    "params": (_object, {}),
}
# the decision tables are read once the monoids are known
_CUSTOM = {
    "name": (_name, "custom"),
    "protocol": (load_monoid, _REQUIRED),
    "storage": (load_monoid, _REQUIRED),
    "complete": (_any, _REQUIRED),
    "stored_of": (_any, _REQUIRED),
}


def set_den_bound(doc: dict, bound: int) -> None:
    """Make ``bound`` the fraction denominator bound of ``doc`` if it is
    the fractional builtin; other protocols have none."""
    if _object(doc, "protocol").get("builtin") == "fractional":
        doc["params"] = dict(_object(doc.get("params", {}), "params"), den_bound=bound)


def load_protocol(doc: dict):
    """Returns (StorageProtocolSpec, named-constructor map or None)."""
    sp, helper = _load_protocol(doc)
    return sp, getattr(helper, "constructors", None)


def _load_protocol(doc: dict, path: str = ""):
    """(StorageProtocolSpec, helper). The helper is the builder's
    named-element object, or None. ``path`` locates ``doc`` in its file,
    for error messages."""
    if "builtin" not in _object(doc, path or "protocol"):
        return _custom_protocol(_read(doc, _CUSTOM, path), path), None
    fields = _read(doc, _BUILTIN, path)
    builder, required = _BUILTINS[fields["builtin"]]
    code = builder.__code__  # the builder's parameters are the builtin's params
    node = {
        key: (_PARAMS[key], _REQUIRED if key in required else _UNSET)
        for key in code.co_varnames[: code.co_argcount]
    }
    params = _read(fields["params"], node, _at(path, "params"), "parameter")
    try:
        built = builder(**params)
    except ValueError as exc:
        raise FormatError(
            f"{path or 'protocol'}: bad builtin protocol {fields['builtin']}: {exc}"
        ) from exc
    return (built, None) if isinstance(built, StorageProtocolSpec) else built


def _custom_protocol(fields: dict, path: str) -> StorageProtocolSpec:
    protocol, storage = fields["protocol"], fields["storage"]
    in_protocol, in_storage = _element(protocol), _element(storage)
    complete = _wrapped("table", _list_of(in_protocol))
    complete_set = frozenset(complete(fields["complete"], _at(path, "complete")))
    stored_of = _wrapped("table", _list_of(_tuple_of((in_protocol, in_storage), "a row is [p, s]")))
    stored_map = dict(stored_of(fields["stored_of"], _at(path, "stored_of")))
    missing = complete_set - set(stored_map)
    if missing:
        raise FormatError(
            f"{_at(path, 'stored_of')}: table missing {len(missing)} complete elements"
        )
    if not protocol.parts:
        return StorageProtocolSpec(
            fields["name"], protocol, storage, complete_set.__contains__, stored_map.__getitem__
        )
    # on a product, stage j holds of the prefixes of length j + 1 of the
    # listed tuples, so the last stage is membership
    stages = tuple(
        frozenset(p[1][:end] for p in complete_set).__contains__
        for end in range(1, len(protocol.parts) + 1)
    )
    return StorageProtocolSpec(
        fields["name"], protocol, storage, None, stored_map.__getitem__, stages=stages
    )


def element_from_json(doc, named, monoid: MonoidSpec | None = None) -> Term:
    """A query's element (see :func:`_element`)."""
    return _element(monoid, named or {})(doc, "element")


# ---------------------------------------------------------------------------
# Relation query files

# query kind -> the elements it reads; an exchange's "s" and "s_after"
# may be left out and default to ε
_QUERIES = {
    "exchange": {"p": _REQUIRED, "s": _UNSET, "p_after": _REQUIRED, "s_after": _UNSET},
    "deposit": {"p": _REQUIRED, "s": _REQUIRED, "p_after": _REQUIRED},
    "withdraw": {"p": _REQUIRED, "p_after": _REQUIRED, "s_after": _REQUIRED},
    "update": {"p": _REQUIRED, "p_after": _REQUIRED},
    "guard": {"p": _REQUIRED, "s": _REQUIRED},
    "valid-fragment": {"p": _REQUIRED},
}


def load_queries(doc: dict, named, sp: StorageProtocolSpec | None = None) -> list[dict]:
    """The queries of a relations document. Given the protocol ``sp``,
    ``p`` and ``p_after`` are elements of its protocol monoid and ``s``
    and ``s_after`` of its storage monoid (see :func:`_element`). An
    element field that the query's kind does not read is an error."""
    # an element field's first letter names its monoid
    elements = {"p": _element(sp and sp.protocol, named or {}),
                "s": _element(sp and sp.storage, named or {})}

    def query(q, path: str) -> dict:
        kind = _one_of(_QUERIES, "query kind")(_object(q, path).get("kind"), f"{path}.kind")
        node = {
            "kind": (_any, _REQUIRED),
            "expect": (_one_of(("holds", "fails")), "holds"),
            "note": (_name, ""),
            **{key: (elements[key[0]], need) for key, need in _QUERIES[kind].items()},
        }
        return _read(q, node, path)

    node = {"queries": (_list_of(query), _REQUIRED)}
    return list(_read(_object(doc, "relations"), node, "")["queries"])


# ---------------------------------------------------------------------------
# Scenario files


# a scenario's protocol entry: an id, the instance's initial fragments,
# and the fields of the protocol document that the rest of the entry forms
_PROTOCOL_ENTRY = {
    "id": (_name, _REQUIRED),
    "fragments": (_list_of(_tuple_of((_name, _term), "a fragment is [owner, element]")), []),
    **dict.fromkeys(("builtin", "params", *_CUSTOM), (_any, _UNSET)),
}


def load_protocols(entries) -> tuple[dict, dict, dict]:
    """A scenario's protocol list: each entry is an ``id``, the instance's
    initial ``fragments``, and a descriptor, the protocol document that
    the rest of the entry forms.
    Returns (id -> StorageProtocolSpec, id -> helper, id -> initial
    fragments), where a helper is as in :func:`_load_protocol`. Instances
    with identical descriptors denote one protocol: it is built once, and
    they share its spec and helper."""
    built = {}
    protocols, named, fragments = {}, {}, {}
    for i, entry in enumerate(entries):
        path = f"protocols[{i}]"
        descriptor = _read(entry, _PROTOCOL_ENTRY, path)
        iid = descriptor.pop("id")
        fragments[iid] = descriptor.pop("fragments")
        key = json.dumps(descriptor, sort_keys=True)
        if key not in built:
            built[key] = _load_protocol(descriptor, path)
        protocols[iid], helper = built[key]
        if helper is not None:
            named[iid] = helper
    return protocols, named, fragments


def scenario_to_json(scenario: Scenario) -> dict:
    """A copy of the document ``scenario`` was read from (see
    :func:`scenario_from_json`); a scenario made another way has none."""
    if scenario.document is None:
        raise FormatError(f"scenario {scenario.name} was not read from a document")
    return json.loads(json.dumps(scenario.document))


def _script_entry(doc: dict, path: str, kinds: dict) -> ScriptEntry:
    """The script entry ``doc`` read by :data:`_SCRIPT_ENTRY`, its args
    read by the kinds its resolver declares (see :func:`_declared`)."""
    from .explore import RESOLVER_ARGS, ScriptEntry

    fields = dict(doc)
    if "args" in fields:
        declared = RESOLVER_ARGS.get(doc["resolver"])
        fields["args"] = _declared(declared, doc["args"], _at(path, "args"), kinds, "argument")
    if "when" in fields:
        fields["when_result"] = fields.pop("when")
    return ScriptEntry(**fields)


# a script entry's args, like a property's params, are read once the
# scenario's cells and protocol instances are known (see _script_entry)
_SCRIPT_ENTRY = {
    "label": (_name, _REQUIRED),
    "resolver": (_name, _REQUIRED),
    "args": (_object, _UNSET),
    "when": (_term, _UNSET),
    "negate": (_bool, _UNSET),
}
_PROPERTY = {"name": (_name, _REQUIRED), "kind": (_name, _REQUIRED), "params": (_object, {})}
_META = {
    "lock_slot": (_object_of(_count), {}),
    "slot_cells": (_object_of(_count), {}),
    "thread_ops": (_list_of(_list_of(_form_of(
        {"update": (_term, _term), "query": (_term,)},
        'an operation is ["update", key, value] or ["query", key]',
    ))), []),
}
# Scenario's field defaults hold for the fields left unset here.
_SCENARIO = {
    "name": (_name, _REQUIRED),
    "cells": (_list_of(_tuple_of((_name, _term), "a cell is [name, term]")), _REQUIRED),
    "threads": (_list_of(_program), _REQUIRED),
    "protocols": (_list, _REQUIRED),
    "cell_instances": (_object_of(_name), _UNSET),
    "protected_cells": (_object_of(_name), _UNSET),
    "script": (_list_of(_node(_SCRIPT_ENTRY)), _UNSET),
    "properties": (_list_of(_node(_PROPERTY)), _UNSET),
    "terminal_properties": (_list_of(_node(_PROPERTY)), _UNSET),
    "expectation": (_one_of(("no-stuck", "stuck-reachable")), _UNSET),
    "max_states": (_count, _UNSET),
    "max_steps_per_thread": (_count, _UNSET),
    "meta": (_node(_META), {}),
}


def _param_kinds(cells, instances) -> dict:
    """The readers of the param kinds that properties and resolvers
    declare (see :func:`explore.register_property` and
    :func:`explore.register_resolver`) in a scenario with ``cells`` and
    protocol ``instances``."""
    term = _wrapped("term", _term)
    cell = _one_of(cells, "cell")
    update = _tuple_of((_name, term), 'an update is [owner, {"term": T}]')
    return {
        "owner": _name,
        "updates": _wrapped("list", _list_of(_wrapped("list", update))),
        "instance-or-@cell": _one_of(["@cell", *instances], "protocol instance"),
        "term": term,
        "terms": _wrapped("list", _list_of(term)),
        "cell": cell,
        "cells": _wrapped("list", _list_of(cell)),
        "instance": _one_of(instances, "protocol instance"),
        "count": _count,
        "bool": _bool,
    }


def _declared(declared: dict | None, doc, path: str, kinds: dict, field: str) -> tuple:
    """The object ``doc`` as sorted (key, value) pairs, each value read by
    the kind that ``declared`` gives its key (see :func:`_param_kinds`);
    without ``declared``, the values may be any encoded values."""
    if declared is None:
        values = _object_of(_value)(doc, path)
    else:
        node = {
            key: (kinds[kind] if isinstance(kind, str) else _one_of(kind), _UNSET)
            for key, kind in declared.items()
        }
        values = _read(doc, node, path, field)
    return tuple(sorted(values.items()))


def _property(doc: dict, path: str, kinds: dict) -> PropertySpec:
    """The property ``doc`` read by :data:`_PROPERTY`, its params read by
    the kinds its kind declares (see :func:`_declared`)."""
    from .explore import PROPERTY_PARAMS, PropertySpec

    params = _declared(
        PROPERTY_PARAMS.get(doc["kind"]), doc["params"], _at(path, "params"), kinds, "parameter"
    )
    return PropertySpec(doc["name"], doc["kind"], params)


def _unique(what: str, names) -> None:
    """Reject a repeated name; ``names`` are (JSON path, name) pairs."""
    seen = set()
    for path, name in names:
        if name in seen:
            raise FormatError(f"{path}: duplicate {what} name {name!r}")
        seen.add(name)


def scenario_from_json(doc: dict) -> Scenario:
    """The scenario ``doc`` states. It keeps ``doc``, not a copy, as its
    ``document``."""
    from .explore import Scenario, initial_state

    fields = _read(_object(doc, "scenario"), _SCENARIO, "")
    entries = fields.pop("protocols")
    protocols, named, fragments = load_protocols(entries)
    cells = fields["cells"]
    _unique("cell", ((f"cells[{i}][0]", n) for i, (n, _) in enumerate(cells)))
    kinds = _param_kinds([n for n, _ in cells], list(protocols))
    for key, of_key, of_value in (
        ("cell_instances", "cell", "instance"), ("protected_cells", "instance", "cell"),
    ):
        for k, v in fields.get(key, {}).items():
            kinds[of_key](k, _at(key, k))
            kinds[of_value](v, _at(key, k))
    # meta names the slots of the scenario's one hash table, each slot once
    tables = [h.length for h in named.values() if isinstance(h, HashTableElems)]
    length = tables[0] if len(tables) == 1 else 0
    for key, of_key in (("slot_cells", "cell"), ("lock_slot", "instance")):
        seen = {}
        for k, i in fields["meta"][key].items():
            path = _at(f"meta.{key}", k)
            kinds[of_key](k, path)
            if i >= length:
                raise FormatError(f"{path}: slot {i} out of range [0, {length})")
            if i in seen:
                raise FormatError(f"{path}: slot {i} is also named by {seen[i]!r}")
            seen[i] = k
    lists = ("properties", "terminal_properties")
    for key in lists:
        if key in fields:
            fields[key] = tuple(
                _property(p, f"{key}[{i}]", kinds) for i, p in enumerate(fields[key])
            )
    _unique("property", (
        (f"{key}[{i}].name", p.name) for key in lists for i, p in enumerate(fields.get(key, ()))
    ))
    script: dict = {}
    for i, raw in enumerate(fields.pop("script", ())):
        entry = _script_entry(raw, f"script[{i}]", kinds)
        script.setdefault(entry.label, []).append(entry)
    scenario = Scenario(
        programs=fields.pop("threads"),
        protocols=protocols,
        initial_fragments=fragments,
        script=script,
        named=named,
        **fields,
    )
    scenario.__dict__["document"] = doc  # not a field (see Scenario)
    try:
        initial_state(scenario)
    except Exception as exc:  # the fragments do not compose to a complete state
        # a fragment outside its carrier may break 𝒞 in any way: name one, if one is
        for i, entry in enumerate(entries):
            element = _element(protocols[entry["id"]].protocol)
            for j, (_, el) in enumerate(entry.get("fragments", ())):
                element(el, f"protocols[{i}].fragments[{j}][1]")
        if not isinstance(exc, (TypeError, ValueError)):
            raise
        raise FormatError(f"protocols: {exc}") from exc
    return scenario


# ---------------------------------------------------------------------------
# Reports


def result_to_json(result: ExplorationResult) -> dict:
    return {
        "scenario": result.scenario,
        "mode": result.mode,
        "memo": result.memo,
        "expectation": result.expectation,
        "states": result.states,
        "transitions": result.transitions,
        "dedup_hits": result.dedup_hits,
        "schedules_completed": result.schedules_completed,
        "stuck_count": result.stuck_count,
        "stuck": [
            {"reason": reason, "schedule": list(sched)}
            for reason, sched in result.stuck_examples
        ],
        "violations": [
            {
                "kind": v.kind,
                "name": v.name,
                "detail": v.detail,
                "schedule": list(v.schedule),
            }
            for v in result.violations
        ],
        "terminal_summaries": [t.to_json() for t in result.terminal_summaries],
        "bound_exceeded": result.bound_exceeded,
        "warnings": list(result.warnings),
        "ok": result.ok,
    }


# The fields of each report that `guardcheck report` renders, each with
# its kind: a dict is an object with those fields (others are not read)
# and a one-item list a list of such items.
_REPORTS = {
    "check": {
        "protocol": _name, "wellformed": {"ok": _bool}, "ok": _bool, "queries": [{
            "kind": _name, "note": _name, "expect": _name, "verdict": _name, "matched": _bool,
            "witness": lambda doc, path: doc is None or _term(doc, path),
        }],
    },
    "explore": {
        "scenario": _name, "mode": _name, "expectation": _name, "states": _count,
        "transitions": _count, "dedup_hits": _count, "schedules_completed": _count,
        "stuck_count": _count, "stuck": [{"reason": _name, "schedule": _list}],
        "violations": [{"kind": _name, "name": _name, "detail": _name, "schedule": _list}],
        "terminal_summaries": _list, "warnings": _list, "bound_exceeded": _bool, "ok": _bool,
    },
}


def read_report(doc) -> str:
    """Which report ``doc`` is, "check" or "explore", once every field
    that `guardcheck report` renders is found with its kind; FormatError
    names the path of the first that is not."""
    kind = "check" if isinstance(doc, dict) and "queries" in doc else "explore"
    _shape(doc, _REPORTS[kind], "")
    return kind


def _shape(doc, shape, path: str) -> None:
    if isinstance(shape, list):
        for i, x in enumerate(_list(doc, path or "report")):
            _shape(x, shape[0], f"{path}[{i}]")
    elif isinstance(shape, dict):
        _object(doc, path or "report")
        for key, kind in shape.items():
            if key not in doc:
                raise FormatError(f"{_at(path, key)}: missing")
            _shape(doc[key], kind, _at(path, key))
    else:
        shape(doc, path)
