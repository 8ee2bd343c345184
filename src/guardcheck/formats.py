"""JSON schemas: monoid combinators, protocols, relation queries,
scenarios, and reports.

Monoids are combinator trees (excl | agn | agnvec | nat | int | frac |
product | finmap | table | trivial). Protocols are either a named builtin
with parameters or a custom pair of monoids with ``complete`` and
``stored_of`` given as decision tables over enumerated elements. Elements
are canonical term arrays, with ["named", ctor, [args...]] resolving
through a protocol's named-element constructors.

All emitters produce key-sorted JSON so identical inputs give
byte-identical outputs.
"""

from __future__ import annotations

import inspect
import itertools
import json

from .explore import ExplorationResult, PropertySpec, Scenario, ScriptEntry
from .lang import UsageError, ast_from_json, ast_to_json
from .library import (
    HashFunctionSpec,
    build_agn,
    build_agnvec,
    build_counting,
    build_excl,
    build_finmap,
    build_forever,
    build_frac,
    build_fractional,
    build_fractional_memory,
    build_hashtable_monoid,
    build_int,
    build_nat,
    build_product,
    build_rwlock,
    build_rwlock_multi,
    build_table_monoid,
    build_trivial,
    pcm_as_protocol,
)
from .monoid import MonoidSpec, is_element
from .protocol import StorageProtocolSpec
from .terms import BOT, EncodingError, Term, is_term, pretty, term_from_json, term_to_json

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
    "dumps",
]


class FormatError(ValueError):
    """Input document does not match the schema."""


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _need(doc: dict, key: str):
    if key not in doc:
        raise FormatError(f"missing field {key!r} in {sorted(doc)}")
    return doc[key]


def _terms(docs) -> tuple[Term, ...]:
    return tuple(term_from_json(d) for d in docs)


def _term(doc, path: str) -> Term:
    """The term that ``doc`` encodes; ``path`` locates ``doc`` in its
    file, for error messages."""
    try:
        return term_from_json(doc)
    except EncodingError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _at(path: str, key: str) -> str:
    """The JSON path of field ``key`` of the node at ``path`` ("" is the root)."""
    return f"{path}.{key}" if path else key


def _object(doc, path: str) -> dict:
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: must be an object, got {type(doc).__name__}")
    return doc


def _list(doc, path: str) -> list:
    if not isinstance(doc, list):
        raise FormatError(f"{path}: must be a list, got {type(doc).__name__}")
    return doc


def _pair(doc, path: str, form: str) -> list:
    """``doc``, a two-element list; ``form`` spells it out for error
    messages."""
    if not isinstance(doc, list) or len(doc) != 2:
        raise FormatError(f"{path}: {form}, got {doc!r}")
    return doc


def _pairs(doc, path: str, form: str) -> list:
    """The list ``doc`` of two-element lists (see :func:`_pair`)."""
    return [_pair(entry, f"{path}[{i}]", form) for i, entry in enumerate(_list(doc, path))]


def _known_fields(doc: dict, fields, path: str) -> None:
    """Reject a key of ``doc`` that is not in ``fields``: a misspelt
    optional field would otherwise fall back to its default unseen."""
    for key in doc:
        if key not in fields:
            raise FormatError(f"{_at(path, key)}: unknown field")


# ---------------------------------------------------------------------------
# Monoids


# monoid kind -> the fields its node may hold besides "kind"
_MONOID_FIELDS = {
    "excl": ("values",),
    "agn": ("values", "max_count"),
    "agnvec": ("values", "k", "max_count"),
    "nat": ("limit",),
    "int": ("lo", "hi"),
    "frac": ("den_bound", "max_value"),
    "product": ("name", "parts", "total"),
    "finmap": ("keys", "value"),
    "table": ("name", "unit", "elements", "compose", "invalid"),
    "custom-table": ("name", "unit", "elements", "compose", "invalid"),
    "trivial": (),
}


def load_monoid(doc: dict, path: str = "") -> MonoidSpec:
    """The monoid of a combinator tree. ``path`` locates ``doc`` in its
    file, for error messages."""
    kind = _need(_object(doc, path or "monoid"), "kind")
    if not isinstance(kind, str) or kind not in _MONOID_FIELDS:
        raise FormatError(f"unknown monoid kind {kind!r}")
    _known_fields(doc, ("kind", *_MONOID_FIELDS[kind]), path)
    try:
        if kind == "excl":
            return build_excl(_terms(_need(doc, "values")))
        if kind == "agn":
            return build_agn(_terms(_need(doc, "values")), doc.get("max_count", 4))
        if kind == "agnvec":
            return build_agnvec(
                _terms(_need(doc, "values")), _need(doc, "k"), doc.get("max_count", 2)
            )
        if kind == "nat":
            return build_nat(doc.get("limit", 8))
        if kind == "int":
            return build_int(doc.get("lo", -8), doc.get("hi", 8))
        if kind == "frac":
            return build_frac(doc.get("den_bound", 12), doc.get("max_value", 4))
        if kind == "product":
            return build_product(
                doc.get("name", "product"),
                [
                    load_monoid(p, f"{_at(path, 'parts')}[{i}]")
                    for i, p in enumerate(_need(doc, "parts"))
                ],
                doc.get("total", False),
            )
        if kind == "finmap":
            return build_finmap(
                _terms(_need(doc, "keys")), load_monoid(_need(doc, "value"), _at(path, "value"))
            )
        if kind in ("table", "custom-table"):
            unit = term_from_json(_need(doc, "unit"))
            elements = list(_terms(_need(doc, "elements")))
            listed = tuple(dict.fromkeys([unit, *elements]))
            return build_table_monoid(
                doc.get("name", "table"),
                elements,
                unit,
                _compose_table(_need(doc, "compose"), listed, _at(path, "compose")),
                _terms(doc.get("invalid", [])),
            )
        return build_trivial()
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad {kind} monoid: {exc}") from exc


def _compose_table(rows, listed: tuple[Term, ...], path: str) -> dict:
    """A table monoid's rows [a, b, a·b] as a dict. Every term in them is
    a listed element (the unit counts as listed), and every unordered pair
    of listed elements has a row, in either order."""
    table = {}
    for i, row in enumerate(rows):
        a, b, ab = _terms(row)
        for t in (a, b, ab):
            if t not in listed:
                raise FormatError(f"{path}[{i}]: {pretty(t)} is not a listed element")
        table[a, b] = ab
    for a, b in itertools.combinations_with_replacement(listed, 2):
        if (a, b) not in table and (b, a) not in table:
            raise FormatError(f"{path}: no row for {pretty(a)} · {pretty(b)}")
    return table


# ---------------------------------------------------------------------------
# Protocols


def _hashtable(length, hash, values):
    """The hash-table builtin; its helper is (raw monoid, elements)."""
    spec = HashFunctionSpec(length, tuple((term_from_json(k), h) for k, h in hash))
    monoid, elems = build_hashtable_monoid(spec, values)
    return pcm_as_protocol(monoid), (monoid, elems)


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
_TERM_LIST_PARAMS = ("keys", "values")


def _params(doc: dict, path: str = "") -> dict:
    """A builtin protocol's ``params``, by default none."""
    return _object(doc.get("params", {}), _at(path, "params"))


def set_den_bound(doc: dict, bound: int) -> None:
    """Make ``bound`` the fraction denominator bound of ``doc`` if it is
    the fractional builtin; other protocols have none."""
    if _object(doc, "protocol").get("builtin") == "fractional":
        doc["params"] = dict(_params(doc), den_bound=bound)


def load_protocol(doc: dict):
    """Returns (StorageProtocolSpec, named-constructor map or None)."""
    sp, helper = _load_protocol(doc)
    return sp, getattr(helper, "constructors", None)


def _load_protocol(doc: dict, path: str = ""):
    """(StorageProtocolSpec, helper). The helper is the builder's
    named-element object, (raw monoid, elements) for the hash table, or
    None. ``path`` locates ``doc`` in its file, for error messages."""
    _object(doc, path or "protocol")
    if "builtin" in doc:
        name = doc["builtin"]
        params = _params(doc, path)
        if not isinstance(name, str) or name not in _BUILTINS:
            raise FormatError(f"unknown builtin protocol {name!r}")
        builder, required = _BUILTINS[name]
        accepted = inspect.signature(builder).parameters
        for key in params:
            if key not in accepted:
                raise FormatError(f"{_at(_at(path, 'params'), key)}: unknown parameter")
        for key in required:
            _need(params, key)
        try:
            built = builder(**{
                k: _terms(v) if k in _TERM_LIST_PARAMS else tuple(v) if isinstance(v, list) else v
                for k, v in params.items()
            })
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad builtin protocol {name}: {exc}") from exc
        return (built, None) if isinstance(built, StorageProtocolSpec) else built

    protocol = load_monoid(_need(doc, "protocol"), _at(path, "protocol"))
    storage = load_monoid(_need(doc, "storage"), _at(path, "storage"))
    complete_set = frozenset(
        _table_element(el, protocol, at)
        for at, el in _table_rows(doc, "complete", path)
    )
    stored_map = {}
    for at, row in _table_rows(doc, "stored_of", path):
        p = _table_element(_pair(row, at, "a row is [p, s]")[0], protocol, f"{at}[0]")
        stored_map[p] = _table_element(row[1], storage, f"{at}[1]")
    missing = complete_set - set(stored_map)
    if missing:
        raise FormatError(f"stored_of table missing {len(missing)} complete elements")
    return (
        StorageProtocolSpec(
            doc.get("name", "custom"),
            protocol,
            storage,
            lambda p: p in complete_set,
            lambda p: stored_map[p],
            bot_parts_incomplete=bool(protocol.parts)
            and not any(p[0] == "tuple" and BOT in p[1] for p in complete_set),
        ),
        None,
    )


def _table_rows(doc: dict, key: str, path: str):
    """(JSON path, entry) for each entry of the decision table ``key``."""
    at = _at(path, key)
    rows = _need(_object(_need(doc, key), at), "table")
    at = _at(at, "table")
    return [(f"{at}[{i}]", row) for i, row in enumerate(_list(rows, at))]


def _table_element(doc, monoid: MonoidSpec, path: str) -> Term:
    """A decision-table entry: a term in the carrier of ``monoid``."""
    el = _term(doc, path)
    if not is_element(monoid, el):
        raise FormatError(f"{path}: {pretty(el)} is not in the carrier of {monoid.name}")
    return el


def element_from_json(doc, named, monoid: MonoidSpec | None = None) -> Term:
    """A term, ["named", ctor, [term args...]] resolved via ``named``, or
    ["compose", [elements...]] composed in ``monoid``. Given ``monoid``,
    an element that is not a composite, and each part of one, must be in
    its carrier; a composite itself may lie outside a bound."""
    if isinstance(doc, list) and doc and doc[0] == "compose":
        if monoid is None:
            raise FormatError("no composition available for compose elements")
        if len(doc) != 2 or not isinstance(doc[1], list):
            raise FormatError(f"a composite is [\"compose\", [elements...]], got {doc!r}")
        parts = [element_from_json(d, named, monoid) for d in doc[1]]
        if not parts:
            raise FormatError("compose needs at least one element")
        out = parts[0]
        for p in parts[1:]:
            out = monoid.compose_fn(out, p)
        return out
    el = _named_or_term(doc, named)
    if monoid is not None and not is_element(monoid, el):
        raise FormatError(f"{pretty(el)} is not in the carrier of {monoid.name}")
    return el


def _named_or_term(doc, named) -> Term:
    if isinstance(doc, list) and doc and doc[0] == "named":
        if named is None:
            raise FormatError("protocol has no named elements")
        if len(doc) != 3 or not isinstance(doc[1], str) or not isinstance(doc[2], list):
            raise FormatError(f"a named element is [\"named\", ctor, [args...]], got {doc!r}")
        ctor = named.get(doc[1])
        if ctor is None:
            raise FormatError(f"unknown named element {doc[1]!r}")
        try:
            return ctor([term_from_json(a) for a in doc[2]])
        except (IndexError, TypeError, ValueError) as exc:
            raise FormatError(f"bad named element {doc!r}: {exc}") from exc
    return term_from_json(doc)


# ---------------------------------------------------------------------------
# Relation query files

# the elements each query kind reads; an exchange's "s" and "s_after"
# may be left out and default to ε, every other listed element is needed
_QUERY_FIELDS = {
    "exchange": ("p", "s", "p_after", "s_after"),
    "deposit": ("p", "s", "p_after"),
    "withdraw": ("p", "p_after", "s_after"),
    "update": ("p", "p_after"),
    "guard": ("p", "s"),
    "valid-fragment": ("p",),
}


def load_queries(doc: dict, named, sp: StorageProtocolSpec | None = None) -> list[dict]:
    """The queries of a relations document. Given the protocol ``sp``,
    ``p`` and ``p_after`` are elements of its protocol monoid and ``s``
    and ``s_after`` of its storage monoid (see :func:`element_from_json`).
    An element field that the query's kind does not read is an error."""
    queries = _list(_need(_object(doc, "relations"), "queries"), "queries")
    out = []
    for i, q in enumerate(queries):
        path = f"queries[{i}]"
        kind = _object(q, path).get("kind")
        if not isinstance(kind, str) or kind not in _QUERY_FIELDS:
            raise FormatError(f"{path}.kind: unknown query kind {kind!r}")
        expect = q.get("expect", "holds")
        if expect not in ("holds", "fails"):
            raise FormatError(f"{path}.expect: must be holds|fails")
        reads = _QUERY_FIELDS[kind]
        for key in reads:
            if key not in q and not (kind == "exchange" and key in ("s", "s_after")):
                raise FormatError(f"{path}.{key}: missing")
        fields = {"kind": kind, "expect": expect, "note": q.get("note", "")}
        for key in ("p", "s", "p_after", "s_after"):
            if key not in q:
                continue
            if key not in reads:
                raise FormatError(f"{path}.{key}: a {kind} query does not read it")
            monoid = sp and (sp.storage if key in ("s", "s_after") else sp.protocol)
            try:
                fields[key] = element_from_json(q[key], named, monoid)
            except (EncodingError, FormatError) as exc:
                raise FormatError(f"{path}.{key}: {exc}") from exc
        out.append(fields)
    return out


# ---------------------------------------------------------------------------
# Scenario files


def _encode_value(v):
    if isinstance(v, bool) or isinstance(v, (int, str)):
        return v
    if isinstance(v, tuple) and v and isinstance(v[0], str) and is_term(v):
        return {"term": term_to_json(v)}
    if isinstance(v, tuple):
        return {"list": [_encode_value(x) for x in v]}
    raise FormatError(f"cannot encode value {v!r}")


def _decode_value(doc, path: str):
    if isinstance(doc, dict):
        if "term" in doc:
            return _term(doc["term"], f"{path}.term")
        if "list" in doc:
            items = _list(doc["list"], f"{path}.list")
            return tuple(_decode_value(x, f"{path}.list[{i}]") for i, x in enumerate(items))
        raise FormatError(f"bad encoded value {doc!r}")
    if isinstance(doc, list):
        raise FormatError(
            f"{path}: write a list as {{\"list\": [...]}} and a term as {{\"term\": T}}"
        )
    return doc


def _encode_kv(pairs):
    return {k: _encode_value(v) for k, v in pairs}


def _decode_kv(doc, path: str) -> tuple:
    pairs = _object(doc, path).items()
    return tuple(sorted((k, _decode_value(v, f"{path}.{k}")) for k, v in pairs))


def load_protocols(entries) -> tuple[dict, dict, dict]:
    """A scenario's protocol list: each entry is an ``id``, the instance's
    initial ``fragments``, and a descriptor, the protocol document that
    the rest of the entry forms.
    Returns (id -> StorageProtocolSpec, id -> helper, id -> descriptor),
    where a helper is as in :func:`_load_protocol`. Instances with
    identical descriptors denote one protocol: it is built once, and they
    share its spec and helper."""
    built = {}
    protocols, named, descriptors = {}, {}, {}
    for i, entry in enumerate(entries):
        path = f"protocols[{i}]"
        iid = _need(_object(entry, path), "id")
        descriptor = {k: v for k, v in entry.items() if k not in ("id", "fragments")}
        key = json.dumps(descriptor, sort_keys=True)
        if key not in built:
            built[key] = _load_protocol(descriptor, path)
        protocols[iid], helper = built[key]
        if helper is not None:
            named[iid] = helper
        descriptors[iid] = descriptor
    return protocols, named, descriptors


def scenario_to_json(scenario: Scenario) -> dict:
    descriptors = scenario.meta.get("protocol_json")
    if descriptors is None:
        raise FormatError(f"scenario {scenario.name} carries no protocol descriptors")
    entries = []
    for lbl in sorted(scenario.script):
        for e in scenario.script[lbl]:
            entry = {"label": e.label, "resolver": e.resolver, "args": _encode_kv(e.args)}
            if e.when_result is not None:
                entry["when"] = term_to_json(e.when_result)
                if e.negate:
                    entry["negate"] = True
            entries.append(entry)
    return {
        "name": scenario.name,
        "cells": [[n, term_to_json(v)] for n, v in scenario.cells],
        "threads": [ast_to_json(p) for p in scenario.programs],
        "protocols": [
            {
                "id": iid,
                **descriptors[iid],
                "fragments": [
                    [o, term_to_json(el)]
                    for o, el in scenario.initial_fragments.get(iid, ())
                ],
            }
            for iid in sorted(scenario.protocols)
        ],
        "cell_instances": dict(sorted(scenario.cell_instances.items())),
        "protected_cells": dict(sorted(scenario.protected_cells.items())),
        "script": entries,
        "properties": [
            {"name": p.name, "kind": p.kind, "params": _encode_kv(p.params)}
            for p in scenario.properties
        ],
        "terminal_properties": [
            {"name": p.name, "kind": p.kind, "params": _encode_kv(p.params)}
            for p in scenario.terminal_properties
        ],
        "expectation": scenario.expectation,
        "max_states": scenario.max_states,
        "max_steps_per_thread": scenario.max_steps_per_thread,
        "meta": {
            "lock_slot": scenario.meta.get("lock_slot", {}),
            "slot_cells": scenario.meta.get("slot_cells", {}),
            "thread_ops": [
                [[op[0], *map(term_to_json, op[1:])] for op in ops]
                for ops in scenario.meta.get("thread_ops", ())
            ],
        },
    }


_SCENARIO_FIELDS = (
    "name", "cells", "threads", "protocols", "cell_instances", "protected_cells", "script",
    "properties", "terminal_properties", "expectation", "max_states", "max_steps_per_thread",
    "meta",
)


def _program(doc, path: str):
    try:
        return ast_from_json(doc, path)
    except UsageError as exc:
        raise FormatError(str(exc)) from exc


def _unique(what: str, names) -> None:
    """Reject a repeated name; ``names`` are (JSON path, name) pairs."""
    seen = []
    for path, name in names:
        if name in seen:
            raise FormatError(f"{path}: duplicate {what} name {name!r}")
        seen.append(name)


def _count(doc: dict, key: str, default: int) -> int:
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise FormatError(f"{key}: must be a non-negative integer, got {value!r}")
    return value


# hash-table operation name -> the number of terms it takes
_THREAD_OPS = {"update": 2, "query": 1}


def _thread_op(op, path: str) -> tuple:
    """One operation of a hash-table thread: ["update", key, value] or
    ["query", key]."""
    if not (isinstance(op, list) and op and isinstance(op[0], str)
            and _THREAD_OPS.get(op[0]) == len(op) - 1):
        raise FormatError(f'{path}: an operation is ["update", key, value] or ["query", key], '
                          f"got {op!r}")
    return (op[0], *(_term(x, f"{path}[{n}]") for n, x in enumerate(op[1:], 1)))


def scenario_from_json(doc: dict) -> Scenario:
    _known_fields(_object(doc, "scenario"), _SCENARIO_FIELDS, "")
    entries = _list(_need(doc, "protocols"), "protocols")
    protocols, named, descriptors = load_protocols(entries)
    initial_fragments = {
        p["id"]: tuple(
            (o, _term(el, f"protocols[{i}].fragments[{j}][1]"))
            for j, (o, el) in enumerate(_pairs(
                p.get("fragments", []), f"protocols[{i}].fragments",
                "a fragment is [owner, element]",
            ))
        )
        for i, p in enumerate(entries)
    }
    script: dict = {}
    for i, e in enumerate(_list(doc.get("script", []), "script")):
        _object(e, f"script[{i}]")
        entry = ScriptEntry(
            _need(e, "label"),
            _need(e, "resolver"),
            _decode_kv(e.get("args", {}), f"script[{i}].args"),
            _term(e["when"], f"script[{i}].when") if "when" in e else None,
            e.get("negate", False),
        )
        script.setdefault(entry.label, []).append(entry)

    def property_specs(key):
        return tuple(
            PropertySpec(_need(_object(p, f"{key}[{i}]"), "name"), _need(p, "kind"),
                         _decode_kv(p.get("params", {}), f"{key}[{i}].params"))
            for i, p in enumerate(_list(doc.get(key, []), key))
        )

    cells = tuple(
        (n, _term(v, f"cells[{i}][1]"))
        for i, (n, v) in enumerate(_pairs(_need(doc, "cells"), "cells", "a cell is [name, term]"))
    )
    _unique("cell", ((f"cells[{i}][0]", n) for i, (n, _) in enumerate(cells)))
    properties = property_specs("properties")
    terminal_properties = property_specs("terminal_properties")
    _unique("property", (
        (f"{key}[{i}].name", p.name)
        for key, specs in (("properties", properties), ("terminal_properties", terminal_properties))
        for i, p in enumerate(specs)
    ))
    expectation = doc.get("expectation", "no-stuck")
    if expectation not in ("no-stuck", "stuck-reachable"):
        raise FormatError(f"expectation: must be no-stuck or stuck-reachable, got {expectation!r}")
    meta = _object(doc.get("meta", {}), "meta")
    return Scenario(
        name=_need(doc, "name"),
        cells=cells,
        programs=tuple(
            _program(t, f"threads[{i}]")
            for i, t in enumerate(_list(_need(doc, "threads"), "threads"))
        ),
        protocols=protocols,
        initial_fragments=initial_fragments,
        script=script,
        properties=properties,
        terminal_properties=terminal_properties,
        expectation=expectation,
        max_states=_count(doc, "max_states", 200_000),
        max_steps_per_thread=_count(doc, "max_steps_per_thread", 64),
        named=named,
        cell_instances=_object(doc.get("cell_instances", {}), "cell_instances"),
        protected_cells=_object(doc.get("protected_cells", {}), "protected_cells"),
        meta={
            "protocol_json": descriptors,
            "lock_slot": _object(meta.get("lock_slot", {}), "meta.lock_slot"),
            "slot_cells": _object(meta.get("slot_cells", {}), "meta.slot_cells"),
            "thread_ops": tuple(
                tuple(
                    _thread_op(op, f"meta.thread_ops[{t}][{j}]")
                    for j, op in enumerate(_list(ops, f"meta.thread_ops[{t}]"))
                )
                for t, ops in enumerate(_list(meta.get("thread_ops", []), "meta.thread_ops"))
            ),
        },
    )


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
