"""Case studies: reader-writer lock and lock-per-slot hash table.

Builds executable scenarios for the explorer: the programs (desugared to
the core language), the ghost script that mirrors the locking discipline
(begin/acquire/retry/release transitions, withdraws and deposits of the
protected content, guard windows around reader accesses) and the safety
properties asserted in every reached state. A builder writes its
scenario's JSON document and reads it, as a scenario file is read.

This is the authoring kit: no command loads it. The resolvers and
properties its documents name, and the sequential oracle, are in
:mod:`guardcheck.resolvers`; the oracle and the option codecs are
imported here too, for the tests and tools that read them from here.
"""

from __future__ import annotations


from .explore import Scenario
from .formats import load_protocols, scenario_from_json
from .lang import (
    abort,
    add,
    app,
    ast_to_json,
    cas,
    do_until,
    eq,
    fetch_add,
    if_,
    index_chain,
    label,
    let,
    load,
    loc,
    match,
    pair,
    proj,
    rec,
    seq,
    store,
    var,
)
from .library import NONE, HashFunctionSpec, HashTableElems
from .resolvers import (
    _region,
    decode_results,
    explorer_outcomes,
    ghost_to_opt,
    opt_to_ghost,
    sequential_oracle,
)
from .terms import (
    UNIT,
    Record,
    Term,
    is_term,
    pretty,
    tbool,
    tcon,
    term_to_json,
    tint,
    ttuple,
)


__all__ = [
    "RwLockScenarioParams",
    "HashTableScenarioParams",
    "build_rwlock_scenario",
    "build_race_scenario",
    "build_hashtable_scenario",
    "build_abort_scenario",
    "sequential_oracle",
    "explorer_outcomes",
    "opt_to_ghost",
    "ghost_to_opt",
    "decode_results",
]


FALSE, TRUE = tbool(False), tbool(True)


def _encode_value(v):
    """``v`` as an encoded value (see :func:`formats._value`)."""
    if isinstance(v, (int, str)):  # a bool is an int
        return v
    if isinstance(v, tuple) and v and isinstance(v[0], str) and is_term(v):
        return {"term": term_to_json(v)}
    if isinstance(v, tuple):
        return {"list": [_encode_value(x) for x in v]}
    raise ValueError(f"cannot encode value {v!r}")


def _encode_kv(values: dict) -> dict:
    return {k: _encode_value(v) for k, v in values.items()}


def _prop(name, kind, **params):
    return {"name": name, "kind": kind, "params": _encode_kv(params)}


# ---------------------------------------------------------------------------
# Lock steps in programs
#
# Each step builds its program fragment and binds its labels' script
# entries. The single lock's steps run the rw.X resolvers; the
# multi-counter lock's run rwm.X, and a reader names its counter.


def _bind(script: list, lbl: str, resolver: str, when=None, **args) -> str:
    """Append an entry for ``lbl`` to ``script``; returns ``lbl``."""
    entry = {"label": lbl, "resolver": resolver, "args": _encode_kv(args)}
    if when is not None:
        entry["when"] = term_to_json(when)
    script.append(entry)
    return lbl


def _exc_acquire(script, t, sfx, exc_loc, rc_locs, instance):
    """The writer's acquire loop: set the exc flag, then wait for each
    counter to read zero. Returns the program and the label of the last
    check, where the content is withdrawn."""
    multi = len(rc_locs) > 1
    begin = f"{t}.exc_begin{sfx}"
    _bind(script, begin, "rwm.exc-begin" if multi else "rw.exc-begin", TRUE, instance=instance)
    steps = [do_until(label(begin, cas(exc_loc, FALSE, TRUE)), "s", var("s"))]
    for j, rc_loc in enumerate(rc_locs):
        check = f"{t}.exc_check{j}{sfx}"
        if multi:
            _bind(script, check, "rwm.exc-progress", tint(0), instance=instance, counter=j)
        else:
            _bind(script, check, "rw.exc-acquire", tint(0), instance=instance)
        steps.append(do_until(label(check, load("sc", rc_loc)), "r", eq(var("r"), tint(0))))
    return seq(*steps, UNIT), check


def _shared_section(script, t, sfx, exc_loc, rc_loc, instance, name, read, **counter):
    """The reader's section: register on the counter and back out while
    the exc flag is set, then bind ``name`` to ``read``, release, and
    return ``name``. ``counter`` is the multi-counter lock's ``counter``
    argument, and empty for the single lock."""
    pfx = "rwm" if counter else "rw"

    def step(kind, resolver, when=None):
        lbl = f"{t}.{kind}{sfx}"
        return _bind(script, lbl, f"{pfx}.{resolver}", when, instance=instance, **counter)

    retry = label(step("sh_retry", "shared-retry"), fetch_add(rc_loc, tint(-1)))
    enter = let(
        "_",
        label(step("sh_begin", "shared-begin"), fetch_add(rc_loc, tint(1))),
        let(
            "e",
            label(step("sh_check", "shared-acquire", FALSE), load("sc", exc_loc)),
            seq(if_(var("e"), retry, UNIT), var("e")),
        ),
    )
    release = label(step("sh_release", "shared-release"), fetch_add(rc_loc, tint(-1)))
    return seq(
        do_until(enter, "e", eq(var("e"), FALSE)), let(name, read, seq(release, var(name)))
    )


def _lock_instance(iid, named, x0, exc_cell, rc_cells, cell, sfx="", **stored):
    """Lock instance ``iid``'s region fragment (flag clear, counters zero,
    content ``x0``) and its four rw-* properties, named with ``sfx``;
    ``stored`` holds more arguments of its stored-matches-cell property."""
    fragments = ((_region(iid), named.fields(False, (0,) * named.k, x0)),)
    return fragments, [
        _prop(f"mutual-exclusion{sfx}", "rw-mutual-exclusion", instance=iid),
        _prop(f"reader-agreement{sfx}", "rw-reader-agreement", instance=iid),
        _prop(f"fields-match-heap{sfx}", "rw-fields-match-heap", instance=iid,
              exc_cell=exc_cell, rc_cells=tuple(rc_cells)),
        _prop(f"stored-matches-cell{sfx}", "rw-stored-matches-cell", instance=iid, cell=cell,
              **stored),
    ]


def _scenario(cells, programs, protocols, script, **fields) -> Scenario:
    """Read the scenario document of ``fields`` and of these, which it
    encodes: ``cells`` and each protocol entry's ``fragments`` are (name,
    term) pairs and ``programs`` expressions. It lists the protocol and
    script entries by id and by label."""
    return scenario_from_json({
        "cells": [[n, term_to_json(v)] for n, v in cells],
        "threads": [ast_to_json(p) for p in programs],
        "protocols": [
            {**entry, "fragments": [[o, term_to_json(el)] for o, el in entry["fragments"]]}
            for entry in sorted(protocols, key=lambda entry: entry["id"])
        ],
        "script": sorted(script, key=lambda entry: entry["label"]),
        "max_states": 200_000,
        **fields,
    })


# ---------------------------------------------------------------------------
# Reader-writer lock scenarios


class RwLockScenarioParams(Record):
    """counters=1 gives the single-counter lock; writers are ("incr", n)
    or ("write", value); readers list the counter index each reader uses."""

    counters: int = 1
    writers: tuple = (("incr", 1), ("incr", 1))
    readers: tuple = ()
    initial: int = 0
    locked: bool = True

    def __post_init__(self):
        if self.counters < 1:
            raise ValueError("need at least one counter")
        for kind, _ in self.writers:
            if kind not in ("incr", "write"):
                raise ValueError(f"writer kind {kind!r} is neither 'incr' nor 'write'")
        for k in self.readers:
            if not 0 <= k < self.counters:
                raise ValueError("reader counter index out of range")


def _reachable_values(params: RwLockScenarioParams) -> tuple[Term, ...]:
    values = {params.initial}
    incr_total = sum(n for kind, n in params.writers if kind == "incr")
    base = {params.initial}
    for kind, n in params.writers:
        if kind == "write":
            base.add(n)
    for v in base:
        for extra in range(incr_total + 1):
            values.add(v + extra)
    return tuple(tint(v) for v in sorted(values))


def build_rwlock_scenario(params: RwLockScenarioParams) -> Scenario:
    k = params.counters
    multi = k > 1
    pfx = "rwm" if multi else "rw"
    values = _reachable_values(params)
    nreaders = len(params.readers)

    rc_cells = tuple(f"rc{i}" for i in range(k))
    cells = [("exc", FALSE)] + [(c, tint(0)) for c in rc_cells] + [("cell", tint(params.initial))]
    exc_loc = loc(0)
    rc_locs = [loc(1 + i) for i in range(k)]
    cell_loc = loc(1 + k)

    programs = []
    script = []
    for tid, (kind, n) in enumerate(params.writers):
        t = f"t{tid}"
        if kind == "incr":
            body = let("v", load("na", cell_loc), store("na", cell_loc, add(var("v"), tint(n))))
        else:
            body = store("na", cell_loc, tint(n))
        if params.locked:
            lock, _ = _exc_acquire(script, t, "", exc_loc, rc_locs, "lock")
            release = f"{t}.exc_release"
            _bind(script, release, f"{pfx}.exc-release", instance="lock", cell="cell")
            body = seq(lock, body, label(release, store("sc", exc_loc, FALSE)), UNIT)
        programs.append(body)
    for tid, kidx in enumerate(params.readers, len(params.writers)):
        t = f"t{tid}"
        body = load("na", cell_loc)
        if params.locked:
            counter = {"counter": kidx} if multi else {}
            read = _bind(script, f"{t}.sh_read", f"{pfx}.shared-read", instance="lock", **counter)
            body = _shared_section(
                script, t, "", exc_loc, rc_locs[kidx], "lock", "v", label(read, body), **counter
            )
        programs.append(body)

    if multi:
        builtin = "rwlock-multi"
        lock_params = {"k": k, "rc_range": [-1, 2], "sp_max": max(1, nreaders), "agn_max": 1}
    else:
        builtin = "rwlock"
        lock_params = {"rc_range": [-2, max(4, nreaders + 1)], "sp_max": max(4, nreaders),
                       "agn_max": 4}
    lock_params["values"] = [term_to_json(v) for v in values]
    entries = [{"id": "lock", "builtin": builtin, "params": lock_params}] if params.locked else []
    _, named, _ = load_protocols(entries)
    cell_instances, protected, properties, terminal = {}, {}, [], []
    if params.locked:
        entries[0]["fragments"], lock_properties = _lock_instance(
            "lock", named["lock"], tint(params.initial), "exc", rc_cells, "cell"
        )
        cell_instances = {name: "lock" for name, _ in cells}
        protected["lock"] = "cell"
        properties = [_prop("ghost-invariant", "ghost-invariant"), *lock_properties]
        terminal = [_prop("all-finished", "all-finished")]
        if all(kind == "incr" for kind, _ in params.writers):
            total = params.initial + sum(n for _, n in params.writers)
            terminal.append(_prop("cell-incremented", "heap-cell", cell="cell", op="eq",
                                  value=tint(total)))
        terminal += [
            _prop(f"reader-{i}-sane", "thread-result-in", tid=len(params.writers) + i,
                  values=values)
            for i in range(nreaders)
        ]

    name = ("rwlock-multi" if multi else "rwlock") + ("" if params.locked else "-unlocked")
    return _scenario(
        cells, programs, entries, script,
        name=name,
        cell_instances=cell_instances,
        protected_cells=protected,
        properties=properties,
        terminal_properties=terminal,
        expectation="no-stuck" if params.locked else "stuck-reachable",
        max_steps_per_thread=5000,
        meta={"lock_slot": {}, "slot_cells": {}, "thread_ops": []},
    )


def build_race_scenario(readers: int = 1, writers: int = 1) -> Scenario:
    """Locks removed, non-atomic accesses retained: a race must be found."""
    return build_rwlock_scenario(
        RwLockScenarioParams(
            writers=(("write", 7),) * writers, readers=(0,) * readers, locked=False
        )
    )


# ---------------------------------------------------------------------------
# Hash-table scenario


class HashTableScenarioParams(Record):
    """Per-thread operation lists over a fixed table; collisions are
    chosen through the hash table spec."""

    hash_spec: HashFunctionSpec
    values: tuple  # value terms
    thread_ops: tuple  # per thread: tuple of ("update", k, v) | ("query", k)

    def updater_of(self, key: Term) -> int | None:
        owner = None
        for t, ops in enumerate(self.thread_ops):
            for op in ops:
                if op[0] == "update" and op[1] == key:
                    if owner is not None and owner != t:
                        raise ValueError(
                            f"key {pretty(key)} updated by threads {owner} and {t}"
                        )
                    owner = t
        return owner


# the probe's slot index, and the probe of the next slot
_I = var("i")
_NEXT_SLOT = app(var("probe"), add(_I, tint(1)))


def _probe(key, hash_spec: HashFunctionSpec, at_slot):
    """The linear probe for ``key`` from its hash: at slot ``_I`` it runs
    ``at_slot``, which may go on with ``_NEXT_SLOT``, and past the end of
    the table it aborts."""
    body = if_(eq(_I, tint(hash_spec.length)), abort(), at_slot)
    return app(rec("probe", "i", body), tint(hash_spec.hash_of(key)))


def _ht_query_program(script, t, idx, key, hash_spec, exc_at, rc_at, slot_at):
    """Operation ``idx`` of thread ``t``: read each probed slot under its
    shared lock; an empty slot gives none, ``key``'s entry its value."""
    sfx = f".{idx}"
    read = _bind(script, f"{t}.read{sfx}", "rw.shared-read", instance="@cell", raw_cell=False)
    _bind(script, read, "ht.query-check", instance="ht", key=key)
    found = if_(eq(proj(1, var("kv")), key), ("con", "inr", (proj(2, var("kv")),)), _NEXT_SLOT)
    lookup = match(label(read, load("na", slot_at)), "n", tcon("inl", UNIT), "kv", found)
    return _probe(key, hash_spec, _shared_section(script, t, sfx, exc_at, rc_at, "@cell", "r",
                                                  lookup))


def _ht_update_program(script, t, idx, key, value, hash_spec, exc_at, rc_at, slot_at):
    """Operation ``idx`` of thread ``t``: take each probed slot's lock and
    write ``key``'s entry into the slot if it is empty or holds ``key``."""
    sfx = f".{idx}"
    lock, acquired = _exc_acquire(script, t, sfx, exc_at, [rc_at], "@cell")
    _bind(script, acquired, "ht.take-slot", tint(0), instance="ht")
    write = _bind(script, f"{t}.write{sfx}", "ht.update", instance="ht")
    write = label(write, store("na", slot_at, tcon("inr", ttuple(key, value))))
    unlock = _bind(script, f"{t}.unlock{sfx}", "ht.give-slot", instance="ht")
    _bind(script, unlock, "rw.exc-release", instance="@cell", raw_cell=False)
    found = if_(eq(proj(1, var("kv")), key), write, _NEXT_SLOT)
    return _probe(key, hash_spec, seq(
        lock,
        let("s", load("na", slot_at), match(var("s"), "n", write, "kv", found)),
        label(unlock, store("sc", exc_at, FALSE)),
        UNIT,
    ))


def build_hashtable_scenario(params: HashTableScenarioParams) -> Scenario:
    hash_spec = params.hash_spec
    length = hash_spec.length
    keys = hash_spec.keys
    none_opt = tcon("inl", UNIT)

    cells = [(f"slot{i}", none_opt) for i in range(length)]
    for i in range(length):
        cells += [(f"exc{i}", FALSE), (f"rc{i}", tint(0))]
    slot_locs = [loc(i) for i in range(length)]
    exc_locs = [loc(length + 2 * i) for i in range(length)]
    rc_locs = [loc(length + 2 * i + 1) for i in range(length)]
    # the exc, rc and slot locations of the probed slot _I
    probed = tuple(index_chain(_I, locs, abort()) for locs in (exc_locs, rc_locs, slot_locs))

    table = {
        "id": "ht",
        "builtin": "hashtable",
        "params": {
            "length": length,
            "hash": [[term_to_json(key), h] for key, h in hash_spec.table],
            "values": [term_to_json(v) for v in params.values],
        },
    }
    # one document per slot lock, so that an edit to one leaves the others
    slot_states = HashTableElems.slot_states(keys, params.values)
    entries = [table] + [{
        "id": f"lock{i}",
        "builtin": "rwlock",
        "params": {
            "values": [term_to_json(v) for v in slot_states],
            "rc_range": [-1, 2],
            "sp_max": 2,
            "agn_max": 2,
        },
    } for i in range(length)]
    _, named, _ = load_protocols(entries)
    ht_elems = named["ht"]
    key_owners = [(k, params.updater_of(k)) for k in keys]
    entries[0]["fragments"] = [
        ("client" if t is None else f"thread:{t}", ht_elems.m(k, NONE)) for k, t in key_owners
    ] + [(f"store:slot{i}", ht_elems.slot(i, NONE)) for i in range(length)]
    cell_instances, protected, lock_slot = {}, {}, {}
    properties = [
        _prop("ghost-invariant", "ghost-invariant"),
        _prop("table-invariants", "ht-valid"),
        _prop("slots-match-heap", "ht-slots-match-heap"),
    ]
    for i in range(length):
        iid = f"lock{i}"
        entries[1 + i]["fragments"], lock_properties = _lock_instance(
            iid, named[iid], NONE, f"exc{i}", (f"rc{i}",), f"slot{i}", f"-{i}",
            raw_cell=False,
        )
        properties += lock_properties
        for cell in (f"slot{i}", f"exc{i}", f"rc{i}"):
            cell_instances[cell] = iid
        protected[iid] = f"slot{i}"
        lock_slot[iid] = i

    script = []
    programs = []
    for t, ops in enumerate(params.thread_ops):
        # a thread's value is the list of its query results, as nested pairs
        out = UNIT
        for idx in reversed([idx for idx, op in enumerate(ops) if op[0] != "update"]):
            out = pair(var(f"qr{idx}"), out)
        for idx, op in reversed(list(enumerate(ops))):
            if op[0] == "update":
                expr = _ht_update_program(script, f"t{t}", idx, *op[1:], hash_spec, *probed)
                out = seq(expr, out)
            else:
                expr = _ht_query_program(script, f"t{t}", idx, op[1], hash_spec, *probed)
                out = let(f"qr{idx}", expr, out)
        programs.append(out)

    return _scenario(
        cells, programs, entries, script,
        name="hashtable",
        cell_instances=cell_instances,
        protected_cells=protected,
        properties=properties,
        terminal_properties=[_prop("all-finished", "all-finished")],
        expectation="no-stuck",
        max_steps_per_thread=10000,
        meta={
            "lock_slot": lock_slot,
            "slot_cells": {f"slot{i}": i for i in range(length)},
            "thread_ops": [
                [[op[0], *map(term_to_json, op[1:])] for op in ops] for ops in params.thread_ops
            ],
        },
    )


def build_abort_scenario() -> Scenario:
    """Probing past the end of the table aborts, which the machine reports
    as a stuck state."""
    k0, k1 = tint(0), tint(1)
    hash_spec = HashFunctionSpec(1, ((k0, 0), (k1, 0)))
    params = HashTableScenarioParams(
        hash_spec,
        (tint(10), tint(11)),
        ((("update", k0, tint(10)), ("update", k1, tint(11))),),
    )
    doc = build_hashtable_scenario(params).document
    edits = {"name": "hashtable-abort", "terminal_properties": [], "expectation": "stuck-reachable"}
    return scenario_from_json({**doc, **edits})
