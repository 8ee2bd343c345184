"""Case studies: reader-writer lock and lock-per-slot hash table.

Builds executable scenarios for the explorer: the programs (desugared to
the core language), the ghost script that mirrors the locking discipline
(begin/acquire/retry/release transitions, withdraws and deposits of the
protected content, guard windows around reader accesses), the safety
properties asserted in every reached state, and the independent
sequential oracle used to judge terminal outcomes. A builder writes its
scenario's JSON document and reads it, as a scenario file is read.

Thread results are nested pairs of the thread's query results, so
explorer outcomes can be compared against the oracle's outcome set.
"""

from __future__ import annotations


from .explore import (
    PropertySpec,
    ReplayError,
    ResolveCtx,
    Scenario,
    ScriptEntry,
    register_property,
    register_resolver,
)
from .formats import load_protocols, scenario_from_json
from .ghost import ExchangeAction, GhostViolation, OpenGuardAction, TransferAction, joint_state
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
from .library import NONE, HashFunctionSpec, HashTableElems, RwLockElems, ex, some
from .terms import (
    UNIT,
    Record,
    Term,
    con_args,
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


def opt_to_ghost(v: Term) -> Term:
    """Language option (inl ()/inr x) to ghost option (none/some x)."""
    if con_args(v, "inl") is not None:
        return NONE
    got = con_args(v, "inr")
    if got is None:
        raise ValueError(f"not an option value: {pretty(v)}")
    return some(got[0])


def ghost_to_opt(t: Term) -> Term:
    if t == NONE:
        return tcon("inl", UNIT)
    got = con_args(t, "some")
    if got is None:
        raise ValueError(f"not a ghost option: {pretty(t)}")
    return tcon("inr", got[0])


def _region(iid: str) -> str:
    return f"region:{iid}"


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
# Reader-writer lock resolvers
#
# One resolver per lock step serves both locks, under its rw.X and its
# rwm.X name. The resolvers read and change the lock's fragments only
# through RwLockElems, by counter index (the single lock has one counter),
# and never see how a lock writes its elements. Only the writer's check
# differs:
# rw.exc-acquire withdraws at once, rwm.exc-progress records counter j and
# withdraws after the last one. The args the lock and table resolvers read
# (_counter range-checks "counter"):
_INSTANCE = {"instance": "instance-or-@cell"}
_COUNTED = {**_INSTANCE, "counter": "count"}


def _lock_elems(scenario: Scenario, iid):
    """The named elements of instance ``iid``, a reader-writer lock. On
    another instance, the ValueError fails the step or the property."""
    named = scenario.named.get(iid)
    if not isinstance(named, RwLockElems):
        raise ValueError(f"instance {iid!r} is not a reader-writer lock")
    return named


def _rw_parts(ctx: ResolveCtx, entry: ScriptEntry):
    iid = ctx.instance_for(entry)
    named = _lock_elems(ctx.scenario, iid)
    sp = ctx.scenario.protocols[iid]
    inst = ctx.ledger.instance(iid)
    region = inst.fragment_of(_region(iid), sp.protocol.unit)
    mine = inst.fragment_of(ctx.self_owner, sp.protocol.unit)
    return iid, sp, named, region, mine


def _counter(entry: ScriptEntry, named) -> int:
    """The entry's ``counter``, by default 0: an index of the lock's
    counters, 0 <= counter < k (the single lock has k = 1)."""
    counter = entry.arg("counter", 0)
    if not (isinstance(counter, int) and 0 <= counter < named.k):
        raise ReplayError(f"counter {counter!r} out of range [0, {named.k})")
    return counter


def _update(ctx, iid, region, mine, note, kind="update", **moved):
    """Replace the lock's region fragment and the thread's fragment."""
    updates = ((_region(iid), region), (ctx.self_owner, mine))
    return ExchangeAction(iid, updates, kind=kind, note=note, **moved)


def _withdraw(ctx, iid, named, region, mine, x, note):
    """The writer trades its pending token for the exc token and takes x."""
    return _update(ctx, iid, region, named.take_exc(mine), note, "withdraw", withdrawn=ex(x))


def _lock_step(*names, args=_INSTANCE):
    """Register a lock step under ``names`` with ``args``. It is called as
    ``step(ctx, entry, iid, sp, named, region, mine, got)``, where ``got``
    is the (exc flag, counters, content) fields of the lock's region
    fragment; a region without them is a missing-fields violation."""

    def wrap(step):
        def resolve(ctx, entry):
            iid, sp, named, region, mine = _rw_parts(ctx, entry)
            got = named.fields_of(region)
            if got is None:
                return GhostViolation("missing-fields", iid)
            return step(ctx, entry, iid, sp, named, region, mine, got)

        return register_resolver(*names, args=args)(resolve)

    return wrap


@_lock_step("rw.exc-begin", "rwm.exc-begin")
def _rw_exc_begin(ctx, entry, iid, sp, named, region, mine, got):
    _, rc, x = got
    pending = sp.protocol.compose_fn(mine, named.exc_pending())
    return [_update(ctx, iid, named.fields(True, rc, x), pending, "exclusive acquisition begins")]


@_lock_step("rw.exc-acquire")
def _rw_exc_acquire(ctx, entry, iid, sp, named, region, mine, got):
    if named.exc_pending_index(mine) is None:
        return GhostViolation("missing-token", iid, detail="no pending-exclusive token")
    note = "exclusive lock acquired, content withdrawn"
    return [_withdraw(ctx, iid, named, region, mine, got[2], note)]


@_lock_step("rwm.exc-progress", args=_COUNTED)
def _rwm_exc_progress(ctx, entry, iid, sp, named, region, mine, got):
    j = named.exc_pending_index(mine)
    if j is None:
        return GhostViolation("missing-token", iid, detail="no pending-exclusive token")
    counter = _counter(entry, named)
    if j != counter:
        return GhostViolation(
            "wrong-counter", iid, detail=f"checked counter {counter}, expected {j}"
        )
    seen = named.seen_zero(mine, j)
    actions = [_update(ctx, iid, region, seen, f"counter {j} observed zero")]
    if j + 1 == named.k:
        note = "all counters checked, content withdrawn"
        actions.append(_withdraw(ctx, iid, named, region, mine, got[2], note))
    return actions


@_lock_step("rw.exc-release", "rwm.exc-release", args={
    **_INSTANCE, "cell": "cell", "raw_cell": "bool",
})
def _rw_exc_release(ctx, entry, iid, sp, named, region, mine, got):
    cell = entry.arg("cell") or ctx.scenario.protected_cells.get(iid)
    raw = ctx.cell_value(cell)
    if raw is None:
        return GhostViolation("protected-cell-freed", iid)
    x_new = raw if entry.arg("raw_cell", True) else opt_to_ghost(raw)
    if not named.has_exc(mine):
        return GhostViolation("missing-token", iid, detail="no exclusive token held")
    return [
        _update(
            ctx,
            iid,
            named.fields(False, got[1], x_new),
            named.drop_exc(mine),
            "exclusive lock released, content deposited",
            "deposit",
            deposited=ex(x_new),
        )
    ]


@_lock_step("rw.shared-begin", "rwm.shared-begin", args=_COUNTED)
def _rw_shared_begin(ctx, entry, iid, sp, named, region, mine, got):
    exc_b, rc, x = got
    j = _counter(entry, named)
    note = "reader registered"
    if entry.arg("counter") is not None:
        note += f" on counter {j}"
    fields = named.fields(exc_b, named.add_count(rc, j, 1), x)
    return [_update(ctx, iid, fields, named.add_pending(mine, j, 1), note)]


@_lock_step("rw.shared-acquire", "rwm.shared-acquire", args=_COUNTED)
def _rw_shared_acquire(ctx, entry, iid, sp, named, region, mine, got):
    j = _counter(entry, named)
    if named.pending(mine, j) < 1:
        return GhostViolation("missing-token", iid, detail="no pending-reader token")
    reader = sp.protocol.compose_fn(named.add_pending(mine, j, -1), named.sh(j, got[2]))
    return [_update(ctx, iid, region, reader, "shared lock acquired")]


@_lock_step("rw.shared-retry", "rwm.shared-retry", args=_COUNTED)
def _rw_shared_retry(ctx, entry, iid, sp, named, region, mine, got):
    exc_b, rc, x = got
    j = _counter(entry, named)
    if named.pending(mine, j) < 1:
        return GhostViolation("missing-token", iid, detail="no pending-reader token")
    fields = named.fields(exc_b, named.add_count(rc, j, -1), x)
    return [_update(ctx, iid, fields, named.add_pending(mine, j, -1), "reader backed out")]


@_lock_step("rw.shared-release", "rwm.shared-release", args=_COUNTED)
def _rw_shared_release(ctx, entry, iid, sp, named, region, mine, got):
    exc_b, rc, x = got
    j = _counter(entry, named)
    released = named.release_reader(mine, j)
    if released is None:
        return GhostViolation("missing-token", iid, detail="no reader token held")
    fields = named.fields(exc_b, named.add_count(rc, j, -1), x)
    return [_update(ctx, iid, fields, released, "shared lock released")]


@register_resolver("rw.shared-read", "rwm.shared-read", args={**_COUNTED, "raw_cell": "bool"})
def _rw_shared_read(ctx, entry):
    """Open a one-step guard window for the reader's agreed value and
    check the physically read value against it."""
    iid, sp, named, region, mine = _rw_parts(ctx, entry)
    _counter(entry, named)  # range-checked only: the agreed value has no counter
    x = named.sh_value(mine)
    if x is None:
        return GhostViolation("missing-token", iid, detail="read outside a shared lock")
    want = x if entry.arg("raw_cell", True) else ghost_to_opt(x)
    if ctx.result != want:
        return GhostViolation(
            "reader-value-mismatch",
            iid,
            detail=f"read {pretty(ctx.result)}, lock agrees on {pretty(x)}",
        )
    return [OpenGuardAction(iid, ctx.self_owner, ex(x), licenses=ctx.label)]


# ---------------------------------------------------------------------------
# Lock properties


@register_property("rw-mutual-exclusion", reads_threads=False, params={"instance": "instance"})
def _prop_rw_mutex(scenario, state, prop):
    iid = prop.param("instance")
    named = _lock_elems(scenario, iid)
    fragments = state.ledger.instance(iid).fragments
    holders = [o for o, el in fragments if named.has_exc(el)]
    return len(holders) <= 1, f"{iid}: exclusive holders {holders}"


@register_property("rw-reader-agreement", reads_threads=False, params={"instance": "instance"})
def _prop_rw_agree(scenario, state, prop):
    iid = prop.param("instance")
    named = _lock_elems(scenario, iid)
    values = {named.sh_value(el) for _, el in state.ledger.instance(iid).fragments}
    values.discard(None)
    return len(values) <= 1, f"{iid}: readers disagree: {[pretty(v) for v in values]}"


@register_property(
    "rw-fields-match-heap", reads_threads=False,
    params={"instance": "instance", "exc_cell": "cell", "rc_cells": "cells"},
)
def _prop_rw_fields(scenario, state, prop):
    iid = prop.param("instance")
    named = _lock_elems(scenario, iid)
    sp = scenario.protocols[iid]
    region = state.ledger.instance(iid).fragment_of(_region(iid), sp.protocol.unit)
    got = named.fields_of(region)
    if got is None:
        return False, f"{iid}: region fragment lost"
    exc_b, rcs, _ = got
    heap_exc = state.machine.heap_value(scenario.cell_loc(prop.param("exc_cell")))
    if heap_exc != tbool(exc_b):
        return False, f"{iid}: exc flag ghost {exc_b} vs heap {pretty(heap_exc)}"
    rc_cells = prop.param("rc_cells")
    if len(rc_cells) != len(rcs):
        return False, f"{iid}: {len(rc_cells)} counter cells for {len(rcs)} counters"
    for k, cell in enumerate(rc_cells):
        heap_rc = state.machine.heap_value(scenario.cell_loc(cell))
        if heap_rc != tint(rcs[k]):
            return False, f"{iid}: counter {k} ghost {rcs[k]} vs heap {pretty(heap_rc)}"
    return True, ""


@register_property(
    "rw-stored-matches-cell", reads_threads=False,
    params={"instance": "instance", "cell": "cell", "raw_cell": "bool"},
)
def _prop_rw_stored(scenario, state, prop):
    iid = prop.param("instance")
    _lock_elems(scenario, iid)
    inst = state.ledger.instance(iid)
    got = con_args(inst.stored, "ex")
    if got is None:
        return True, ""  # exclusively held: nothing stored to compare
    cell = prop.param("cell")
    raw = state.machine.heap_value(scenario.cell_loc(cell))
    if raw is None:
        return False, f"{iid}: protected cell {cell} freed"
    value = raw if prop.param("raw_cell", True) else opt_to_ghost(raw)
    return value == got[0], (
        f"{iid}: stored {pretty(got[0])} vs cell {cell} = {pretty(value)}"
    )


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
# Hash-table resolvers and properties


def _table(scenario: Scenario, iid):
    """(iid, protocol, named elements) of instance ``iid``, a hash table.
    On another instance, the ValueError fails the step or the property."""
    elems = scenario.named.get(iid)
    if not isinstance(elems, HashTableElems):
        raise ValueError(f"instance {iid!r} is not a hash table")
    return iid, scenario.protocols[iid], elems


def _prop_table(scenario: Scenario, prop: PropertySpec):
    """:func:`_table` of the instance a hash-table property reads: its
    ``instance`` param, by default the scenario's one hash table."""
    iid = prop.param("instance", None)
    if iid is None:
        tables = [i for i, el in scenario.named.items() if isinstance(el, HashTableElems)]
        if len(tables) != 1:
            raise ValueError(f"{len(tables)} hash-table instances: set param instance")
        iid = tables[0]
    return _table(scenario, iid)


def _ht_total(scenario, ledger, iid):
    return joint_state(scenario.protocols[iid], ledger.instance(iid).fragments)


def _ht_parts(ctx: ResolveCtx, entry: ScriptEntry):
    """(slot, iid, protocol, named elements, the thread's fragment) of a
    table step, at the slot whose lock guards the event's cell."""
    cell = ctx.event_cell()
    slot = ctx.scenario.meta["lock_slot"].get(ctx.scenario.cell_instances.get(cell))
    if slot is None:
        raise ReplayError(f"no slot lock for cell {cell!r}")
    iid, sp, elems = _table(ctx.scenario, ctx.instance_for(entry))
    mine = ctx.ledger.instance(iid).fragment_of(ctx.self_owner, sp.protocol.unit)
    return slot, iid, sp, elems, mine


@register_resolver("ht.take-slot", args=_INSTANCE)
def _ht_take_slot(ctx, entry):
    """Exclusive acquisition also hands the slot fragment to the thread."""
    slot, iid, sp, elems, _ = _ht_parts(ctx, entry)
    store_owner = f"store:slot{slot}"
    frag = ctx.ledger.instance(iid).fragment_of(store_owner, sp.protocol.unit)
    if elems.slot_value(frag, slot) is None:
        return GhostViolation(
            "missing-slot-fragment", iid, detail=f"slot {slot} not in its store region"
        )
    return [TransferAction(iid, store_owner, ctx.self_owner, frag, sp.protocol.unit)]


@register_resolver("ht.give-slot", args=_INSTANCE)
def _ht_give_slot(ctx, entry):
    """Release returns the (possibly updated) slot fragment to its region."""
    slot, iid, _, elems, mine = _ht_parts(ctx, entry)
    x = elems.slot_value(mine, slot)
    if x is None:
        return GhostViolation(
            "missing-slot-fragment", iid, detail=f"thread does not hold slot {slot}"
        )
    element, rest = elems.slot(slot, x), elems.without_slot(mine, slot)
    return [TransferAction(iid, ctx.self_owner, f"store:slot{slot}", element, rest)]


@register_resolver("ht.update", args=_INSTANCE)
def _ht_update(ctx, entry):
    """Slot write: move the logical map and the slot fragment together."""
    slot, iid, _, elems, mine = _ht_parts(ctx, entry)
    kv = con_args(opt_to_ghost(ctx.event.written), "some")
    if kv is None:
        return GhostViolation("ht-update-clears-slot", iid)
    k, v = kv[0][1]
    if elems.map_value(mine, k) is None:
        return GhostViolation(
            "missing-map-fragment", iid,
            detail=f"thread updates {pretty(k)} without owning its map entry",
        )
    if elems.slot_value(mine, slot) is None:
        return GhostViolation(
            "missing-slot-fragment", iid, detail=f"thread does not hold slot {slot}"
        )
    written = elems.write(mine, slot, k, v)
    return [ExchangeAction(
        iid, ((ctx.self_owner, written),), kind="update", note=f"table write at slot {slot}"
    )]


@register_resolver("ht.query-check", args={**_INSTANCE, "key": "term"})
def _ht_query_check(ctx, entry):
    """Pure observations at a probed slot: the physical read agrees with
    the ghost slot, and the overlap-composition premises hold."""
    from .monoid import and_premise, memo

    slot, iid, _, elems, _ = _ht_parts(ctx, entry)
    total = _ht_total(ctx.scenario, ctx.ledger, iid)
    ghost_slot = elems.slot_value(total, slot)
    if ghost_slot is None:
        return GhostViolation("ht-slot-unowned", iid, detail=f"slot {slot}")
    phys = opt_to_ghost(ctx.result)
    if phys != ghost_slot:
        return GhostViolation(
            "ht-slot-desync", iid,
            detail=f"slot {slot} reads {pretty(phys)}, ghost holds {pretty(ghost_slot)}",
        )
    key = entry.arg("key")
    vm = elems.map_value(total, key)
    if vm is not None:
        monoid, x, y = elems.monoid, elems.m(key, vm), elems.slot(slot, ghost_slot)
        verdict = memo(
            monoid, ("addendum", key, vm, slot, ghost_slot),
            and_premise, monoid, x, y, monoid.compose_fn(x, y),
        )
        if not verdict.ok:
            return GhostViolation(
                "overlap-composition-failed", iid,
                detail=f"m({pretty(key)}) ∧ slot({slot}) does not compose",
            )
    return []


@register_property("ht-valid", reads_threads=False, params={"instance": "instance"})
def _prop_ht_valid(scenario, state, prop):
    iid, sp, _ = _prop_table(scenario, prop)
    total = _ht_total(scenario, state.ledger, iid)
    return sp.complete(total), f"{iid}: joint table state violates the table invariants"


@register_property("ht-slots-match-heap", reads_threads=False, params={"instance": "instance"})
def _prop_ht_slots(scenario, state, prop):
    iid, _, elems = _prop_table(scenario, prop)
    total = _ht_total(scenario, state.ledger, iid)
    cells = {i: cell for cell, i in scenario.meta.get("slot_cells", {}).items()}
    for i in range(elems.length):
        if i not in cells:
            return False, f"{iid}: slot {i} has no cell in meta.slot_cells"
        ghost_slot = elems.slot_value(total, i)
        if ghost_slot is None:
            return False, f"{iid}: slot {i} unowned"
        raw = state.machine.heap_value(scenario.cell_loc(cells[i]))
        if raw is None:
            return False, f"{iid}: slot {i} cell freed"
        if opt_to_ghost(raw) != ghost_slot:
            return False, (
                f"{iid}: slot {i}: heap {pretty(opt_to_ghost(raw))} vs ghost {pretty(ghost_slot)}"
            )
    return True, ""


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


# ---------------------------------------------------------------------------
# Sequential oracle and outcome comparison


def sequential_oracle(ops_per_thread) -> frozenset:
    """All interleavings of the per-thread operation lists over an atomic
    map; outcomes are (per-thread query results, terminal map) pairs."""
    from .terms import term_key

    seqs = [tuple(ops) for ops in ops_per_thread]
    outcomes = set()

    def go(pos, mapping, results):
        live = [i for i, s in enumerate(seqs) if pos[i] < len(s)]
        if not live:
            frozen_map = tuple(sorted(mapping.items(), key=lambda kv: term_key(kv[0])))
            outcomes.add((tuple(tuple(r) for r in results), frozen_map))
            return
        for i in live:
            op = seqs[i][pos[i]]
            new_pos = pos[:i] + (pos[i] + 1,) + pos[i + 1 :]
            if op[0] == "update":
                new_map = dict(mapping)
                new_map[op[1]] = op[2]
                go(new_pos, new_map, results)
            else:
                got = mapping.get(op[1])
                res = NONE if got is None else some(got)
                new_results = list(results)
                new_results[i] = results[i] + (res,)
                go(new_pos, mapping, new_results)

    go((0,) * len(seqs), {}, [()] * len(seqs))
    return frozenset(outcomes)


def decode_results(v: Term) -> tuple:
    """Nested-pair list of language options -> tuple of ghost options."""
    out = []
    while v != UNIT:
        if v[0] != "tuple" or len(v[1]) != 2:
            raise ValueError(f"not a result list: {pretty(v)}")
        head, v = v[1]
        out.append(opt_to_ghost(head))
    return tuple(out)


def explorer_outcomes(scenario: Scenario, result) -> frozenset:
    """Terminal summaries in the oracle's outcome shape. A summary that
    has none, with a thread that returns no result list or a slot cell
    that holds no option, is None, which matches no oracle outcome."""
    from .terms import term_key

    slot_cells = scenario.meta["slot_cells"]
    outcomes = set()
    for summary in result.terminal_summaries:
        try:
            results = tuple(decode_results(v) for v in summary.thread_values)
            slots = [opt_to_ghost(value) for name, value in summary.cells if name in slot_cells]
        except ValueError:
            outcomes.add(None)
            continue
        mapping = {}
        for ghost in slots:
            kv = con_args(ghost, "some")
            if kv is not None:
                k, v = kv[0][1]
                mapping[k] = v
        frozen_map = tuple(sorted(mapping.items(), key=lambda kv: term_key(kv[0])))
        outcomes.add((results, frozen_map))
    return frozenset(outcomes)
