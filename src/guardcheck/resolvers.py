"""Case-study runtime: what a run of the lock and hash-table scenarios calls.

The resolvers that turn the case studies' script entries into ghost
actions, the properties asserted in every reached state, and the
independent sequential oracle used to judge terminal outcomes. Scenario
documents name the resolvers and properties, and importing
:mod:`guardcheck.explore` imports this module, which registers them. The
builders that write the documents are in :mod:`guardcheck.studies`.

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
from .ghost import ExchangeAction, GhostViolation, OpenGuardAction, TransferAction, joint_state
from .library import NONE, HashTableElems, RwLockElems, ex, some
from .terms import UNIT, Term, con_args, pretty, tbool, tcon, tint

__all__ = [
    "sequential_oracle",
    "explorer_outcomes",
    "opt_to_ghost",
    "ghost_to_opt",
    "decode_results",
]


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
