"""Explorer: schedule coverage, memoization soundness, replay, bounds,
and the registered property evaluators."""

from math import factorial

import pytest

from guardcheck.explore import (
    PropertySpec,
    Scenario,
    check_property,
    explore,
    initial_state,
    replay,
    ReplayError,
)
from guardcheck.lang import abort, add, fetch_add, fork, load, loc, seq, store
from guardcheck.terms import UNIT, tint


def scenario(name="s", **kw):
    defaults = dict(cells=(), programs=(), protocols={}, initial_fragments={})
    defaults.update(kw)
    return Scenario(name, **defaults)


def pure_steps(k):
    e = tint(0)
    for _ in range(k):
        e = add(e, tint(1))
    return e


def test_empty_scenario_single_state():
    r = explore(scenario())
    assert r.states == 1 and not r.violations and r.ok


def test_two_sc_writes_both_orders():
    s = scenario(
        cells=(("l", tint(0)),),
        programs=(store("sc", loc(0), tint(1)), store("sc", loc(0), tint(2))),
    )
    r = explore(s)
    finals = {t.cells[0][1] for t in r.terminal_summaries}
    assert finals == {tint(1), tint(2)}


def test_na_race_reaches_stuck():
    s = scenario(
        cells=(("l", tint(0)),),
        programs=(load("na", loc(0)), store("na", loc(0), tint(7))),
        expectation="stuck-reachable",
    )
    r = explore(s)
    assert r.stuck_count >= 1 and r.ok
    reasons = {reason for reason, _ in r.stuck_examples}
    assert "race-na-write" in reasons or "race-na-read" in reasons


@pytest.mark.parametrize("threads,steps", [(2, 3), (3, 2), (2, 5)])
def test_schedule_count_matches_permutation_oracle(threads, steps):
    s = scenario(programs=tuple(pure_steps(steps) for _ in range(threads)))
    r = explore(s, memo=False)
    total = factorial(threads * steps)
    per = factorial(steps) ** threads
    assert r.schedules_completed == total // per


def test_memoization_soundness_small():
    s = scenario(
        cells=(("l", tint(0)), ("m", tint(0))),
        programs=(
            seq(store("sc", loc(0), tint(1)), store("sc", loc(1), tint(1))),
            seq(store("sc", loc(1), tint(2)), store("sc", loc(0), tint(2))),
        ),
    )
    on = explore(s, memo=True)
    off = explore(s, memo=False)
    assert on.terminal_summaries == off.terminal_summaries
    assert on.violations == off.violations
    assert on.stuck_count == off.stuck_count


def test_memoization_soundness_with_race():
    s = scenario(
        cells=(("l", tint(0)),),
        programs=(store("na", loc(0), tint(1)), store("na", loc(0), tint(2))),
        expectation="stuck-reachable",
    )
    on = explore(s, memo=True)
    off = explore(s, memo=False)
    assert on.terminal_summaries == off.terminal_summaries
    assert {r for r, _ in on.stuck_examples} == {r for r, _ in off.stuck_examples}


def test_fork_schedules_child():
    s = scenario(
        cells=(("l", tint(0)),),
        programs=(seq(fork(store("sc", loc(0), tint(1))), UNIT),),
    )
    r = explore(s)
    finals = {t.cells[0][1] for t in r.terminal_summaries}
    assert finals == {tint(1)}


def test_determinism_byte_for_byte():
    from guardcheck.formats import dumps, result_to_json

    s = scenario(
        cells=(("l", tint(0)),),
        programs=(
            fetch_add(loc(0), tint(1)),
            fetch_add(loc(0), tint(2)),
            load("sc", loc(0)),
        ),
    )
    a = dumps(result_to_json(explore(s)))
    b = dumps(result_to_json(explore(s)))
    assert a == b


def test_state_bound_reported():
    s = scenario(
        programs=(pure_steps(6), pure_steps(6)),
        max_states=10,
    )
    r = explore(s)
    assert r.bound_exceeded and not r.ok


def test_step_bound_reported():
    s = scenario(programs=(pure_steps(6),), max_steps_per_thread=3)
    r = explore(s)
    assert r.bound_exceeded


def test_expectation_failures():
    quiet = scenario(programs=(pure_steps(1),), expectation="stuck-reachable")
    assert not explore(quiet).ok  # wanted a stuck state, none found
    crashy = scenario(programs=(abort(),))
    r = explore(crashy)
    assert not r.ok and r.stuck_count == 1


def test_terminal_property_violation_carries_schedule():
    s = scenario(
        cells=(("l", tint(0)),),
        programs=(store("sc", loc(0), tint(1)),),
        terminal_properties=(
            PropertySpec("wrong", "heap-cell", (("cell", "l"), ("op", "eq"), ("value", tint(9)))),
        ),
    )
    r = explore(s)
    assert not r.ok
    v = r.violations[0]
    assert v.kind == "terminal"
    tail = replay(s, v.schedule)
    ok, _ = check_property(s, tail[-1].state, s.terminal_properties[0])
    assert not ok


def test_replay_rejects_disabled_thread():
    s = scenario(programs=(pure_steps(1),))
    with pytest.raises(ReplayError):
        replay(s, [1])


def test_replay_empty_schedule_is_initial_state():
    s = scenario(cells=(("l", tint(5)),), programs=(pure_steps(1),))
    entries = replay(s, [])
    assert len(entries) == 1
    assert entries[0].state == initial_state(s)


def test_replay_of_explored_terminal_matches_outcomes():
    s = scenario(
        cells=(("l", tint(0)),),
        programs=(fetch_add(loc(0), tint(1)), fetch_add(loc(0), tint(2))),
    )
    r = explore(s, memo=False)
    # replay one full schedule and check its terminal cells appear in the set
    entries = replay(s, [0, 1])
    final_cell = entries[-1].state.machine.heap[0][1]
    assert any(t.cells[0][1] == final_cell for t in r.terminal_summaries)


def test_unused_script_label_warns():
    from guardcheck.explore import ScriptEntry

    s = scenario(
        programs=(pure_steps(1),),
        script={"never": [ScriptEntry("never", "rw.exc-begin")]},
    )
    r = explore(s)
    assert any("never" in w for w in r.warnings)


class TestPropertyEvaluators:
    def test_heap_cell_eq_and_in(self):
        s = scenario(cells=(("l", tint(3)),), programs=())
        st0 = initial_state(s)
        ok, _ = check_property(
            s, st0, PropertySpec("p", "heap-cell", (("cell", "l"), ("op", "eq"), ("value", tint(3))))
        )
        assert ok
        ok, _ = check_property(
            s,
            st0,
            PropertySpec("p", "heap-cell", (("cell", "l"), ("op", "in"), ("values", (tint(1), tint(3))))),
        )
        assert ok

    def test_heap_cell_freed_is_failure_not_crash(self):
        from guardcheck.lang import free

        s = scenario(cells=(("l", tint(3)),), programs=(free(loc(0)),))
        r = explore(s)  # terminal property below would see a freed cell
        s2 = scenario(
            cells=(("l", tint(3)),),
            programs=(free(loc(0)),),
            terminal_properties=(
                PropertySpec("gone", "heap-cell", (("cell", "l"), ("op", "eq"), ("value", tint(3)))),
            ),
        )
        r2 = explore(s2)
        assert not r2.ok
        assert "freed" in r2.violations[0].detail

    def test_unknown_property_kind(self):
        s = scenario(cells=(), programs=())
        ok, reason = check_property(s, initial_state(s), PropertySpec("p", "nope"))
        assert not ok and "unknown" in reason

    def test_thread_result_eq(self):
        s = scenario(
            programs=(pure_steps(2),),
            terminal_properties=(
                PropertySpec("two", "thread-result-eq", (("tid", 0), ("value", tint(2)))),
            ),
        )
        assert explore(s).ok

    def test_ghost_invariant_on_live_ledger(self):
        from guardcheck.library import build_fractional
        from guardcheck.terms import tfrac

        s = scenario(
            programs=(),
            protocols={"f": build_fractional()},
            initial_fragments={"f": (("a", tfrac(1)),)},
            properties=(PropertySpec("gi", "ghost-invariant"),),
        )
        assert explore(s).ok


from hypothesis import given, settings, strategies as st


@st.composite
def straight_line_heap_programs(draw):
    """Two short straight-line threads over two cells, mixing orderings."""
    def one_op():
        cell = draw(st.integers(0, 1))
        kind = draw(st.sampled_from(["load-sc", "load-na", "store-sc", "store-na", "faa"]))
        if kind == "load-sc":
            return load("sc", loc(cell))
        if kind == "load-na":
            return load("na", loc(cell))
        if kind == "store-sc":
            return store("sc", loc(cell), tint(draw(st.integers(0, 3))))
        if kind == "store-na":
            return store("na", loc(cell), tint(draw(st.integers(0, 3))))
        return fetch_add(loc(cell), tint(draw(st.integers(-1, 1))))

    def thread():
        n = draw(st.integers(1, 3))
        return seq(*[one_op() for _ in range(n)], UNIT)

    return (thread(), thread())


@given(straight_line_heap_programs())
@settings(max_examples=40, deadline=None)
def test_prop_memoization_preserves_outcomes(programs):
    s = Scenario(
        "prop",
        cells=(("a", tint(0)), ("b", tint(0))),
        programs=programs,
        protocols={},
        initial_fragments={},
        expectation="no-stuck",
    )
    on = explore(s, memo=True)
    off = explore(s, memo=False)
    assert on.terminal_summaries == off.terminal_summaries
    assert {r for r, _ in on.stuck_examples} == {r for r, _ in off.stuck_examples}
    assert on.violations == off.violations
    # and each report is the unmemoized reference's (see use_reference)
    with pytest.MonkeyPatch.context() as m:
        use_reference(m)
        want = [report(explore_mod.explore(s, memo=memo)) for memo in (True, False)]
    assert [report(on), report(off)] == want


# ---------------------------------------------------------------------------
# The ledger memo and the transition memo: joint states, instance
# invariants, thread steps, ghost admissions and safety verdicts computed
# once per distinct input, differentially tested against the unmemoized
# code, and schedules built only when reported, checked by replaying them.

import hashlib
import importlib
import json
import sys
from functools import reduce

from guardcheck.demos import demo_path
from guardcheck.explore import (
    RESOLVERS, ExplorationResult, ExplState, ResolveCtx, TransitionMemo, Violation,
    _summary, _terminal_checks, transition,
)
from guardcheck.formats import dumps, result_to_json, scenario_from_json
from guardcheck.ghost import (
    GhostLedger, GhostViolation, GuardWindow, InstanceState, apply_action, close_windows,
)
from guardcheck.lang import (
    MachineConfig, StepOutcome, UsageError, _Stepper, _Stuck, ast_to_json, enabled_threads,
    free, is_value, label, let, ref, thread_step, var,
)
from guardcheck.monoid import leq
from guardcheck.protocol import valid_fragment
from guardcheck.terms import BOT

explore_mod = importlib.import_module("guardcheck.explore")
lang_mod = importlib.import_module("guardcheck.lang")


def ref_joint_state(sp, fragments):
    """The composition of an instance's (owner, element) fragments."""
    return reduce(sp.protocol.compose_fn, (el for _, el in fragments), sp.protocol.unit)


def ref_prop_ghost_invariant(scenario, state, prop):
    for iid, inst in state.ledger.instances:
        sp = scenario.protocols[iid]
        total = ref_joint_state(sp, inst.fragments)
        if not valid_fragment(sp, total):
            return False, f"{iid}: joint fragment state not completable"
        if not sp.storage.valid_fn(inst.stored):
            return False, f"{iid}: stored content invalid"
        if sp.complete(total) and sp.stored(total) != inst.stored:
            return False, f"{iid}: stored content out of sync with joint state"
        for w in inst.windows:
            if not leq(sp.storage, w.element, inst.stored):
                return False, f"{iid}: open window no longer covered"
    return True, ""


def ref_step(cfg, tid, memo=None):
    """lang.step before it was split into the pure thread step and the
    thread pool around it; ``memo`` is ignored, and the stepper is built
    from the heap and cursor that it used to read from ``cfg``."""
    if not 0 <= tid < len(cfg.threads):
        raise UsageError(f"thread {tid} out of range")
    state = cfg.threads[tid]
    if state[0] != "run":
        raise UsageError(f"thread {tid} is not running ({state[0]})")
    e = state[1]
    if is_value(e):
        threads = list(cfg.threads)
        threads[tid] = ("done", e)
        return StepOutcome("done", cfg.replace(threads=tuple(threads)), value=e)

    machine = _Stepper(cfg.heap, cfg.cursor)
    try:
        out = machine.step(e)
    except _Stuck as exc:
        threads = list(cfg.threads)
        threads[tid] = ("stuck", exc.reason)
        return StepOutcome(
            "stuck", cfg.replace(threads=tuple(threads)), reason=exc.reason
        )

    threads = list(cfg.threads)
    threads[tid] = ("done", out) if is_value(out) else ("run", out)
    for f in machine.forks:
        threads.append(("done", f) if is_value(f) else ("run", f))
    new_cfg = MachineConfig(
        tuple(sorted((l, v, rw) for l, (v, rw) in machine.heap.items())),
        tuple(threads),
        machine.cursor,
    )
    return StepOutcome(
        "next", new_cfg, fired=tuple(machine.fired), event=machine.event
    )


def ref_transition(scenario, state, tid, mode, memo=None):
    """explore.transition without its memo (``memo`` is ignored): every
    part runs on every transition."""
    out = ref_step(state.machine, tid)
    if out.kind == "done":
        return "next", ExplState(out.config, state.ledger), [], (), ""
    if out.kind == "stuck":
        return "stuck", ExplState(out.config, state.ledger), [], (), out.reason

    ledger = state.ledger
    violations: list[tuple[str, str, str]] = []
    crossed = tuple(lbl for lbl, _ in out.fired)
    for lbl, result in out.fired:
        for entry in scenario.script.get(lbl, ()):
            if not entry.matches(result):
                continue
            fn = RESOLVERS.get(entry.resolver)
            if fn is None:
                violations.append(("ghost", lbl, f"unknown resolver {entry.resolver!r}"))
                continue
            ctx = ResolveCtx(scenario, ledger, out.config.heap, tid, lbl, result, out.event)
            try:
                resolved = fn(ctx, entry)
            except ReplayError as exc:
                violations.append(("replay", lbl, str(exc)))
                continue
            if isinstance(resolved, GhostViolation):
                violations.append(("ghost", lbl, resolved.describe()))
                continue
            for action in resolved:
                applied = apply_action(scenario.protocols, ledger, action, mode)
                if not applied.ok:
                    violations.append(("ghost", lbl, applied.violation.describe()))
                    break
                ledger = applied.ledger

    mid = ExplState(out.config, ledger)
    for prop in scenario.properties:
        ok, reason = check_property(scenario, mid, prop)
        if not ok:
            violations.append(("property", prop.name, reason))

    closed = close_windows(scenario.protocols, ledger)
    if not closed.ok:
        violations.append(("ghost", "close-window", closed.violation.describe()))
    else:
        ledger = closed.ledger

    return "next", ExplState(out.config, ledger), violations, crossed, ""


def ref_explore(scenario, mode="rule", memo=True):
    """explore.explore as it was before it numbered states: a DFS over
    ExplStates that calls transition on every transition. ``transition``
    is looked up in the explore module on each call, so that
    use_reference reaches it."""
    tally = dict.fromkeys(
        ("states", "transitions", "dedup_hits", "schedules_completed", "stuck_count"), 0
    )
    bound_exceeded = False
    root = initial_state(scenario)
    nodes = [(-1, -1)]  # nid -> (parent nid, tid taken to reach it)

    def trace(nid: int, tid: int) -> tuple:
        path = [tid]
        while nid > 0:
            parent, step_tid = nodes[nid]
            path.append(step_tid)
            nid = parent
        return tuple(reversed(path))

    def schedule_to(nid: int) -> tuple:
        if nid == 0:
            return ()
        return trace(*nodes[nid])

    transition_memo = TransitionMemo(scenario, mode)
    seen_violations: dict = {}
    stuck_examples: dict = {}
    terminals: set = set()
    crossed_labels: set = set()
    max_depth = scenario.max_steps_per_thread

    def record_violations(vios, sched):
        for kind, name, detail in vios:
            key = (kind, name, detail)
            if key not in seen_violations:
                seen_violations[key] = Violation(kind, name, detail, sched)

    record_violations([
        ("property", p.name, reason) for p in scenario.properties
        for ok, reason in [check_property(scenario, root, p)] if not ok
    ], ())

    visited = {root: 0}
    on_path: set = set()  # memo-off cycle pruning
    tally["states"] = 1
    stack = [(0, root, (0,) * len(scenario.programs), True)]
    while stack:
        nid, st, counts, entering = stack.pop()
        if not memo:
            if not entering:
                on_path.discard(st)
                continue
            stack.append((nid, st, counts, False))
            on_path.add(st)
        enabled = enabled_threads(st.machine)
        if not enabled:
            tally["schedules_completed"] += 1
            record_violations(_terminal_checks(scenario, st), schedule_to(nid))
            terminals.add(_summary(scenario, st))
            continue
        if tally["states"] >= scenario.max_states:
            bound_exceeded = True
            continue
        for tid in reversed(enabled):
            if counts[tid] >= max_depth:
                bound_exceeded = True
                continue
            kind, st2, vios, crossed, stuck_reason = explore_mod.transition(
                scenario, st, tid, mode, transition_memo
            )
            tally["transitions"] += 1
            crossed_labels.update(crossed)
            # a schedule is walked back from the node only when reported
            if kind == "stuck":
                tally["stuck_count"] += 1
                tally["schedules_completed"] += 1
                if stuck_reason not in stuck_examples:
                    stuck_examples[stuck_reason] = trace(nid, tid)
                continue
            if vios:
                record_violations(vios, trace(nid, tid))
                tally["schedules_completed"] += 1
                continue
            if memo:
                if visited.setdefault(st2, len(nodes)) != len(nodes):
                    tally["dedup_hits"] += 1
                    continue
            else:
                if st2 in on_path:
                    tally["dedup_hits"] += 1
                    continue
            new_counts = counts[:tid] + (counts[tid] + 1,) + counts[tid + 1 :]
            if len(st2.machine.threads) > len(new_counts):
                new_counts = new_counts + (0,) * (
                    len(st2.machine.threads) - len(new_counts)
                )
            nodes.append((nid, tid))
            tally["states"] += 1
            stack.append((len(nodes) - 1, st2, new_counts, True))

    unused = sorted(set(scenario.script) - crossed_labels)
    return ExplorationResult(
        scenario.name, mode, memo, scenario.expectation, **tally,
        stuck_examples=tuple(
            sorted((reason, sched) for reason, sched in stuck_examples.items())
        ),
        violations=tuple(
            sorted(seen_violations.values(), key=lambda v: (v.kind, v.name, v.detail))
        ),
        terminal_summaries=tuple(
            sorted(
                terminals,
                key=lambda s: repr((s.thread_values, s.cells, s.stored)),
            )
        ),
        bound_exceeded=bound_exceeded,
        warnings=tuple(f"script label never crossed: {lbl}" for lbl in unused),
    )


def use_reference(m):
    """Route every exploration, transition, thread step, joint-state fold
    and the ghost invariant through the unmemoized reference, within the
    monkeypatch context ``m``. Call the explorer as explore_mod.explore
    there, as this module's ``explore`` is bound at import."""
    memoised = importlib.import_module("guardcheck.ghost").joint_state
    for name in ("ghost", "explore", "resolvers"):
        m.setattr(importlib.import_module(f"guardcheck.{name}"), "joint_state", ref_joint_state)
    # a loaded module that still binds the memoised fold would bypass the reference
    unpatched = [
        (name, attr) for name, mod in list(sys.modules.items()) if name.startswith("guardcheck.")
        for attr, value in vars(mod).items() if value is memoised
    ]
    assert unpatched == []
    m.setitem(explore_mod.PROPERTY_EVALUATORS, "ghost-invariant", ref_prop_ghost_invariant)
    m.setattr(explore_mod, "explore", ref_explore)
    m.setattr(explore_mod, "transition", ref_transition)
    m.setattr(lang_mod, "step", ref_step)


def shipped_doc(name):
    return json.loads(demo_path(f"{name}.scenario.json").read_text())


def unbound_cell_doc():
    """rwlock-exc with a script entry on a cell that has no protocol
    instance: the first exc_begin is a replay violation."""
    doc = shipped_doc("rwlock-exc")
    del doc["cell_instances"]["exc"]
    doc["script"][0]["args"]["instance"] = "@cell"
    return doc


def finished_first_doc():
    """rwlock-exc with a third thread that finishes in one step, and a
    safety property that it has finished: a property that reads thread
    state, so no two states share a verdict for sharing a ledger and heap."""
    doc = shipped_doc("rwlock-exc")
    doc["threads"].append(["add", ["int", 0], ["int", 1]])
    doc["properties"].append({
        "name": "t2-finished", "kind": "thread-result-in",
        "params": {"tid": 2, "values": {"list": [{"term": ["int", 1]}]}},
    })
    return doc


def cell_bound_doc():
    """rwlock-exc with a safety property on the protected cell that the
    second increment breaks: a verdict that the heap decides."""
    doc = shipped_doc("rwlock-exc")
    doc["properties"].append({
        "name": "cell-below-2", "kind": "heap-cell",
        "params": {"cell": "cell", "op": "in",
                   "values": {"list": [{"term": ["int", 0]}, {"term": ["int", 1]}]}},
    })
    return doc


def guard_at_begin_doc():
    """rwlock-exc where each writer also opens a guard window on the
    stored 0 as it begins. Rule mode rejects it (a completion of the
    pending writer may store another value); concrete mode admits it
    while the lock stores 0, so the two modes' reports differ."""
    doc = shipped_doc("rwlock-exc")
    for t in (0, 1):
        doc["script"].append({
            "label": f"t{t}.exc_begin", "resolver": "ghost.open-guard",
            "when": ["bool", True],
            "args": {"instance": "lock", "owner": "self",
                     "element": {"term": ["con", "ex", [["int", 0]]]}},
        })
    return doc


def alloc_free_doc():
    """Two threads that allocate, one of which frees its cell, and a
    third that loads location 0: the same expression meets the same heap
    under different cursors."""
    threads = (
        let("x", ref(tint(1)), free(var("x"))),
        ref(tint(2)),
        load("sc", loc(0)),
    )
    return {
        "name": "alloc-free", "cells": [], "protocols": [],
        "threads": [ast_to_json(t) for t in threads],
        "expectation": "stuck-reachable",
    }


def twin_transfer_doc():
    """Two threads with one program, each of which moves its own half of
    a fraction to a pool as it crosses "give": at the root both threads
    have the same state, and only the stepping thread's id tells whose
    half moves."""
    program = ast_to_json(seq(label("give", tint(0)), tint(1)))
    return {
        "name": "twin-transfer", "cells": [], "threads": [program, program],
        "protocols": [{
            "id": "shares", "builtin": "fractional",
            "params": {"den_bound": 2, "max_value": 1, "nat_limit": 2},
            "fragments": [["thread:0", ["frac", 1, 2]], ["thread:1", ["frac", 1, 2]]],
        }],
        "script": [{
            "label": "give", "resolver": "ghost.transfer",
            "args": {"instance": "shares", "from": "self", "to": "pool",
                     "element": {"term": ["frac", 1, 2]},
                     "remainder": {"term": ["frac", 0, 1]}},
        }],
        "properties": [{"name": "ledger", "kind": "ghost-invariant", "params": {}}],
    }


SCENARIO_DOCS = {
    name: (lambda name=name: shipped_doc(name))
    for name in ("rwlock-exc", "rwlock-shared", "rwlock-multi", "hashtable-collide",
                 "race-negative")
}
SCENARIO_DOCS["unbound-cell"] = unbound_cell_doc
SCENARIO_DOCS["finished-first"] = finished_first_doc
SCENARIO_DOCS["cell-bound"] = cell_bound_doc
SCENARIO_DOCS["guard-at-begin"] = guard_at_begin_doc
SCENARIO_DOCS["alloc-free"] = alloc_free_doc
SCENARIO_DOCS["twin-transfer"] = twin_transfer_doc


def report(result):
    return dumps(result_to_json(result))


def assert_schedules_reproduce(sc, result, mode):
    """Every reported schedule replays to what it is reported for."""
    for reason, sched in result.stuck_examples:
        last = replay(sc, sched, mode)[-1]
        assert (last.kind, last.stuck_reason) == ("stuck", reason)
    for v in result.violations:  # each raised by the schedule's last step
        if not v.schedule:  # or by the initial state's safety check
            prop = next(p for p in sc.properties if p.name == v.name)
            assert check_property(sc, initial_state(sc), prop) == (False, v.detail)
            continue
        before_last = replay(sc, v.schedule[:-1], mode)[-1].state
        found = transition(sc, before_last, v.schedule[-1], mode)[2]
        assert (v.kind, v.name, v.detail) in found


# sha256 of each scenario's report, pinned so that a refactor which
# changes a single report byte fails here
REPORT_SHA256 = {
    ("alloc-free", "rule"):
        "bcdee6b51c232490fa6cadc3c756bb261fb959bc49b4db5e98fc2441224b718b",
    ("alloc-free", "concrete"):
        "0e809a806c26e7fcf523281f2b5818cc587636112093e4b1265330f86356a020",
    ("cell-bound", "rule"):
        "40c0067d5c6e19724e379a2ff814b2e218bc59aab303d0887f3b983b934c3336",
    ("cell-bound", "concrete"):
        "fbb265449c5d542351b4525777d06cbc9cb09981eb99a59713ba586ae6e6b342",
    ("finished-first", "rule"):
        "652bbb31c5f70d41134309963c32795e61539b64018e6ed2ef449255d0a1a6bb",
    ("finished-first", "concrete"):
        "8e9f42c5449dbdc96c967bb6f5cc80f56580a3d08107dd36fb2402399b18bf1c",
    ("guard-at-begin", "rule"):
        "a5e057496fd6463894c05760cb1b158f1bbdede5697268c4cd324a8b9f662c6e",
    ("guard-at-begin", "concrete"):
        "c0ed4a229ab63625c7449f981953ba1efabc999b462321c6b0b9aac50e7101d8",
    ("hashtable-collide", "rule"):
        "7575c4d8a7c6f18c839f6438ca193b796275674ce9d8cfd133af484b3e1c2754",
    ("hashtable-collide", "concrete"):
        "8b28a0b1c73ff7a8d82b1d8a4b324ec709d5dab99ed55e89483bd5e92a3386ea",
    ("race-negative", "rule"):
        "0a7e34bd17d78969441aaa85647861de76d8f45f45a05a6bfa37d2ded6959dbd",
    ("race-negative", "concrete"):
        "7d50d4e592d094ef0540b1538097f1aa329059dd7d232ee894fcf2a3b047e171",
    ("rwlock-exc", "rule"):
        "85aa7ebbd30648803bbddb36b13bc3d331b21ae0f5a55bf6835751b6e3f193af",
    ("rwlock-exc", "concrete"):
        "ca340b84d0d68f3e53b6337b49db656b851905bd864653ddf0f330c894feef9b",
    ("rwlock-multi", "rule"):
        "4b0a5b9ed8a3930372b9c649f76ad62f57fdbbbd86b19669c40c26e91b2112f1",
    ("rwlock-multi", "concrete"):
        "7e04274e7dd08d7dcc7e118b437704151c8bc655f60631b1efea0a09039ab2c5",
    ("rwlock-shared", "rule"):
        "7f053d83dccd6e30a71d7117e71c350bdc696e23adea64c874ed353e10993a4b",
    ("rwlock-shared", "concrete"):
        "9ab286d62eec4d3b1ddb23e05047ecaa85c22739d1609e77e69e7242872dcd4f",
    ("twin-transfer", "rule"):
        "1731ceccc1803507a1a8c71ba2a8175b13bb439785341e7aa309acc4d49e9cc2",
    ("twin-transfer", "concrete"):
        "ae1ece85111bec7af4057ea0f0477a736b5841b3c89197367d2a81ca2fd8d17a",
    ("unbound-cell", "rule"):
        "7c6cb8b85591ad8d8e54dab812ff438419b911426dcc39851737b61c12081d93",
    ("unbound-cell", "concrete"):
        "774aac4ffd2bc26fcd251d72540779f9c350af0004c8e66b2a2f725630c45962",
}


@pytest.mark.parametrize("name", sorted(SCENARIO_DOCS))
def test_ledger_memo_matches_unmemoized_reference(name, monkeypatch):
    doc = SCENARIO_DOCS[name]()
    modes = ("rule", "concrete")
    with monkeypatch.context() as m:
        use_reference(m)
        reference = [report(explore_mod.explore(scenario_from_json(doc), mode)) for mode in modes]
    for mode, text in zip(modes, reference):
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == REPORT_SHA256[name, mode], f"{name} --mode {mode}: report changed"
    sc = scenario_from_json(doc)
    cold = [explore(sc, mode) for mode in modes]
    warm = [report(explore(sc, mode)) for mode in modes]  # every cache of sc filled
    assert [report(r) for r in cold] == reference
    assert warm == reference
    for mode, result in zip(modes, cold):
        assert_schedules_reproduce(sc, result, mode)
    if name == "unbound-cell":
        assert all(any(v.kind == "replay" for v in r.violations) for r in cold)


@pytest.mark.parametrize("name", sorted(SCENARIO_DOCS))
def test_transition_memo_without_state_dedup(name, monkeypatch):
    # the transition table under the memo-off DFS, which revisits states
    # along other paths; bounded, as rwlock-exc has over 200,000 paths
    doc = dict(SCENARIO_DOCS[name](), max_states=10_000)
    modes = ("rule", "concrete")
    with monkeypatch.context() as m:
        use_reference(m)
        reference = [
            report(explore_mod.explore(scenario_from_json(doc), mode, memo=False)) for mode in modes
        ]
    sc = scenario_from_json(doc)
    assert [report(explore(sc, mode, memo=False)) for mode in modes] == reference
    if name == "rwlock-exc":
        assert all(json.loads(text)["bound_exceeded"] for text in reference)


def assert_computed_once_per_distinct_input(doc, mode, memo, calls, monkeypatch):
    """explore computes a transition once per distinct (tid, thread tid's
    state, or all threads when a safety property reads them, heap,
    cursor, ledger) that the reference explorer meets, not once per
    transition, and reports what the reference reports."""
    inputs = set()

    def recording(scenario, state, tid, mode, memo=None):
        m = state.machine
        threads = m.threads if memo.verdicts is None else m.threads[tid]
        inputs.add((tid, threads, m.heap, m.cursor, state.ledger))
        return ref_transition(scenario, state, tid, mode, memo)

    with monkeypatch.context() as m:
        use_reference(m)
        m.setattr(explore_mod, "transition", recording)
        want = explore_mod.explore(scenario_from_json(doc), mode, memo=memo)
    computed = []
    real = TransitionMemo.compute

    def counting(self, tid, nums, env):
        computed.append(tid)
        return real(self, tid, nums, env)

    with monkeypatch.context() as m:
        m.setattr(TransitionMemo, "compute", counting)
        got = explore(scenario_from_json(doc), mode, memo=memo)
    assert report(got) == report(want)
    assert len(computed) == len(inputs) == calls


def test_transition_runs_once_per_distinct_input(monkeypatch):
    doc = shipped_doc("rwlock-shared")
    assert_computed_once_per_distinct_input(doc, "concrete", True, 989, monkeypatch)


@pytest.mark.parametrize("name, mode, memo, max_states, calls", [
    ("finished-first", "rule", True, None, 435),  # a safety property reads threads
    ("rwlock-exc", "concrete", False, 2_000, 59),  # no state dedup
])
def test_transition_runs_once_per_distinct_input_on_every_path(
    name, mode, memo, max_states, calls, monkeypatch
):
    doc = SCENARIO_DOCS[name]()
    if max_states is not None:
        doc["max_states"] = max_states
    assert_computed_once_per_distinct_input(doc, mode, memo, calls, monkeypatch)


@pytest.mark.parametrize("name, mode, calls", [
    ("hashtable-collide", "rule", 238), ("rwlock-shared", "concrete", 207),
])
def test_thread_step_runs_once_per_heap_free_expression(name, mode, calls, monkeypatch):
    # a step that reads neither heap nor cursor runs once per expression,
    # not once per (expression, heap, cursor): 665 and 626 calls when
    # every step was keyed on all three
    got = []
    real = explore_mod.thread_step

    def counting(*args):
        got.append(args)
        return real(*args)

    monkeypatch.setattr(explore_mod, "thread_step", counting)
    explore(scenario_from_json(shipped_doc(name)), mode)
    assert len(got) == calls


def test_objects_are_built_only_for_what_runs(monkeypatch):
    # a transition-table miss whose step, admissions, verdicts and window
    # closing all hit builds no machine config: explore builds one for
    # the root, for each property-memo miss and for each terminal state
    counts = dict.fromkeys(["config", "thread_step", "resolver", "terminal", "compute"], 0)
    memos = []

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    class Recorded(TransitionMemo):
        def __init__(self, *args):
            super().__init__(*args)
            memos.append(self)

    sc = scenario_from_json(shipped_doc("hashtable-collide"))
    monkeypatch.setattr(MachineConfig, "__init__", counted("config", MachineConfig.__init__))
    monkeypatch.setattr(explore_mod, "thread_step", counted("thread_step", thread_step))
    monkeypatch.setattr(explore_mod, "_terminal_checks", counted("terminal", _terminal_checks))
    monkeypatch.setattr(TransitionMemo, "compute", counted("compute", TransitionMemo.compute))
    monkeypatch.setattr(explore_mod, "TransitionMemo", Recorded)
    for name, fn in list(RESOLVERS.items()):
        monkeypatch.setitem(RESOLVERS, name, counted("resolver", fn))
    got = explore(sc, "rule")
    (memo,) = memos
    property_misses = len(memo.verdicts)
    assert (got.transitions, counts["compute"], counts["thread_step"]) == (7_071, 795, 238)
    assert counts["config"] <= (
        counts["thread_step"] + property_misses + counts["resolver"] + counts["terminal"])
    assert counts["config"] == 1 + property_misses + counts["terminal"]


def test_table_hits_hash_no_ledger(monkeypatch):
    # explore numbers each ledger when a transition first makes it, so a
    # transition-table hit or a visited-state lookup hashes ints only; on
    # rwlock-shared about 3,300 ledger hashes serve 33,367 transitions
    # (70,081 when states and table keys held the ledger itself)
    calls = []
    real = GhostLedger.__hash__

    def counting(self):
        calls.append(1)
        return real(self)

    sc = scenario_from_json(shipped_doc("rwlock-shared"))
    monkeypatch.setattr(GhostLedger, "__hash__", counting)
    got = explore(sc, "concrete")
    assert got.transitions == 33_367
    assert len(calls) <= 5_000


@pytest.mark.parametrize(
    "name, old, new",
    [("rwlock-multi", "rwm.shared-begin", "rw.shared-begin"),
     ("rwlock-shared", "rw.shared-begin", "rwm.shared-begin")],
)
def test_rw_and_rwm_name_one_resolver(name, old, new):
    # either lock's scenario explores to its shipped report under the
    # other lock's resolver name
    doc = shipped_doc(name)
    for entry in doc["script"]:
        if entry["resolver"] == old:
            entry["resolver"] = new
    text = report(explore(scenario_from_json(doc), "concrete"))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name, "concrete"]


def lock_scenario():
    """A fresh rwlock-exc scenario, with its caches cold, and a function
    that puts a hand-built instance state for its lock into its initial
    state."""
    sc = scenario_from_json(shipped_doc("rwlock-exc"))
    root = initial_state(sc)

    def with_lock(inst):
        return type(root)(root.machine, root.ledger.with_instance("lock", inst))

    return sc, with_lock


def lock_instances(sc):
    """Instance states of the lock: a sound one, then one breaking each
    clause of the ghost invariant."""
    fields = sc.named["lock"].fields(False, 0, tint(0))
    region = ("region:lock", fields)
    x0, x1 = ("con", "ex", (tint(0),)), ("con", "ex", (tint(1),))
    return {
        "sound": InstanceState((region,), x0),
        "not-completable": InstanceState((region, ("thread:0", fields)), x0),
        "stored-invalid": InstanceState((region,), BOT),
        "stored-out-of-sync": InstanceState((region,), x1),
        "window-uncovered": InstanceState(
            (region,), x0, (GuardWindow("lock", "thread:0", x1),)
        ),
    }


GI = PropertySpec("gi", "ghost-invariant")


def test_ghost_invariant_memo_hit_keeps_each_clause(monkeypatch):
    sc, with_lock = lock_scenario()
    states = {k: with_lock(inst) for k, inst in lock_instances(sc).items()}
    want = {k: ref_prop_ghost_invariant(sc, st, GI) for k, st in states.items()}
    assert want["sound"] == (True, "")
    assert len({reason for _, reason in want.values()}) == len(want)
    first = {k: check_property(sc, st, GI) for k, st in states.items()}

    def recompute(*args):
        raise AssertionError("memo miss on an instance state seen before")

    monkeypatch.setattr(explore_mod, "_instance_invariant", recompute)
    hit = {k: check_property(sc, st, GI) for k, st in states.items()}
    assert first == want and hit == want


@pytest.mark.parametrize("other", ["stored-out-of-sync", "window-uncovered"])
def test_ghost_invariant_memo_tells_stored_and_windows_apart(other):
    # the sound state and ``other`` differ only in stored content, or only
    # in windows; whichever is asked first, each keeps its own verdict
    for order in (("sound", other), (other, "sound")):
        sc, with_lock = lock_scenario()
        insts = lock_instances(sc)
        got = {k: check_property(sc, with_lock(insts[k]), GI) for k in order}
        assert got["sound"] == (True, "")
        assert got[other] == ref_prop_ghost_invariant(sc, with_lock(insts[other]), GI)
        assert not got[other][0]
