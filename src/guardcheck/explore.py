"""Exhaustive bounded exploration of thread interleavings.

A scenario bundles programs, an initial heap, protocol instances with
their initial fragment distribution, a ghost script (label-triggered
actions resolved against the live state), safety and terminal properties,
and an expectation about stuck states. Exploration is a deterministic DFS
over scheduler choices with state memoization; each transition carries
the machine step, the ghost actions it fires, and property evaluation,
so every schedule sees the same combined semantics as a replay.

The DFS walks numbered states. A :class:`TransitionMemo` numbers each
distinct thread state, heap, ledger and env (heap number, allocation
cursor, ledger number) when first met, and a state is (thread numbers,
env number), equal exactly when the ExplStates are. Its table
computes each transition once per (tid, thread tid's number, env number),
with all thread numbers in place of thread tid's when a safety property
reads threads. The step, admission, window and verdict memos of a
transition are keyed on numbers too, so a miss whose parts all hit
hashes no expression and no heap, and objects are built only for the
thread steps, resolvers and properties that run.
"""

from __future__ import annotations

from types import MappingProxyType

from .ghost import (
    AllocAction,
    ExchangeAction,
    GhostLedger,
    GhostViolation,
    OpenGuardAction,
    TransferAction,
    apply_action,
    close_windows,
    empty_ledger,
    joint_state,
)
from .lang import MachineConfig, UsageError, enabled_threads, initial_config, thread_step
from .monoid import leq, memo
from .protocol import ExchangeQuery, valid_fragment
from .terms import Record, Term, pretty, term_to_json

__all__ = [
    "Scenario",
    "ScriptEntry",
    "PropertySpec",
    "ExplState",
    "Violation",
    "TerminalSummary",
    "ExplorationResult",
    "ReplayError",
    "explore",
    "replay",
    "check_property",
    "register_resolver",
    "register_property",
    "RESOLVERS",
    "RESOLVER_ARGS",
    "PROPERTY_EVALUATORS",
    "PROPERTY_PARAMS",
    "THREAD_FREE_PROPERTIES",
]


class ScriptEntry(Record):
    """One label binding: when the label fires (optionally filtered on the
    step's observable result), run the named resolver."""

    label: str
    resolver: str
    args: tuple = ()  # sorted (key, value) pairs; values are terms/strs/ints
    when_result: Term | None = None
    negate: bool = False

    def matches(self, result: Term) -> bool:
        if self.when_result is None:
            return True
        hit = result == self.when_result
        return not hit if self.negate else hit

    def arg(self, key, default=None):
        for k, v in self.args:
            if k == key:
                return v
        return default


class PropertySpec(Record):
    name: str
    kind: str
    params: tuple = ()  # sorted (key, value) pairs

    def param(self, key, default=KeyError):
        """Param ``key``; if it is absent, ``default``, and without one a
        KeyError, which fails the property (see :func:`check_property`)."""
        for k, v in self.params:
            if k == key:
                return v
        if default is KeyError:
            raise KeyError(f"missing param {key}")
        return default


_EMPTY = MappingProxyType({})  # a default shared by every scenario, so read-only


class Scenario(Record):
    """Declarative test case; immutable after construction, and compared by
    identity. ``document`` is the JSON document it was read from (see
    formats.scenario_from_json), or None; it is not a field, so a
    ``replace`` copy has none."""

    name: str
    cells: tuple  # (name, initial value) in allocation order
    programs: tuple
    protocols: dict  # iid -> StorageProtocolSpec
    initial_fragments: dict  # iid -> tuple[(owner, element)]
    script: dict = _EMPTY  # label -> [ScriptEntry]
    properties: tuple = ()
    terminal_properties: tuple = ()
    expectation: str = "no-stuck"  # or "stuck-reachable"
    max_states: int = 200_000
    max_steps_per_thread: int = 64
    named: dict = _EMPTY  # iid -> named-element helper
    cell_instances: dict = _EMPTY  # cell name -> iid
    protected_cells: dict = _EMPTY  # iid -> cell name
    meta: dict = _EMPTY

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self):
        self.__dict__["document"] = None
        names = [n for n, _ in self.cells]
        if len(set(names)) != len(names):
            raise ValueError("duplicate cell names")
        if self.expectation not in ("no-stuck", "stuck-reachable"):
            raise ValueError(f"bad expectation {self.expectation!r}")
        pnames = [p.name for p in self.properties + self.terminal_properties]
        if len(set(pnames)) != len(pnames):
            raise ValueError("property names must be unique")

    def cell_loc(self, name: str) -> int:
        for i, (n, _) in enumerate(self.cells):
            if n == name:
                return i
        raise KeyError(f"unknown cell {name!r}")

    def loc_cell(self, l: int) -> str | None:
        return self.cells[l][0] if 0 <= l < len(self.cells) else None


class ExplState(Record):
    machine: MachineConfig
    ledger: GhostLedger


class Violation(Record):
    kind: str  # ghost | property | terminal | replay
    name: str
    detail: str
    schedule: tuple

    def describe(self) -> str:
        return f"{self.kind} {self.name}: {self.detail} @ schedule {list(self.schedule)}"


class TerminalSummary(Record):
    thread_values: tuple
    cells: tuple
    stored: tuple

    def to_json(self):
        return {
            "threads": [term_to_json(v) for v in self.thread_values],
            "cells": [[n, term_to_json(v)] for n, v in self.cells],
            "stored": [[iid, term_to_json(s)] for iid, s in self.stored],
        }


class ExplorationResult(Record):
    scenario: str
    mode: str
    memo: bool
    expectation: str
    states: int = 0
    transitions: int = 0
    dedup_hits: int = 0
    schedules_completed: int = 0
    stuck_count: int = 0
    stuck_examples: tuple = ()  # (reason, schedule)
    violations: tuple = ()
    terminal_summaries: tuple = ()
    bound_exceeded: bool = False
    warnings: tuple = ()

    @property
    def ok(self) -> bool:
        if self.bound_exceeded or self.violations:
            return False
        if self.expectation == "no-stuck":
            return self.stuck_count == 0
        return self.stuck_count > 0


class ReplayError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Resolver and property registries

RESOLVERS: dict = {}
RESOLVER_ARGS: dict = {}  # name -> arg -> its kind, see register_resolver
PROPERTY_EVALUATORS: dict = {}
PROPERTY_PARAMS: dict = {}  # kind -> param -> its kind, see register_property
THREAD_FREE_PROPERTIES: set = set()  # kinds whose evaluators read no thread state


def register_resolver(*names: str, args: dict | None = None):
    """Register ``fn(ctx, entry) -> actions or GhostViolation`` as the
    resolver ``names``. It reads ``entry`` and the :class:`ResolveCtx`
    (tid, post-step heap, ledger, the step's label, result and event),
    not the thread pool: so a transition reads (tid, thread tid's state,
    heap, cursor, ledger), plus all threads when a safety property reads
    them. ``args`` maps each arg ``fn`` reads to a param kind of
    :func:`register_property`, or "owner" (a string), "updates" ({"list":
    [{"list": [owner, {"term": T}]}, ...]}) or "instance-or-@cell" (an
    instance, or "@cell" for the instance of the cell the step touches);
    without ``args`` they may be any encoded values.
    """

    def wrap(fn):
        for name in names:
            RESOLVERS[name] = fn
            if args is not None:
                RESOLVER_ARGS[name] = args
        return fn

    return wrap


def register_property(kind: str, reads_threads: bool = True, params: dict | None = None):
    """Register ``fn(scenario, state, prop) -> (ok, reason)`` as the
    evaluator of property ``kind``.

    ``params`` maps each param that ``fn`` reads to its kind, which
    :func:`formats.scenario_from_json` checks: "term" ({"term": T}),
    "terms" ({"list": [{"term": T}, ...]}), "cell" (a cell name), "cells"
    ({"list": [cell names...]}), "instance" (a protocol instance id),
    "count" (a non-negative integer), "bool", or a tuple of the strings it
    may be. Every param may be left out; ``fn`` reads its default.

    ``reads_threads=False`` declares that ``fn`` reads nothing of
    ``state`` but ``state.ledger`` and ``state.machine.heap``: not the
    threads or the cursor. When every safety property of a scenario is so
    declared, :func:`transition` computes their verdicts once per
    distinct (ledger, heap). Otherwise every safety property runs on
    every transition.
    """

    def wrap(fn):
        PROPERTY_EVALUATORS[kind] = fn
        PROPERTY_PARAMS[kind] = params or {}
        if reads_threads:
            THREAD_FREE_PROPERTIES.discard(kind)
        else:
            THREAD_FREE_PROPERTIES.add(kind)
        return fn

    return wrap


class ResolveCtx:
    """What a script resolver sees: the post-step heap, the ledger as
    actions apply, and the step's observable result and heap event. One
    is built per resolver call, so it is a plain class."""

    __slots__ = ("scenario", "ledger", "heap", "tid", "label", "result", "event")

    def __init__(self, scenario: Scenario, ledger: GhostLedger, heap: tuple, tid: int,
                 label: str, result: Term, event):
        self.scenario = scenario
        self.ledger = ledger
        self.heap = heap
        self.tid = tid
        self.label = label
        self.result = result
        self.event = event

    @property
    def self_owner(self) -> str:
        return f"thread:{self.tid}"

    def event_cell(self) -> str | None:
        if self.event is None or self.event.loc is None:
            return None
        return self.scenario.loc_cell(self.event.loc)

    def instance_for(self, entry: ScriptEntry) -> str:
        iid = entry.arg("instance")
        if iid == "@cell" or iid is None:
            cell = self.event_cell()
            iid = self.scenario.cell_instances.get(cell)
            if iid is None:
                raise ReplayError(
                    f"label {self.label}: no protocol instance for cell {cell!r}"
                )
        return iid

    def cell_value(self, name: str) -> Term | None:
        try:
            l = self.scenario.cell_loc(name)
        except KeyError as exc:
            raise ReplayError(f"label {self.label}: {exc.args[0]}") from exc
        return next((v for hl, v, _ in self.heap if hl == l), None)


def check_property(scenario: Scenario, state: ExplState, prop: PropertySpec):
    """Evaluate one registered property; (ok, reason). An evaluator that
    raises KeyError or ValueError, finding the scenario or the state
    without what it reads, fails the property."""
    fn = PROPERTY_EVALUATORS.get(prop.kind)
    if fn is None:
        return False, f"unknown property kind {prop.kind!r}"
    try:
        return fn(scenario, state, prop)
    except (KeyError, ValueError) as exc:
        return False, f"evaluator error: {exc}"


# -- generic resolvers: literal ghost actions spelled out in the script
#    (the case-study modules register richer, state-aware resolvers)


def _owner(ctx: ResolveCtx, name) -> str:
    return ctx.self_owner if name in (None, "self") else name


@register_resolver("ghost.exchange", args={
    "instance": "instance-or-@cell", "updates": "updates", "deposited": "term",
    "withdrawn": "term", "kind": ("exchange", "deposit", "withdraw", "update"),
})
def _resolve_exchange(ctx: ResolveCtx, entry: ScriptEntry):
    updates = tuple(
        (_owner(ctx, o), el) for o, el in (entry.arg("updates") or ())
    )
    action = ExchangeAction(
        ctx.instance_for(entry),
        updates,
        deposited=entry.arg("deposited"),
        withdrawn=entry.arg("withdrawn"),
        kind=entry.arg("kind", "exchange"),
    )
    # a bad shape is a replay violation here, in both modes; rule-mode admission would raise
    sp = ctx.scenario.protocols[action.instance]
    eps, unit = sp.storage.unit, sp.protocol.unit
    sides = [eps if s is None else s for s in (action.deposited, action.withdrawn)]
    ExchangeQuery(unit, sides[0], unit, sides[1], action.kind).check_shape(sp)
    return [action]


@register_resolver("ghost.open-guard", args={
    "instance": "instance-or-@cell", "owner": "owner", "element": "term",
})
def _resolve_open_guard(ctx: ResolveCtx, entry: ScriptEntry):
    iid = ctx.instance_for(entry)
    element = entry.arg("element", ctx.scenario.protocols[iid].storage.unit)
    return [OpenGuardAction(iid, _owner(ctx, entry.arg("owner")), element, licenses=ctx.label)]


@register_resolver("ghost.transfer", args={
    "instance": "instance-or-@cell", "from": "owner", "to": "owner", "element": "term",
    "remainder": "term",
})
def _resolve_transfer(ctx: ResolveCtx, entry: ScriptEntry):
    iid = ctx.instance_for(entry)
    unit = ctx.scenario.protocols[iid].protocol.unit  # for an element left out
    owners = (_owner(ctx, entry.arg("from")), _owner(ctx, entry.arg("to")))
    return [TransferAction(iid, *owners, entry.arg("element", unit), entry.arg("remainder", unit))]


# -- generic property evaluators


@register_property("ghost-invariant", reads_threads=False)
def _prop_ghost_invariant(scenario, state, prop):
    for iid, inst in state.ledger.instances:
        sp = scenario.protocols[iid]
        ok, reason = memo(sp, ("invariant", iid, inst), _instance_invariant, sp, iid, inst)
        if not ok:
            return ok, reason
    return True, ""


def _instance_invariant(sp, iid: str, inst) -> tuple[bool, str]:
    """The ledger invariant of one instance state: its fragments, stored
    content and windows decide it, so it is computed once per state."""
    total = joint_state(sp, inst.fragments)
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


@register_property(
    "heap-cell", reads_threads=False,
    params={"cell": "cell", "op": ("eq", "in"), "value": "term", "values": "terms"},
)
def _prop_heap_cell(scenario, state, prop):
    name = prop.param("cell")
    value = state.machine.heap_value(scenario.cell_loc(name))
    if value is None:
        return False, f"cell {name} freed or absent"
    op = prop.param("op", "eq")
    if op == "eq":
        want = prop.param("value")
        return value == want, f"{name} = {pretty(value)}, want {pretty(want)}"
    if op == "in":
        allowed = prop.param("values")
        return value in allowed, f"{name} = {pretty(value)} not in allowed set"
    return False, f"unknown heap-cell op {op!r}"


@register_property("all-finished")
def _prop_all_finished(scenario, state, prop):
    bad = [i for i, t in enumerate(state.machine.threads) if t[0] != "done"]
    return not bad, f"threads not finished: {bad}"


@register_property("thread-result-eq", params={"tid": "count", "value": "term"})
def _prop_thread_result_eq(scenario, state, prop):
    tid = prop.param("tid")
    if tid >= len(state.machine.threads):
        return False, f"no thread {tid}"
    t = state.machine.threads[tid]
    if t[0] != "done":
        return False, f"thread {tid} not finished"
    want = prop.param("value")
    return t[1] == want, f"thread {tid} returned {pretty(t[1])}, want {pretty(want)}"


@register_property("thread-result-in", params={"tid": "count", "values": "terms"})
def _prop_thread_result_in(scenario, state, prop):
    tid = prop.param("tid")
    if tid >= len(state.machine.threads):
        return False, f"no thread {tid}"
    t = state.machine.threads[tid]
    if t[0] != "done":
        return False, f"thread {tid} not finished"
    allowed = prop.param("values")
    return t[1] in allowed, f"thread {tid} returned {pretty(t[1])}"


# ---------------------------------------------------------------------------
# The combined transition: machine step + script + properties


class TransitionMemo:
    """The numbered transitions of one scenario in one admission mode (see
    the module docstring); :func:`explore` and :func:`replay` make one per
    call. ``table`` maps (tid, thread tid's number or all thread numbers,
    env number) to what :meth:`compute` gives for it. Within a transition
    each part is memoised on the numbers it reads:
    - the thread step on the thread's number alone if it reads neither
      heap nor cursor, else on (thread number, heap number, cursor);
    - each ghost admission on (ledger number, action), and the closing of
      guard windows on the ledger number;
    - the safety-property verdicts on (ledger number, heap number) after
      the step's ghost actions, but only if no safety property reads
      thread state (see :func:`register_property`). If one does, every
      safety property runs on every miss.
    """

    def __init__(self, scenario: Scenario, mode: str):
        self.scenario = scenario
        self.mode = mode
        self.ids: dict = {}  # each distinct item -> its number
        self.items: list = []  # number -> thread state, heap, ledger or env
        self.running: list = []  # number -> whether it is the state of a running thread
        self.table: dict = {}
        # thread number -> its step if that reads neither heap nor cursor,
        # else (heap number, cursor) -> its step; a step is (kind, thread
        # number, spawned numbers, (heap number, cursor) or None if
        # unchanged, fired labels, heap event)
        self.steps: dict = {}
        self.admissions: dict = {}  # (ledger number, action) -> ledger number or GhostViolation
        self.closed: dict = {}  # ledger number -> ledger number or GhostViolation
        # (ledger number, heap number) -> safety verdicts; None if a safety
        # property reads threads
        reads_threads = any(p.kind not in THREAD_FREE_PROPERTIES for p in scenario.properties)
        self.verdicts: dict | None = None if reads_threads else {}

    def number(self, item) -> int:
        n = self.ids.setdefault(item, len(self.items))
        if n == len(self.items):
            self.items.append(item)
            self.running.append(type(item) is tuple and item[:1] == ("run",))
        return n

    def key(self, state: ExplState) -> tuple:
        """``state`` numbered: (thread numbers, env number)."""
        m, number = state.machine, self.number
        env = (number(m.heap), m.cursor, number(state.ledger))
        return tuple(map(number, m.threads)), number(env)

    def state(self, nums: tuple, heap: int, cursor: int, ledger: int) -> ExplState:
        items = self.items
        threads = tuple(items[n] for n in nums)
        return ExplState(MachineConfig(items[heap], threads, cursor), items[ledger])

    def step(self, n: int, heap: int, cursor: int) -> tuple:
        """Thread number ``n``'s step at (heap number, cursor)."""
        got = self.steps.get(n)
        if type(got) is dict:
            got = got.get((heap, cursor))
        if got is None:
            items, number = self.items, self.number
            out = thread_step(items[n][1], items[heap], cursor)
            store = None if out.heap is items[heap] else (number(out.heap), out.cursor)
            got = (out.kind, number(out.thread), tuple(map(number, out.spawned)), store,
                   out.fired, out.event)
            if out.read:
                self.steps.setdefault(n, {})[heap, cursor] = got
            else:
                self.steps[n] = got
        return got

    def admit(self, ledger: int, action):
        key = (ledger, action)
        got = self.admissions.get(key)
        if got is None:
            out = apply_action(self.scenario.protocols, self.items[ledger], action, self.mode)
            got = self.admissions[key] = self.number(out.ledger) if out.ok else out.violation
        return got

    def close(self, ledger: int):
        got = self.closed.get(ledger)
        if got is None:
            out = close_windows(self.scenario.protocols, self.items[ledger])
            got = self.closed[ledger] = self.number(out.ledger) if out.ok else out.violation
        return got

    def property_violations(self, nums: tuple, heap: int, cursor: int, ledger: int) -> list:
        """A violation for each safety property that fails at the state
        numbered (``nums``, heap, cursor, ledger)."""
        props = self.scenario.properties
        verdicts_of = {} if self.verdicts is None else self.verdicts
        verdicts = verdicts_of.get((ledger, heap))
        if verdicts is None:
            st = self.state(nums, heap, cursor, ledger)
            verdicts = [check_property(self.scenario, st, p) for p in props]
            verdicts_of[ledger, heap] = verdicts
        return [
            ("property", p.name, reason) for p, (ok, reason) in zip(props, verdicts) if not ok
        ]

    def compute(self, tid: int, nums: tuple, env: int) -> tuple:
        """Thread ``tid``'s transition from the state (``nums``, ``env``):
        (kind, thread tid's new number, spawned thread numbers, env number
        after, violations, crossed labels, stuck reason).

        Resolvers read the post-step heap, not the thread pool, so this
        reads (tid, thread tid's state, heap, cursor, ledger), and all
        threads only when a safety property reads them. A resolver that
        raises KeyError or ValueError (ReplayError is one), finding the
        scenario or the state without what it reads, gives a replay
        violation.
        """
        items, scenario = self.items, self.scenario
        heap, cursor, ledger = items[env]
        kind, mine, spawned, store, fired, event = self.step(nums[tid], heap, cursor)
        if kind != "next":  # stuck, or done: thread tid's expression was a value
            reason = items[mine][1] if kind == "stuck" else ""
            return "next" if kind == "done" else kind, mine, (), env, (), (), reason
        if store is not None:
            heap, cursor = store
        violations: list[tuple[str, str, str]] = []
        for lbl, result in fired:
            for entry in scenario.script.get(lbl, ()):
                if not entry.matches(result):
                    continue
                fn = RESOLVERS.get(entry.resolver)
                if fn is None:
                    violations.append(("ghost", lbl, f"unknown resolver {entry.resolver!r}"))
                    continue
                ctx = ResolveCtx(scenario, items[ledger], items[heap], tid, lbl, result, event)
                try:
                    resolved = fn(ctx, entry)
                except (KeyError, ValueError) as exc:  # ReplayError among them
                    violations.append(("replay", lbl, str(exc)))
                    continue
                if isinstance(resolved, GhostViolation):
                    violations.append(("ghost", lbl, resolved.describe()))
                    continue
                for action in resolved:
                    got = self.admit(ledger, action)
                    if type(got) is not int:
                        violations.append(("ghost", lbl, got.describe()))
                        break
                    ledger = got

        nums = nums[:tid] + (mine,) + nums[tid + 1 :] + spawned
        violations += self.property_violations(nums, heap, cursor, ledger)

        closed = self.close(ledger)
        if type(closed) is not int:
            violations.append(("ghost", "close-window", closed.describe()))
        else:
            ledger = closed
        crossed = tuple(lbl for lbl, _ in fired)
        env = self.number((heap, cursor, ledger))
        return "next", mine, spawned, env, tuple(violations), crossed, ""


def initial_state(scenario: Scenario) -> ExplState:
    machine = initial_config([v for _, v in scenario.cells], scenario.programs)
    ledger = empty_ledger()
    for iid in sorted(scenario.protocols):
        out = apply_action(
            scenario.protocols,
            ledger,
            AllocAction(iid, tuple(scenario.initial_fragments.get(iid, ()))),
        )
        if not out.ok:
            raise ValueError(f"scenario setup: {out.violation.describe()}")
        ledger = out.ledger
    return ExplState(machine, ledger)


def transition(
    scenario: Scenario, state: ExplState, tid: int, mode: str, memo: TransitionMemo | None = None
):
    """Returns (kind, new_state, violations, fired_labels, stuck_reason).

    ``memo`` (fresh when None) is a :class:`TransitionMemo` for
    ``scenario`` and ``mode``: this numbers ``state`` in it and runs
    :meth:`TransitionMemo.compute` through its table, as :func:`explore`
    does, then builds the new state from the numbers.
    """
    if memo is None:
        memo = TransitionMemo(scenario, mode)
    nums, env = memo.key(state)
    if not (0 <= tid < len(nums) and memo.running[nums[tid]]):
        raise UsageError(f"thread {tid} is not running")
    move = (tid, nums if memo.verdicts is None else nums[tid], env)
    out = memo.table.get(move)
    if out is None:
        out = memo.table[move] = memo.compute(tid, nums, env)
    kind, mine, spawned, env2, violations, crossed, stuck_reason = out
    nums2 = nums[:tid] + (mine,) + nums[tid + 1 :] + spawned
    return kind, memo.state(nums2, *memo.items[env2]), list(violations), crossed, stuck_reason


def _terminal_checks(scenario: Scenario, state: ExplState):
    violations = []
    for prop in scenario.terminal_properties:
        ok, reason = check_property(scenario, state, prop)
        if not ok:
            violations.append(("terminal", prop.name, reason))
    return violations


def _summary(scenario: Scenario, state: ExplState) -> TerminalSummary:
    heap = state.machine.heap_dict()
    cells = tuple(
        (name, heap[scenario.cell_loc(name)][0])
        for name, _ in scenario.cells
        if scenario.cell_loc(name) in heap
    )
    stored = tuple((iid, inst.stored) for iid, inst in state.ledger.instances)
    return TerminalSummary(
        tuple(t[1] for t in state.machine.threads), cells, stored
    )


def explore(scenario: Scenario, mode: str = "rule", memo: bool = True) -> ExplorationResult:
    """DFS over scheduler choices; see the module docstring."""
    root = initial_state(scenario)
    nodes = [(-1, -1)]  # nid -> (parent nid, tid taken to reach it)

    def schedule_to(nid: int) -> tuple:
        path = []
        while nid > 0:
            nid, tid = nodes[nid]
            path.append(tid)
        return tuple(reversed(path))

    numbered = TransitionMemo(scenario, mode)
    items, running, table = numbered.items, numbered.running, numbered.table
    thread_local = numbered.verdicts is not None  # no safety property reads threads
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

    root_key = numbered.key(root)
    record_violations(numbered.property_violations(root_key[0], *items[root_key[1]]), ())
    visited = {root_key: 0}
    on_path: set = set()  # memo-off cycle pruning
    states = 1  # the number of nodes, and the next node's nid
    transitions = dedup_hits = schedules_completed = stuck_count = 0
    bound_exceeded = False
    # (nid, state, steps taken per thread, entering)
    stack = [(0, root_key, (0,) * len(scenario.programs), True)]
    while stack:
        nid, key, counts, entering = stack.pop()
        if not memo:
            if not entering:
                on_path.discard(key)
                continue
            stack.append((nid, key, counts, False))
            on_path.add(key)
        nums, env = key
        enabled = [tid for tid, n in enumerate(nums) if running[n]]
        if not enabled:
            st = numbered.state(nums, *items[env])
            schedules_completed += 1
            record_violations(_terminal_checks(scenario, st), schedule_to(nid))
            terminals.add(_summary(scenario, st))
            continue
        if states >= scenario.max_states:
            bound_exceeded = True
            continue
        for tid in reversed(enabled):
            if counts[tid] >= max_depth:
                bound_exceeded = True
                continue
            move = (tid, nums[tid] if thread_local else nums, env)
            out = table.get(move)
            if out is None:  # transition()'s table lookup, inlined
                out = table[move] = numbered.compute(tid, nums, env)
                crossed_labels.update(out[5])  # a hit crosses the labels of its miss
            kind, mine, spawned, env2, vios, _, stuck_reason = out
            transitions += 1
            # a schedule is walked back from the node only when reported
            if kind == "stuck":
                stuck_count += 1
                schedules_completed += 1
                if stuck_reason not in stuck_examples:
                    stuck_examples[stuck_reason] = schedule_to(nid) + (tid,)
                continue
            if vios:
                record_violations(vios, schedule_to(nid) + (tid,))
                schedules_completed += 1
                continue
            # the other threads kept their states, and so their numbers
            nums2 = nums[:tid] + (mine,) + nums[tid + 1 :]
            if spawned:
                nums2 += spawned
            key2 = (nums2, env2)
            if memo:
                if visited.setdefault(key2, states) != states:
                    dedup_hits += 1
                    continue
            elif key2 in on_path:
                dedup_hits += 1
                continue
            new_counts = counts[:tid] + (counts[tid] + 1,) + counts[tid + 1 :]
            if spawned:
                new_counts += (0,) * len(spawned)
            nodes.append((nid, tid))
            stack.append((states, key2, new_counts, True))
            states += 1

    unused = sorted(set(scenario.script) - crossed_labels)
    return ExplorationResult(
        scenario.name, mode, memo, scenario.expectation, states=states, transitions=transitions,
        dedup_hits=dedup_hits, schedules_completed=schedules_completed, stuck_count=stuck_count,
        stuck_examples=tuple(sorted(stuck_examples.items())),
        violations=tuple(
            sorted(seen_violations.values(), key=lambda v: (v.kind, v.name, v.detail))
        ),
        terminal_summaries=tuple(
            sorted(terminals, key=lambda s: repr((s.thread_values, s.cells, s.stored)))
        ),
        bound_exceeded=bound_exceeded,
        warnings=tuple(f"script label never crossed: {lbl}" for lbl in unused),
    )


class TraceEntry(Record):
    tid: int
    kind: str
    fired: tuple
    stuck_reason: str
    state: ExplState


def replay(scenario: Scenario, schedule, mode: str = "rule"):
    """Deterministic replay of a schedule; returns the trace entries.

    Raises ReplayError when the schedule picks a non-enabled thread.
    """
    st = initial_state(scenario)
    memo = TransitionMemo(scenario, mode)
    entries = [TraceEntry(-1, "init", (), "", st)]
    for i, tid in enumerate(schedule):
        if tid not in enabled_threads(st.machine):
            raise ReplayError(f"schedule step {i}: thread {tid} not enabled")
        kind, st2, vios, crossed, stuck_reason = transition(scenario, st, tid, mode, memo)
        entries.append(TraceEntry(tid, kind, crossed, stuck_reason, st2))
        st = st2
        if kind == "stuck":
            break
    return entries


# the case studies register their resolvers and properties here, so every
# reader and runner of scenarios sees the same registry; their builders
# (guardcheck.studies) only write documents, and no run loads them
from . import resolvers
