"""Small-step semantics for the heap language.

Values are terms (ints, bools, unit, tuples, inl/inr constructors,
locations) plus recursive closures; expressions are tagged tuples.
Reduction is deterministic per thread: the scheduler choice is the only
nondeterminism. Heap cells carry a read/write state — reading(n) or
writing — and non-atomic loads/stores take two steps through internal
``na2`` forms, getting stuck on any overlap that constitutes a data race.

Atomic (sc) reads are permitted while reads are in flight; every write
flavor, CAS and FetchAdd require reading(0); a non-atomic begin on a
writing cell is a race. Aborts, type errors and integer overflow also
produce stuck states, each tagged with the failed rule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .terms import UNIT, Term, con_args, tbool, tcon, tint

__all__ = [
    "MachineConfig",
    "StepOutcome",
    "StepEvent",
    "ThreadStep",
    "UsageError",
    "is_value",
    "subst",
    "step",
    "thread_step",
    "enabled_threads",
    "canonical_hash",
    "initial_config",
    "ast_to_json",
    "ast_from_json",
    "loc",
    "loc_index",
    "var",
    "lam",
    "rec",
    "app",
    "let",
    "seq",
    "if_",
    "proj",
    "match",
    "inl",
    "inr",
    "add",
    "eq",
    "load",
    "store",
    "cas",
    "fetch_add",
    "ref",
    "free",
    "fork",
    "abort",
    "label",
    "pair",
    "do_until",
    "index_chain",
]

INT_BOUND = 1 << 63

_SCALAR_VALUE_TAGS = frozenset(["bool", "int", "unit", "sym", "frac", "rec"])
_ORDERINGS = frozenset(["sc", "na", "na2"])


class UsageError(ValueError):
    pass


class _Stuck(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def is_value(e) -> bool:
    tag = e[0]
    if tag in _SCALAR_VALUE_TAGS:
        return True
    if tag == "tuple":
        return all(is_value(x) for x in e[1])
    if tag == "con":
        return all(is_value(x) for x in e[2])
    return False


# ---------------------------------------------------------------------------
# Program construction helpers


def loc(l: int) -> Term:
    return tcon("loc", tint(l))


def loc_index(v: Term) -> int:
    got = con_args(v, "loc")
    if got is None:
        raise _Stuck("type-loc")
    return got[0][1]


def var(x: str):
    return ("var", x)


def rec(f: str, x: str, body):
    return ("rec", f, x, body)


def lam(x: str, body):
    return ("rec", "_self", x, body)


def app(f, a):
    return ("app", f, a)


def let(x: str, e1, e2):
    return ("let", x, e1, e2)


def seq(*es):
    out = es[-1]
    for e in reversed(es[:-1]):
        out = ("seq", e, out)
    return out


def if_(c, t, f):
    return ("if", c, t, f)


def proj(i: int, e):
    return ("proj", i, e)


def match(e, xl: str, el, xr: str, er):
    return ("match", e, xl, el, xr, er)


def inl(e):
    return tcon("inl", e) if is_value(e) else ("con", "inl", (e,))


def inr(e):
    return tcon("inr", e) if is_value(e) else ("con", "inr", (e,))


def pair(a, b):
    return ("tuple", (a, b))


def add(a, b):
    return ("add", a, b)


def eq(a, b):
    return ("eq", a, b)


def load(ordering: str, e):
    if ordering not in _ORDERINGS:
        raise UsageError(f"bad ordering {ordering!r}")
    return ("load", ordering, e)


def store(ordering: str, e1, e2):
    if ordering not in _ORDERINGS:
        raise UsageError(f"bad ordering {ordering!r}")
    return ("store", ordering, e1, e2)


def cas(e1, e2, e3):
    return ("cas", e1, e2, e3)


def fetch_add(e1, e2):
    return ("faa", e1, e2)


def ref(e):
    return ("ref", e)


def free(e):
    return ("free", e)


def fork(e):
    return ("fork", e)


def abort():
    return ("abort",)


def label(name: str, e):
    return ("label", name, e)


def do_until(body, result_var: str, until):
    """do { r = body } until cond(r); evaluates to the final r."""
    return app(
        rec(
            "_loop",
            "_",
            let(result_var, body, if_(until, var(result_var), app(var("_loop"), UNIT))),
        ),
        UNIT,
    )


def index_chain(i_expr, options: list, fallback):
    """Runtime indexing desugared to an equality chain over 0..len-1."""
    out = fallback
    for idx in reversed(range(len(options))):
        out = if_(eq(i_expr, tint(idx)), options[idx], out)
    return out


# ---------------------------------------------------------------------------
# Substitution

_BINDERLESS = frozenset(
    ["bool", "int", "unit", "sym", "frac", "abort"]
)


def subst(e, x: str, v):
    tag = e[0]
    if tag in _BINDERLESS:
        return e
    if tag == "var":
        return v if e[1] == x else e
    if tag == "rec":
        if e[1] == x or e[2] == x:
            return e
        return ("rec", e[1], e[2], subst(e[3], x, v))
    if tag == "let":
        e1 = subst(e[2], x, v)
        return ("let", e[1], e1, e[3] if e[1] == x else subst(e[3], x, v))
    if tag == "match":
        scrut = subst(e[1], x, v)
        el = e[3] if e[2] == x else subst(e[3], x, v)
        er = e[5] if e[4] == x else subst(e[5], x, v)
        return ("match", scrut, e[2], el, e[4], er)
    if tag == "tuple":
        return ("tuple", tuple(subst(p, x, v) for p in e[1]))
    if tag == "con":
        return ("con", e[1], tuple(subst(p, x, v) for p in e[2]))
    if tag == "label":
        return ("label", e[1], subst(e[2], x, v))
    if tag == "load":
        return ("load", e[1], subst(e[2], x, v))
    if tag == "store":
        return ("store", e[1], subst(e[2], x, v), subst(e[3], x, v))
    if tag == "proj":
        return ("proj", e[1], subst(e[2], x, v))
    # remaining forms: uniform positional children
    return (tag,) + tuple(subst(p, x, v) for p in e[1:])


# ---------------------------------------------------------------------------
# Machine state


@dataclass(frozen=True)
class MachineConfig:
    """Heap, thread pool, allocation cursor, and the freed-location log.

    The heap maps locations to (value, rw) where rw is ("r", n) or ("w",).
    Threads are ("run", expr), ("done", value) or ("stuck", reason).
    """

    heap: tuple
    threads: tuple
    cursor: int
    freed: tuple

    def heap_dict(self) -> dict:
        return {l: (v, rw) for l, v, rw in self.heap}

    def heap_value(self, l: int) -> Term | None:
        for hl, v, _ in self.heap:
            if hl == l:
                return v
        return None


@dataclass(frozen=True)
class StepEvent:
    op: str  # ref|free|load|store|cas|faa|fork|pure
    loc: int | None = None
    ordering: str = ""
    value: Term | None = None  # observable result of the heap op
    written: Term | None = None


@dataclass(frozen=True)
class StepOutcome:
    kind: str  # next | stuck | done
    config: MachineConfig
    fired: tuple = ()  # (label, result-value) pairs crossed in this step
    event: StepEvent | None = None
    reason: str = ""
    value: Term | None = None


class ThreadStep(NamedTuple):
    """One step of a thread's expression: what :func:`thread_step` gives.

    It reads only the expression, the heap, the cursor and the freed log,
    never the other threads or the thread's index. ``thread`` is the
    thread's state after the step and ``spawned`` the states of the
    threads it forks.
    """

    kind: str  # next | stuck | done
    thread: tuple
    spawned: tuple
    heap: tuple
    cursor: int
    freed: tuple
    fired: tuple = ()
    event: StepEvent | None = None


def _thread(e) -> tuple:
    return ("done", e) if is_value(e) else ("run", e)


def initial_config(cells: Iterable[Term], programs: Iterable) -> MachineConfig:
    """Allocate the named cells in order at locations 0.. and start one
    thread per program."""
    heap = tuple((i, v, ("r", 0)) for i, v in enumerate(cells))
    return MachineConfig(heap, tuple(_thread(p) for p in programs), len(heap), ())


class _Stepper:
    def __init__(self, heap: tuple, cursor: int, freed: tuple):
        self.heap = {l: (v, rw) for l, v, rw in heap}
        self.cursor = cursor
        self.freed = set(freed)
        self.wrote = False  # whether the heap, cursor or freed log changed
        self.forks: list = []
        self.fired: list = []
        self.event: StepEvent | None = None

    # -- heap helpers

    def _cell(self, l: int):
        if l not in self.heap:
            raise _Stuck("use-after-free" if l in self.freed else "load-absent")
        return self.heap[l]

    def _put(self, l: int, v: Term, rw: tuple):
        self.heap[l] = (v, rw)
        self.wrote = True

    def _note(self, **kw):
        self.event = StepEvent(**kw)

    # -- one reduction step; e is not a value

    def step(self, e):
        tag = e[0]
        if tag == "var":
            raise _Stuck("unbound-var")
        if tag == "abort":
            raise _Stuck("abort")
        if tag == "label":
            inner = e[2]
            if is_value(inner):
                self.fired.append((e[1], inner))
                return inner
            out = self.step(inner)
            if is_value(out):
                self.fired.append((e[1], out))
                return out
            return ("label", e[1], out)
        if tag == "app":
            f, a = e[1], e[2]
            if not is_value(f):
                return ("app", self.step(f), a)
            if not is_value(a):
                return ("app", f, self.step(a))
            if f[0] != "rec":
                raise _Stuck("type-app")
            return subst(subst(f[3], f[1], f), f[2], a)
        if tag == "let":
            if not is_value(e[2]):
                return ("let", e[1], self.step(e[2]), e[3])
            return subst(e[3], e[1], e[2])
        if tag == "seq":
            if not is_value(e[1]):
                return ("seq", self.step(e[1]), e[2])
            return e[2]
        if tag == "tuple":
            parts = list(e[1])
            for i, p in enumerate(parts):
                if not is_value(p):
                    parts[i] = self.step(p)
                    return ("tuple", tuple(parts))
            raise AssertionError("tuple of values is a value")
        if tag == "con":
            parts = list(e[2])
            for i, p in enumerate(parts):
                if not is_value(p):
                    parts[i] = self.step(p)
                    return ("con", e[1], tuple(parts))
            raise AssertionError("saturated constructor is a value")
        if tag == "proj":
            if not is_value(e[2]):
                return ("proj", e[1], self.step(e[2]))
            v = e[2]
            if v[0] != "tuple" or len(v[1]) != 2 or e[1] not in (1, 2):
                raise _Stuck("type-proj")
            return v[1][e[1] - 1]
        if tag == "match":
            if not is_value(e[1]):
                return ("match", self.step(e[1]), e[2], e[3], e[4], e[5])
            got = con_args(e[1], "inl")
            if got is not None and len(got) == 1:
                return subst(e[3], e[2], got[0])
            got = con_args(e[1], "inr")
            if got is not None and len(got) == 1:
                return subst(e[5], e[4], got[0])
            raise _Stuck("type-match")
        if tag == "if":
            if not is_value(e[1]):
                return ("if", self.step(e[1]), e[2], e[3])
            if e[1][0] != "bool":
                raise _Stuck("type-if")
            return e[2] if e[1][1] else e[3]
        if tag == "fork":
            self.forks.append(e[1])
            self._note(op="fork")
            return UNIT
        if tag == "add":
            if not is_value(e[1]):
                return ("add", self.step(e[1]), e[2])
            if not is_value(e[2]):
                return ("add", e[1], self.step(e[2]))
            if e[1][0] != "int" or e[2][0] != "int":
                raise _Stuck("type-add")
            n = e[1][1] + e[2][1]
            if not -INT_BOUND <= n < INT_BOUND:
                raise _Stuck("overflow")
            return tint(n)
        if tag == "eq":
            if not is_value(e[1]):
                return ("eq", self.step(e[1]), e[2])
            if not is_value(e[2]):
                return ("eq", e[1], self.step(e[2]))
            return tbool(e[1] == e[2])
        if tag == "ref":
            if not is_value(e[1]):
                return ("ref", self.step(e[1]))
            l = self.cursor
            self.cursor += 1
            self._put(l, e[1], ("r", 0))
            self._note(op="ref", loc=l, written=e[1])
            return loc(l)
        if tag == "free":
            if not is_value(e[1]):
                return ("free", self.step(e[1]))
            l = loc_index(e[1])
            if l not in self.heap:
                raise _Stuck("use-after-free" if l in self.freed else "free-absent")
            if self.heap[l][1] != ("r", 0):
                raise _Stuck("free-race")
            del self.heap[l]
            self.freed.add(l)
            self.wrote = True
            self._note(op="free", loc=l)
            return UNIT
        if tag == "load":
            return self._load(e)
        if tag == "store":
            return self._store(e)
        if tag == "cas":
            for i in (1, 2, 3):
                if not is_value(e[i]):
                    parts = list(e)
                    parts[i] = self.step(e[i])
                    return tuple(parts)
            l = loc_index(e[1])
            v, rw = self._cell(l)
            if rw != ("r", 0):
                raise _Stuck("race-cas")
            if v == e[2]:
                self._put(l, e[3], ("r", 0))
                out = tbool(True)
            else:
                out = tbool(False)
            self._note(op="cas", loc=l, value=out, written=e[3] if out[1] else None)
            return out
        if tag == "faa":
            for i in (1, 2):
                if not is_value(e[i]):
                    parts = list(e)
                    parts[i] = self.step(e[i])
                    return tuple(parts)
            l = loc_index(e[1])
            v, rw = self._cell(l)
            if rw != ("r", 0):
                raise _Stuck("race-faa")
            if v[0] != "int" or e[2][0] != "int":
                raise _Stuck("type-faa")
            n = v[1] + e[2][1]
            if not -INT_BOUND <= n < INT_BOUND:
                raise _Stuck("overflow")
            self._put(l, tint(n), ("r", 0))
            self._note(op="faa", loc=l, value=v, written=tint(n))
            return v
        raise _Stuck(f"bad-expression:{tag}")

    def _load(self, e):
        ordering = e[1]
        if not is_value(e[2]):
            return ("load", ordering, self.step(e[2]))
        l = loc_index(e[2])
        v, rw = self._cell(l)
        if ordering == "sc":
            if rw == ("w",):
                raise _Stuck("race-sc-read")
            self._note(op="load", loc=l, ordering="sc", value=v)
            return v
        if ordering == "na":
            if rw == ("w",):
                raise _Stuck("race-na-read")
            self._put(l, v, ("r", rw[1] + 1))
            self._note(op="load", loc=l, ordering="na")
            return ("load", "na2", e[2])
        # na2: the matching end step; the begin guarantees a positive count
        self._put(l, v, ("r", rw[1] - 1))
        self._note(op="load", loc=l, ordering="na2", value=v)
        return v

    def _store(self, e):
        ordering = e[1]
        if not is_value(e[2]):
            return ("store", ordering, self.step(e[2]), e[3])
        if not is_value(e[3]):
            return ("store", ordering, e[2], self.step(e[3]))
        l = loc_index(e[2])
        v, rw = self._cell(l)
        if ordering == "sc":
            if rw != ("r", 0):
                raise _Stuck("race-sc-write")
            self._put(l, e[3], ("r", 0))
            self._note(op="store", loc=l, ordering="sc", written=e[3])
            return UNIT
        if ordering == "na":
            if rw != ("r", 0):
                raise _Stuck("race-na-write")
            self._put(l, v, ("w",))
            self._note(op="store", loc=l, ordering="na")
            return ("store", "na2", e[2], e[3])
        # na2: cell is in the writing state owned by this thread
        self._put(l, e[3], ("r", 0))
        self._note(op="store", loc=l, ordering="na2", written=e[3])
        return UNIT


def thread_step(e, heap: tuple, cursor: int, freed: tuple) -> ThreadStep:
    """Apply the unique head reduction of the expression ``e`` against the
    heap, allocation cursor and freed log. A step that changes none of
    them returns the input tuples themselves.
    """
    if is_value(e):
        return ThreadStep("done", ("done", e), (), heap, cursor, freed)
    machine = _Stepper(heap, cursor, freed)
    try:
        out = machine.step(e)
    except _Stuck as exc:
        return ThreadStep("stuck", ("stuck", exc.reason), (), heap, cursor, freed)
    if machine.wrote:
        heap = tuple(sorted((l, v, rw) for l, (v, rw) in machine.heap.items()))
        cursor, freed = machine.cursor, tuple(sorted(machine.freed))
    return ThreadStep(
        "next", _thread(out), tuple(_thread(f) for f in machine.forks),
        heap, cursor, freed, tuple(machine.fired), machine.event,
    )


def step(cfg: MachineConfig, tid: int, memo: dict | None = None) -> StepOutcome:
    """Apply the unique head reduction of thread ``tid``.

    Outcomes: next (one step applied, forks spawned, labels fired), stuck
    (side condition failed; the thread is marked stuck in the returned
    config), or done (the thread's expression is already a value).

    The step itself is :func:`thread_step`; this function places its
    result in the thread pool. Given ``memo``, a dict, :func:`thread_step`
    runs once per distinct (expression, heap, cursor, freed log) the dict
    has seen.
    """
    if not 0 <= tid < len(cfg.threads):
        raise UsageError(f"thread {tid} out of range")
    state = cfg.threads[tid]
    if state[0] != "run":
        raise UsageError(f"thread {tid} is not running ({state[0]})")
    key = (state[1], cfg.heap, cfg.cursor, cfg.freed)
    out = None if memo is None else memo.get(key)
    if out is None:
        out = thread_step(*key)
        if memo is not None:
            memo[key] = out
    threads = cfg.threads[:tid] + (out.thread,) + cfg.threads[tid + 1 :] + out.spawned
    config = MachineConfig(out.heap, threads, out.cursor, out.freed)
    if out.kind == "next":
        return StepOutcome("next", config, fired=out.fired, event=out.event)
    if out.kind == "stuck":
        return StepOutcome("stuck", config, reason=out.thread[1])
    return StepOutcome("done", config, value=out.thread[1])


def enabled_threads(cfg: MachineConfig) -> list[int]:
    """Indices of running threads; stuckness is only discovered by stepping."""
    return [i for i, t in enumerate(cfg.threads) if t[0] == "run"]


def canonical_hash(cfg: MachineConfig) -> str:
    """Process-independent fingerprint of the full configuration."""
    blob = repr((cfg.heap, cfg.threads, cfg.cursor, cfg.freed)).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# JSON AST

_FIXED_ARITY = {
    "var": 1,
    "rec": 3,
    "app": 2,
    "let": 3,
    "seq": 2,
    "proj": 2,
    "match": 5,
    "if": 3,
    "fork": 1,
    "add": 2,
    "eq": 2,
    "abort": 0,
    "ref": 1,
    "free": 1,
    "load": 2,
    "store": 3,
    "cas": 3,
    "faa": 2,
    "label": 2,
    "bool": 1,
    "int": 1,
    "unit": 0,
    "sym": 1,
    "frac": 2,
    "tuple": 1,
    "con": 2,
}


def ast_to_json(e):
    tag = e[0]
    if tag == "tuple":
        return ["tuple", [ast_to_json(x) for x in e[1]]]
    if tag == "con":
        return ["con", e[1], [ast_to_json(x) for x in e[2]]]
    if tag in ("var", "bool", "int", "sym"):
        return [tag, e[1]]
    if tag == "frac":
        return [tag, e[1], e[2]]
    if tag in ("load", "store", "label", "proj"):
        return [tag, e[1]] + [ast_to_json(x) for x in e[2:]]
    if tag == "rec":
        return ["rec", e[1], e[2], ast_to_json(e[3])]
    if tag == "let":
        return ["let", e[1], ast_to_json(e[2]), ast_to_json(e[3])]
    if tag == "match":
        return [
            "match",
            ast_to_json(e[1]),
            e[2],
            ast_to_json(e[3]),
            e[4],
            ast_to_json(e[5]),
        ]
    return [tag] + [ast_to_json(x) for x in e[1:]]


def ast_from_json(doc):
    if not isinstance(doc, list) or not doc or not isinstance(doc[0], str):
        raise UsageError(f"bad program node: {doc!r}")
    tag = doc[0]
    body = doc[1:]
    if tag not in _FIXED_ARITY:
        raise UsageError(f"unknown program tag {tag!r}")
    if len(body) != _FIXED_ARITY[tag]:
        raise UsageError(f"bad arity for {tag}: {doc!r}")
    if tag in ("tuple", "con") and not isinstance(body[-1], list):
        raise UsageError(f"bad program node: {doc!r}")
    if tag == "tuple":
        return ("tuple", tuple(ast_from_json(x) for x in body[0]))
    if tag == "con":
        return ("con", body[0], tuple(ast_from_json(x) for x in body[1]))
    if tag == "unit":
        return UNIT
    if tag in ("var", "bool", "int", "sym"):
        return (tag, body[0])
    if tag == "frac":
        return (tag, body[0], body[1])
    if tag == "rec":
        return ("rec", body[0], body[1], ast_from_json(body[2]))
    if tag == "let":
        return ("let", body[0], ast_from_json(body[1]), ast_from_json(body[2]))
    if tag == "match":
        return (
            "match",
            ast_from_json(body[0]),
            body[1],
            ast_from_json(body[2]),
            body[3],
            ast_from_json(body[4]),
        )
    if tag in ("load", "store"):
        if body[0] not in ("sc", "na"):
            raise UsageError(
                f"{tag} ordering must be sc or na in source programs, got {body[0]!r}"
            )
        return (tag, body[0]) + tuple(ast_from_json(x) for x in body[1:])
    if tag == "label":
        return (tag, body[0]) + tuple(ast_from_json(x) for x in body[1:])
    if tag == "proj":
        return ("proj", body[0], ast_from_json(body[1]))
    return (tag,) + tuple(ast_from_json(x) for x in body)
