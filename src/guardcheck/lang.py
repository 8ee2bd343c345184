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

from typing import Iterable, NamedTuple

from .terms import (
    UNIT, EncodingError, Record, Term, con_args, tbool, tcon, term_from_json, term_to_json, tint,
)

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
    "initial_config",
    "ast_to_json",
    "ast_from_json",
    "loc",
    "loc_index",
    "var",
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

_ORDERINGS = frozenset(["sc", "na", "na2"])

# The kinds of field an expression form has after its tag. _FORMS gives
# them for each form; it drives the JSON codec, substitution outside the
# binders, and the order in which a form's subexpressions step.
_EXPR = "expr"  # a subexpression, evaluated left to right before the form reduces
_BODY = "body"  # a subexpression the form does not evaluate: a body or a branch
_EXPRS = "exprs"  # a list of subexpressions, evaluated left to right
_NAME = "name"
_INDEX = "index"  # a projection index
_ORDER = "order"  # a memory ordering

_FORMS = {
    "var": (_NAME,),
    "rec": (_NAME, _NAME, _BODY),
    "app": (_EXPR, _EXPR),
    "let": (_NAME, _EXPR, _BODY),
    "seq": (_EXPR, _BODY),
    "proj": (_INDEX, _EXPR),
    "match": (_EXPR, _NAME, _BODY, _NAME, _BODY),
    "if": (_EXPR, _BODY, _BODY),
    "fork": (_BODY,),
    "add": (_EXPR, _EXPR),
    "eq": (_EXPR, _EXPR),
    "abort": (),
    "ref": (_EXPR,),
    "free": (_EXPR,),
    "load": (_ORDER, _EXPR),
    "store": (_ORDER, _EXPR, _EXPR),
    "cas": (_EXPR, _EXPR, _EXPR),
    "faa": (_EXPR, _EXPR),
    "label": (_NAME, _EXPR),
    "tuple": (_EXPRS,),
    "con": (_NAME, _EXPRS),
}

# Scalar leaves: values in the term encoding, decoded by the term codec.
_SCALARS = frozenset(["bool", "int", "unit", "sym", "frac"])


class UsageError(ValueError):
    pass


class _Stuck(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def is_value(e) -> bool:
    tag = e[0]
    if tag in ("tuple", "con"):
        return all(is_value(x) for x in e[-1])
    return tag in _SCALARS or tag == "rec"


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

def subst(e, x: str, v):
    tag = e[0]
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
    kinds = _FORMS.get(tag)
    if kinds is None:  # a scalar leaf
        return e
    return (tag,) + tuple(
        tuple(subst(p, x, v) for p in f) if kind is _EXPRS
        else subst(f, x, v) if kind in (_EXPR, _BODY)
        else f
        for kind, f in zip(kinds, e[1:])
    )


# ---------------------------------------------------------------------------
# Machine state


class MachineConfig(Record):
    """Heap, thread pool and allocation cursor: every location below the
    cursor was allocated, so those absent from the heap were freed.

    The heap maps locations to (value, rw) where rw is ("r", n) or ("w",).
    Threads are ("run", expr), ("done", value) or ("stuck", reason).
    """

    heap: tuple
    threads: tuple
    cursor: int

    def heap_dict(self) -> dict:
        return {l: (v, rw) for l, v, rw in self.heap}

    def heap_value(self, l: int) -> Term | None:
        for hl, v, _ in self.heap:
            if hl == l:
                return v
        return None


class StepEvent(Record):
    op: str  # ref|free|load|store|cas|faa|fork|pure
    loc: int | None = None
    ordering: str = ""
    value: Term | None = None  # observable result of the heap op
    written: Term | None = None


class StepOutcome(Record):
    kind: str  # next | stuck | done
    config: MachineConfig
    fired: tuple = ()  # (label, result-value) pairs crossed in this step
    event: StepEvent | None = None
    reason: str = ""
    value: Term | None = None


class ThreadStep(NamedTuple):
    """One step of a thread's expression: what :func:`thread_step` gives.

    It reads only the expression, the heap and the cursor, never the
    other threads or the thread's index, and the heap and cursor only if
    ``read``. ``thread`` is the thread's state after the step and
    ``spawned`` the states of the threads it forks.
    """

    kind: str  # next | stuck | done
    thread: tuple
    spawned: tuple
    heap: tuple
    cursor: int
    fired: tuple = ()
    event: StepEvent | None = None
    read: bool = False


def _thread(e) -> tuple:
    return ("done", e) if is_value(e) else ("run", e)


def initial_config(cells: Iterable[Term], programs: Iterable) -> MachineConfig:
    """Allocate the named cells in order at locations 0.. and start one
    thread per program."""
    heap = tuple((i, v, ("r", 0)) for i, v in enumerate(cells))
    return MachineConfig(heap, tuple(_thread(p) for p in programs), len(heap))


class _Stepper:
    def __init__(self, heap: tuple, cursor: int):
        self.heap = {l: (v, rw) for l, v, rw in heap}
        self.cursor = cursor
        self.read = False  # whether the step read the heap or cursor
        self.wrote = False  # whether the heap or cursor changed
        self.forks: list = []
        self.fired: list = []
        self.event: StepEvent | None = None

    # -- heap helpers

    def _cell(self, l: int):
        self.read = True
        if l not in self.heap:  # freed if below the cursor; no negative l was allocated
            raise _Stuck("use-after-free" if 0 <= l < self.cursor else "load-absent")
        return self.heap[l]

    def _put(self, l: int, v: Term, rw: tuple):
        self.heap[l] = (v, rw)
        self.wrote = True

    # -- one reduction step; e is not a value

    def step(self, e):
        tag = e[0]
        out = self._step_field(e)
        if out is not None and not (tag == "label" and is_value(out[2])):
            return out
        if tag == "label":  # fires in the step that makes its body a value
            inner = (out or e)[2]
            self.fired.append((e[1], inner))
            return inner
        if tag == "var":
            raise _Stuck("unbound-var")
        if tag == "abort":
            raise _Stuck("abort")
        if tag == "app":
            f, a = e[1], e[2]
            if f[0] != "rec":
                raise _Stuck("type-app")
            return subst(subst(f[3], f[1], f), f[2], a)
        if tag == "let":
            return subst(e[3], e[1], e[2])
        if tag == "seq":
            return e[2]
        if tag == "proj":
            v = e[2]
            if v[0] != "tuple" or len(v[1]) != 2 or e[1] not in (1, 2):
                raise _Stuck("type-proj")
            return v[1][e[1] - 1]
        if tag == "match":
            got = con_args(e[1], "inl")
            if got is not None and len(got) == 1:
                return subst(e[3], e[2], got[0])
            got = con_args(e[1], "inr")
            if got is not None and len(got) == 1:
                return subst(e[5], e[4], got[0])
            raise _Stuck("type-match")
        if tag == "if":
            if e[1][0] != "bool":
                raise _Stuck("type-if")
            return e[2] if e[1][1] else e[3]
        if tag == "fork":
            self.forks.append(e[1])
            self.event = StepEvent("fork")
            return UNIT
        if tag == "add":
            if e[1][0] != "int" or e[2][0] != "int":
                raise _Stuck("type-add")
            n = e[1][1] + e[2][1]
            if not -INT_BOUND <= n < INT_BOUND:
                raise _Stuck("overflow")
            return tint(n)
        if tag == "eq":
            return tbool(e[1] == e[2])
        if tag == "ref":
            self.read = True
            l = self.cursor
            self.cursor += 1
            self._put(l, e[1], ("r", 0))
            self.event = StepEvent("ref", l, "", None, e[1])
            return loc(l)
        if tag == "free":
            l = loc_index(e[1])
            self.read = True
            if l not in self.heap:
                raise _Stuck("use-after-free" if 0 <= l < self.cursor else "free-absent")
            if self.heap[l][1] != ("r", 0):
                raise _Stuck("free-race")
            del self.heap[l]
            self.wrote = True
            self.event = StepEvent("free", l)
            return UNIT
        if tag == "load":
            return self._load(e)
        if tag == "store":
            return self._store(e)
        if tag == "cas":
            l = loc_index(e[1])
            v, rw = self._cell(l)
            if rw != ("r", 0):
                raise _Stuck("race-cas")
            if v == e[2]:
                self._put(l, e[3], ("r", 0))
                out = tbool(True)
            else:
                out = tbool(False)
            self.event = StepEvent("cas", l, "", out, e[3] if out[1] else None)
            return out
        if tag == "faa":
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
            self.event = StepEvent("faa", l, "", v, tint(n))
            return v
        raise _Stuck(f"bad-expression:{tag}")

    def _step_field(self, e):
        """``e`` with its leftmost evaluated field that is not a value
        stepped, or None when every evaluated field is a value."""
        for i, kind in enumerate(_FORMS.get(e[0], ()), 1):
            if kind is _EXPR and not is_value(e[i]):
                return e[:i] + (self.step(e[i]),) + e[i + 1 :]
            if kind is _EXPRS:
                for j, p in enumerate(e[i]):
                    if not is_value(p):
                        parts = e[i][:j] + (self.step(p),) + e[i][j + 1 :]
                        return e[:i] + (parts,) + e[i + 1 :]
        return None

    def _load(self, e):
        ordering = e[1]
        l = loc_index(e[2])
        v, rw = self._cell(l)
        if ordering == "sc":
            if rw == ("w",):
                raise _Stuck("race-sc-read")
            self.event = StepEvent("load", l, "sc", v)
            return v
        if ordering == "na":
            if rw == ("w",):
                raise _Stuck("race-na-read")
            self._put(l, v, ("r", rw[1] + 1))
            self.event = StepEvent("load", l, "na")
            return ("load", "na2", e[2])
        # na2: the matching end step; the begin guarantees a positive count
        self._put(l, v, ("r", rw[1] - 1))
        self.event = StepEvent("load", l, "na2", v)
        return v

    def _store(self, e):
        ordering = e[1]
        l = loc_index(e[2])
        v, rw = self._cell(l)
        if ordering == "sc":
            if rw != ("r", 0):
                raise _Stuck("race-sc-write")
            self._put(l, e[3], ("r", 0))
            self.event = StepEvent("store", l, "sc", None, e[3])
            return UNIT
        if ordering == "na":
            if rw != ("r", 0):
                raise _Stuck("race-na-write")
            self._put(l, v, ("w",))
            self.event = StepEvent("store", l, "na")
            return ("store", "na2", e[2], e[3])
        # na2: cell is in the writing state owned by this thread
        self._put(l, e[3], ("r", 0))
        self.event = StepEvent("store", l, "na2", None, e[3])
        return UNIT


def thread_step(e, heap: tuple, cursor: int) -> ThreadStep:
    """Apply the unique head reduction of the expression ``e`` against the
    heap and allocation cursor. A step that changes neither returns the
    input heap tuple itself.
    """
    if is_value(e):
        return ThreadStep("done", ("done", e), (), heap, cursor)
    machine = _Stepper(heap, cursor)
    try:
        out = machine.step(e)
    except _Stuck as exc:
        return ThreadStep("stuck", ("stuck", exc.reason), (), heap, cursor, read=machine.read)
    if machine.wrote:
        heap = tuple(sorted((l, v, rw) for l, (v, rw) in machine.heap.items()))
    return ThreadStep(
        "next", _thread(out), tuple(_thread(f) for f in machine.forks),
        heap, machine.cursor, tuple(machine.fired), machine.event, machine.read,
    )


def step(cfg: MachineConfig, tid: int) -> StepOutcome:
    """Apply the unique head reduction of thread ``tid``.

    Outcomes: next (one step applied, forks spawned, labels fired), stuck
    (side condition failed; the thread is marked stuck in the returned
    config), or done (the thread's expression is already a value).

    The step itself is :func:`thread_step`; this function places its
    result in the thread pool.
    """
    if not 0 <= tid < len(cfg.threads):
        raise UsageError(f"thread {tid} out of range")
    state = cfg.threads[tid]
    if state[0] != "run":
        raise UsageError(f"thread {tid} is not running ({state[0]})")
    out = thread_step(state[1], cfg.heap, cfg.cursor)
    threads = cfg.threads[:tid] + (out.thread,) + cfg.threads[tid + 1 :] + out.spawned
    config = MachineConfig(out.heap, threads, out.cursor)
    if out.kind == "next":
        return StepOutcome("next", config, fired=out.fired, event=out.event)
    if out.kind == "stuck":
        return StepOutcome("stuck", config, reason=out.thread[1])
    return StepOutcome("done", config, value=out.thread[1])


def enabled_threads(cfg: MachineConfig) -> list[int]:
    """Indices of running threads; stuckness is only discovered by stepping."""
    return [i for i, t in enumerate(cfg.threads) if t[0] == "run"]


# ---------------------------------------------------------------------------
# JSON AST

def ast_to_json(e):
    kinds = _FORMS.get(e[0])
    if kinds is None:  # a scalar leaf
        return term_to_json(e)
    return [e[0]] + [
        [ast_to_json(p) for p in f] if kind is _EXPRS
        else ast_to_json(f) if kind in (_EXPR, _BODY)
        else f
        for kind, f in zip(kinds, e[1:])
    ]


# field kind -> (whether a JSON value is a well-formed field, the error's wording)
_LEAF_FIELDS = {
    _NAME: (lambda x: isinstance(x, str) and x != "", "bad name"),
    _INDEX: (lambda x: type(x) is int, "bad projection index"),
    _ORDER: (lambda x: x in ("sc", "na"), "ordering must be sc or na, got"),
}


def ast_from_json(doc, path: str = "program"):
    """The expression that ``doc`` encodes. ``path`` locates ``doc`` in its
    file: a malformed node raises :class:`UsageError` naming its path."""
    if not isinstance(doc, list) or not doc or not isinstance(doc[0], str):
        raise UsageError(f"{path}: bad program node: {doc!r}")
    tag = doc[0]
    if tag in _SCALARS:
        try:
            return term_from_json(doc)
        except EncodingError as exc:
            raise UsageError(f"{path}: {exc}") from exc
    kinds = _FORMS.get(tag)
    if kinds is None:
        raise UsageError(f"{path}: unknown program tag {tag!r}")
    if len(doc) != len(kinds) + 1:
        raise UsageError(f"{path}: bad arity for {tag}: {doc!r}")
    return (tag,) + tuple(
        _field_from_json(kind, f, f"{path}[{i}]")
        for i, (kind, f) in enumerate(zip(kinds, doc[1:]), 1)
    )


def _field_from_json(kind: str, doc, path: str):
    if kind is _EXPRS:
        if not isinstance(doc, list):
            raise UsageError(f"{path}: bad expression list {doc!r}")
        return tuple(ast_from_json(x, f"{path}[{j}]") for j, x in enumerate(doc))
    if kind in (_EXPR, _BODY):
        return ast_from_json(doc, path)
    ok, wording = _LEAF_FIELDS[kind]
    if not ok(doc):
        raise UsageError(f"{path}: {wording} {doc!r}")
    return doc
