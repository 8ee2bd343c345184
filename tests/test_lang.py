"""Small-step semantics: head reductions, the two-step non-atomic
operations, race-to-stuck behavior, and determinism."""

import importlib

import pytest
from hypothesis import given, settings, strategies as st

from guardcheck.lang import (
    MachineConfig,
    UsageError,
    abort,
    add,
    app,
    ast_from_json,
    ast_to_json,
    cas,
    do_until,
    enabled_threads,
    eq,
    fetch_add,
    fork,
    free,
    inl,
    if_,
    index_chain,
    initial_config,
    label,
    let,
    load,
    loc,
    match,
    pair,
    proj,
    rec,
    ref,
    seq,
    step,
    store,
    subst,
    var,
)
from guardcheck.explore import Scenario, TransitionMemo
from guardcheck.lang import _FORMS, StepOutcome
from guardcheck.terms import UNIT, tbool, tcon, tfrac, tint, tsym

explore_mod = importlib.import_module("guardcheck.explore")


def run_to_end(cfg, tid=0, limit=500):
    for _ in range(limit):
        if cfg.threads[tid][0] != "run":
            return cfg
        out = step(cfg, tid)
        assert out.kind != "stuck", out.reason
        cfg = out.config
    raise AssertionError("did not finish")


def run_single(prog, cells=(), limit=500):
    cfg = run_to_end(initial_config(list(cells), [prog]), limit=limit)
    return cfg.threads[0][1], cfg


def first_stuck(prog, cells=()):
    cfg = initial_config(list(cells), [prog])
    for _ in range(500):
        if not enabled_threads(cfg):
            raise AssertionError("finished without getting stuck")
        out = step(cfg, 0)
        if out.kind == "stuck":
            return out.reason
        cfg = out.config
    raise AssertionError("never got stuck")


class TestPureReductions:
    def test_arithmetic_and_let(self):
        v, _ = run_single(let("x", add(tint(2), tint(3)), add(var("x"), tint(1))))
        assert v == tint(6)

    def test_recursion(self):
        # sum 0..3 via rec
        f = rec(
            "f",
            "n",
            if_(eq(var("n"), tint(0)), tint(0), add(var("n"), app(var("f"), add(var("n"), tint(-1))))),
        )
        v, _ = run_single(app(f, tint(3)))
        assert v == tint(6)

    def test_pairs_and_projections(self):
        v, _ = run_single(proj(2, pair(tint(1), tint(2))))
        assert v == tint(2)

    def test_match_on_sums(self):
        prog = match(tcon("inr", tint(5)), "l", tint(0), "r", add(var("r"), tint(1)))
        v, _ = run_single(prog)
        assert v == tint(6)

    def test_sequencing_discards(self):
        v, _ = run_single(seq(tint(1), tint(2)))
        assert v == tint(2)

    def test_capture_avoiding_shadowing(self):
        # inner binder shadows: substitution must not descend
        prog = let("x", tint(1), let("x", tint(2), var("x")))
        v, _ = run_single(prog)
        assert v == tint(2)
        body = let("x", var("y"), var("x"))
        assert subst(body, "x", tint(9)) == body


class TestHeapOps:
    def test_ref_allocates_at_cursor(self):
        cfg = initial_config([tint(0)], [ref(tint(7))])
        out = step(cfg, 0)
        assert out.event.op == "ref" and out.event.loc == 1
        assert out.config.cursor == 2

    def test_cas_success_and_failure(self):
        v, cfg = run_single(cas(loc(0), tint(0), tint(9)), cells=[tint(0)])
        assert v == tbool(True) and cfg.heap[0][1] == tint(9)
        v, cfg = run_single(cas(loc(0), tint(1), tint(9)), cells=[tint(0)])
        assert v == tbool(False) and cfg.heap[0][1] == tint(0)

    def test_fetch_add_returns_old(self):
        v, cfg = run_single(fetch_add(loc(0), tint(5)), cells=[tint(2)])
        assert v == tint(2) and cfg.heap[0][1] == tint(7)

    def test_fetch_add_negative(self):
        v, cfg = run_single(fetch_add(loc(0), tint(-1)), cells=[tint(2)])
        assert cfg.heap[0][1] == tint(1)

    def test_free_then_use(self):
        assert first_stuck(seq(free(loc(0)), load("sc", loc(0))), cells=[tint(0)]) == "use-after-free"

    def test_free_absent(self):
        assert first_stuck(free(loc(3)), cells=[tint(0)]) == "free-absent"

    def test_double_free(self):
        assert first_stuck(seq(free(loc(0)), free(loc(0))), cells=[tint(0)]) == "use-after-free"

    def test_never_allocated_is_absent_not_freed(self):
        # a location is freed only if it lies in [0, cursor) and is not in
        # the heap; a negative one or one at or above the cursor never was
        for l in (-1, 1, 2):
            assert first_stuck(load("sc", loc(l)), cells=[tint(0)]) == "load-absent"
            assert first_stuck(free(loc(l)), cells=[tint(0)]) == "free-absent"

    def test_boolean_cell(self):
        v, _ = run_single(load("sc", loc(0)), cells=[tbool(True)])
        assert v == tbool(True)

    def test_fields_evaluate_left_to_right(self):
        bump = fetch_add(loc(0), tint(1))
        v, _ = run_single(pair(bump, bump), cells=[tint(0)])
        assert v == pair(tint(0), tint(1))
        v, _ = run_single(eq(bump, load("sc", loc(0))), cells=[tint(0)])
        assert v == tbool(False)


class TestNonAtomic:
    def test_na_read_two_steps_and_counts(self):
        cfg = initial_config([tint(4)], [load("na", loc(0))])
        out = step(cfg, 0)
        assert out.config.heap[0][2] == ("r", 1)  # begin bumps the count
        out2 = step(out.config, 0)
        assert out2.config.heap[0][2] == ("r", 0)
        assert out2.config.threads[0] == ("done", tint(4))

    def test_na_write_goes_through_writing(self):
        cfg = initial_config([tint(0)], [store("na", loc(0), tint(8))])
        out = step(cfg, 0)
        assert out.config.heap[0][2] == ("w",)
        out2 = step(out.config, 0)
        assert out2.config.heap[0] == (0, tint(8), ("r", 0))

    def test_na_roundtrip_matches_sc_on_race_free_program(self):
        for ordering in ("na", "sc"):
            v, cfg = run_single(load(ordering, loc(0)), cells=[tint(3)])
            assert v == tint(3)
            assert cfg.heap[0] == (0, tint(3), ("r", 0))

    def test_sc_read_allowed_during_na_read(self):
        cfg = initial_config([tint(1)], [load("na", loc(0)), load("sc", loc(0))])
        mid = step(cfg, 0).config
        out = step(mid, 1)
        assert out.kind == "next"

    def test_race_table(self):
        races = [
            # (first op, second op, stuck reason of the second)
            (load("na", loc(0)), store("na", loc(0), tint(1)), "race-na-write"),
            (load("na", loc(0)), store("sc", loc(0), tint(1)), "race-sc-write"),
            (load("na", loc(0)), cas(loc(0), tint(0), tint(1)), "race-cas"),
            (load("na", loc(0)), fetch_add(loc(0), tint(1)), "race-faa"),
            (store("na", loc(0), tint(1)), load("na", loc(0)), "race-na-read"),
            (store("na", loc(0), tint(1)), load("sc", loc(0)), "race-sc-read"),
            (load("na", loc(0)), free(loc(0)), "free-race"),
        ]
        for first, second, reason in races:
            cfg = initial_config([tint(0)], [first, second])
            mid = step(cfg, 0).config  # first op begins
            out = step(mid, 1)
            assert out.kind == "stuck" and out.reason == reason, (first, second)

    def test_reading_count_conservation(self):
        # two overlapping na reads: counts go 0 -> 1 -> 2 -> 1 -> 0
        cfg = initial_config([tint(0)], [load("na", loc(0)), load("na", loc(0))])
        counts = [cfg.heap[0][2][1]]
        for tid in (0, 1, 0, 1):
            cfg = step(cfg, tid).config
            counts.append(cfg.heap[0][2][1])
        assert counts == [0, 1, 2, 1, 0]


class TestStuckReasons:
    def test_abort(self):
        assert first_stuck(abort()) == "abort"

    def test_type_errors(self):
        assert first_stuck(proj(1, tint(1))) == "type-proj"
        assert first_stuck(app(tint(1), tint(2))) == "type-app"
        assert first_stuck(if_(tint(1), tint(2), tint(3))) == "type-if"
        assert first_stuck(add(tbool(True), tint(1))) == "type-add"
        assert first_stuck(match(tint(3), "l", UNIT, "r", UNIT)) == "type-match"

    def test_overflow_traps(self):
        big = tint(2**62)
        assert first_stuck(add(add(big, big), add(big, big))) == "overflow"


class TestThreading:
    def test_fork_spawns(self):
        cfg = initial_config([tint(0)], [seq(fork(store("sc", loc(0), tint(1))), tint(2))])
        out = step(cfg, 0)
        assert len(out.config.threads) == 2
        assert enabled_threads(out.config) == [0, 1]

    def test_enabled_excludes_done_and_stuck(self):
        cfg = initial_config([tint(0)], [tint(1), abort(), store("sc", loc(0), tint(2))])
        assert enabled_threads(cfg) == [1, 2]  # thread 0 starts as a value
        out = step(cfg, 1)
        assert enabled_threads(out.config) == [2]

    def test_step_usage_errors(self):
        cfg = initial_config([], [tint(1)])
        with pytest.raises(UsageError):
            step(cfg, 5)
        with pytest.raises(UsageError):
            step(cfg, 0)  # thread is done, not running

    def test_done_outcome_for_value_thread(self):
        cfg = MachineConfig((), (("run", tint(3)),), 0)
        out = step(cfg, 0)
        assert out.kind == "done" and out.value == tint(3)


class TestDeterminism:
    def test_step_is_a_function(self):
        prog = do_until(fetch_add(loc(0), tint(1)), "r", eq(var("r"), tint(2)))
        cfg = initial_config([tint(0)], [prog])
        a = step(cfg, 0)
        b = step(cfg, 0)
        assert a == b

    def test_config_changes_after_step(self):
        prog = store("sc", loc(0), tint(5))
        cfg = initial_config([tint(0)], [prog])
        out = step(cfg, 0)
        assert out.config != cfg


class TestLabels:
    def test_label_fires_on_completion_with_result(self):
        cfg = initial_config([tint(2)], [label("a", fetch_add(loc(0), tint(1)))])
        out = step(cfg, 0)
        assert out.fired == (("a", tint(2)),)

    def test_na_label_fires_on_second_step(self):
        cfg = initial_config([tint(2)], [label("a", load("na", loc(0)))])
        out = step(cfg, 0)
        assert out.fired == ()
        out2 = step(out.config, 0)
        assert out2.fired == (("a", tint(2)),)


class TestSugar:
    def test_index_chain(self):
        prog = app(
            rec("f", "i", index_chain(var("i"), [tint(10), tint(11), tint(12)], abort())),
            tint(2),
        )
        v, _ = run_single(prog)
        assert v == tint(12)

    def test_index_chain_fallback(self):
        prog = index_chain(tint(5), [tint(10)], abort())
        assert first_stuck(prog) == "abort"

    def test_do_until_runs_body_at_least_once(self):
        prog = do_until(fetch_add(loc(0), tint(1)), "r", tbool(True))
        v, cfg = run_single(prog, cells=[tint(0)])
        assert cfg.heap[0][1] == tint(1)


def program_forms(inner):
    """Program form tag -> a strategy for that form over subexpressions
    drawn from ``inner``. The closures bind ``y``, which no generated
    expression reads, so every closure ignores its argument and closed
    programs terminate."""
    two, three = st.tuples(inner, inner), st.tuples(inner, inner, inner)
    orderings = st.sampled_from(["sc", "na"])
    return {
        "var": st.just(var("x")),
        "rec": inner.map(lambda e: rec("f", "y", e)),
        "app": two.map(lambda p: app(*p)),
        "let": two.map(lambda p: let("x", *p)),
        "seq": two.map(lambda p: seq(*p)),
        "proj": st.tuples(st.integers(0, 3), inner).map(lambda p: proj(*p)),
        "match": three.map(lambda t: match(t[0], "x", t[1], "y", t[2])),
        "if": three.map(lambda t: if_(*t)),
        "fork": inner.map(fork),
        "add": two.map(lambda p: add(*p)),
        "eq": two.map(lambda p: eq(*p)),
        "abort": st.just(abort()),
        "ref": inner.map(ref),
        "free": inner.map(free),
        "load": st.tuples(orderings, inner).map(lambda p: load(*p)),
        "store": st.tuples(orderings, inner, inner).map(lambda t: store(*t)),
        "cas": three.map(lambda t: cas(*t)),
        "faa": two.map(lambda p: fetch_add(*p)),
        "label": inner.map(lambda e: label("l", e)),
        "tuple": two.map(lambda p: pair(*p)),
        "con": inner.map(inl),
    }


def programs():
    leaves = st.one_of(
        st.integers(-5, 5).map(tint),
        st.booleans().map(tbool),
        st.just(UNIT),
        st.sampled_from(["a", "b"]).map(tsym),
        st.tuples(st.integers(-3, 3), st.integers(1, 4)).map(lambda p: tfrac(*p)),
        st.just(var("x")),
    )
    return st.recursive(
        leaves, lambda inner: st.one_of(*program_forms(inner).values()), max_leaves=10
    )


def test_programs_cover_every_form():
    assert set(program_forms(st.nothing())) == set(_FORMS)


@given(programs())
@settings(max_examples=200)
def test_prop_ast_json_roundtrip(prog):
    assert ast_from_json(ast_to_json(prog)) == prog


@given(programs())
@settings(max_examples=200)
def test_prop_closed_programs_terminate_or_stick(prog):
    closed = subst(prog, "x", tint(0))
    cfg = initial_config([], [closed])
    for _ in range(200):
        if cfg.threads[0][0] != "run":
            break
        out = step(cfg, 0)
        cfg = out.config
        if out.kind == "stuck":
            break
    assert cfg.threads[0][0] in ("done", "stuck")


def test_scalar_leaves_use_the_term_encoding():
    assert ast_from_json(["frac", 2, 4]) == tfrac(1, 2)
    assert ast_to_json(ast_from_json(["sym", "a"])) == ["sym", "a"]


def test_projection_index_is_not_range_checked():
    prog = ast_from_json(["proj", 3, ["tuple", [["int", 1], ["int", 2]]]])
    assert first_stuck(prog) == "type-proj"


@pytest.mark.parametrize("doc, message", [
    (["var", 3], "t[1]: bad name 3"),
    (["rec", "f", "", ["unit"]], "t[2]: bad name ''"),
    (["proj", True, ["unit"]], "t[1]: bad projection index True"),
    (["load", "na2", ["unit"]], "t[1]: ordering must be sc or na, got 'na2'"),
    (["con", "inl", ["unit"]], "t[2][0]: bad program node: 'unit'"),
    (["tuple", [["unit"], ["int", 1.5]]], "t[1][1]: int term needs a plain int, got 1.5"),
    (["let", "x", ["unit"]], "t: bad arity for let: ['let', 'x', ['unit']]"),
    (["int", 1, 2], "t: bad arity for int: ['int', 1, 2]"),
    (["map", []], "t: unknown program tag 'map'"),
])
def test_malformed_node_names_its_path(doc, message):
    with pytest.raises(UsageError) as exc:
        ast_from_json(doc, "t")
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# The explorer's step memo: a step that reads the heap or cursor is
# memoised on the numbers of (expression, heap, cursor), one that reads
# neither on the expression's number

R0, R1, W = ("r", 0), ("r", 1), ("w",)


def cells(*entries):
    return tuple((l, tint(v), rw) for l, v, rw in entries)


# heap-reading expressions, each with two stores (heap, cursor) under
# which it steps differently; a fault is named for the first store's
FIRST, SECOND = (cells((0, 1, R0)), 1), (cells((0, 2, R0), (1, 7, R0)), 2)
HEAP_READS = {
    "load-sc": (load("sc", loc(0)), FIRST, SECOND),
    "load-na": (load("na", loc(0)), FIRST, (cells((0, 1, R1)), 1)),
    "load-na2": (("load", "na2", loc(0)), (cells((0, 1, R1)), 1), (cells((0, 2, ("r", 2))), 1)),
    "store-sc": (store("sc", loc(0), tint(5)), FIRST, SECOND),
    "store-na": (store("na", loc(0), tint(5)), FIRST, SECOND),
    "store-na2": (("store", "na2", loc(0), tint(5)), (cells((0, 1, W)), 1),
                  (cells((0, 1, W), (1, 7, R0)), 2)),
    "cas": (cas(loc(0), tint(1), tint(5)), FIRST, SECOND),
    "faa": (fetch_add(loc(0), tint(1)), FIRST, SECOND),
    "ref": (ref(tint(5)), FIRST, SECOND),
    "free": (free(loc(0)), FIRST, SECOND),
    "use-after-free": (load("sc", loc(1)), (cells((0, 1, R0)), 2), SECOND),
    "load-absent": (load("sc", loc(1)), FIRST, SECOND),
    "free-absent": (free(loc(1)), FIRST, SECOND),
    "free-race": (free(loc(0)), (cells((0, 1, R1)), 1), FIRST),
    "race-sc-write": (store("sc", loc(0), tint(5)), (cells((0, 1, R1)), 1), FIRST),
}

# heap-free redexes, and stuck steps that the expression alone decides
HEAP_FREE = {
    "app": app(rec("f", "x", var("x")), tint(1)),
    "let": let("x", tint(1), var("x")),
    "match": match(inl(tint(1)), "l", var("l"), "r", tint(0)),
    "if": if_(tbool(True), tint(1), tint(2)),
    "proj": proj(1, pair(tint(1), tint(2))),
    "add": add(tint(1), tint(2)),
    "eq": eq(tint(1), tint(2)),
    "fork": fork(add(tint(1), tint(2))),
    "label": label("l", add(tint(1), tint(2))),
    "type-if": if_(tint(1), tint(1), tint(2)),
    "overflow": add(tint(1 << 62), tint(1 << 62)),
    "abort": abort(),
}


def at(store_, e):
    heap, cursor = store_
    return MachineConfig(heap, (("run", e),), cursor)


def memo_for_steps():
    return TransitionMemo(Scenario("steps", (), (), {}, {}), "rule")


def numbered_step(memo, store_, e):
    """The step of ``e`` at ``store_`` through ``memo``'s step memo, put
    back together as the StepOutcome that lang.step gives."""
    items = memo.items
    heap, cursor = store_
    kind, mine, spawned, after, fired, event = memo.step(
        memo.number(("run", e)), memo.number(heap), cursor)
    if after is not None:
        heap, cursor = items[after[0]], after[1]
    config = MachineConfig(heap, tuple(items[n] for n in (mine, *spawned)), cursor)
    if kind == "stuck":
        return StepOutcome("stuck", config, reason=items[mine][1])
    return StepOutcome(kind, config, fired=fired, event=event)


@pytest.mark.parametrize("name", sorted(HEAP_READS))
def test_heap_reading_step_is_memoised_per_store(name):
    e, *stores = HEAP_READS[name]
    memo = memo_for_steps()
    got = [numbered_step(memo, s, e) for s in stores]
    want = [step(at(s, e), 0) for s in stores]
    assert got == want and want[0] != want[1]
    assert [numbered_step(memo, s, e) for s in stores] == want  # now from the memo
    if want[0].kind == "stuck":
        assert want[0].reason == name


@pytest.mark.parametrize("name", sorted(HEAP_FREE))
def test_heap_free_step_is_memoised_on_the_expression(name, monkeypatch):
    e = HEAP_FREE[name]
    want = step(at(SECOND, e), 0)
    memo = memo_for_steps()
    numbered_step(memo, FIRST, e)

    def recompute(*args):
        raise AssertionError("heap-free step run again for another heap")

    monkeypatch.setattr(explore_mod, "thread_step", recompute)
    got = numbered_step(memo, SECOND, e)
    assert got == want
    assert (got.config.heap, got.config.cursor) == SECOND
