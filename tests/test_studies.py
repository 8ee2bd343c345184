"""Case studies: scenario builders, ghost scripts, the sequential oracle,
and negative controls on the scripts themselves."""

import hashlib
import json
import re
from types import SimpleNamespace

import pytest

from guardcheck.demos import load_demo_document
from guardcheck.explore import (
    RESOLVERS, ResolveCtx, ScriptEntry, check_property, explore, initial_state, replay,
)
from guardcheck.formats import dumps, result_to_json, scenario_from_json, scenario_to_json
from guardcheck.ghost import (
    ExchangeAction,
    GhostLedger,
    GhostViolation,
    InstanceState,
    OpenGuardAction,
)
from guardcheck.library import HashFunctionSpec, build_rwlock, build_rwlock_multi, ex
from guardcheck.studies import (
    HashTableScenarioParams,
    RwLockScenarioParams,
    build_abort_scenario,
    build_hashtable_scenario,
    build_race_scenario,
    build_rwlock_scenario,
    explorer_outcomes,
    sequential_oracle,
)
from guardcheck.resolvers import decode_results, ghost_to_opt, opt_to_ghost
from guardcheck.library import NONE, some
from guardcheck.terms import UNIT, tcon, tint, tsym, ttuple


A, B = tint(0), tint(1)
V10, V11 = tint(10), tint(11)


class TestOracles:
    def test_single_update_single_query(self):
        out = sequential_oracle([[("update", A, V10)], [("query", A)]])
        assert out == {
            (((), (NONE,)), ((A, V10),)),
            (((), (some(V10),)), ((A, V10),)),
        }

    def test_empty_ops(self):
        assert sequential_oracle([[], []]) == {(((), ()), ())}

    def test_two_updates_last_writer_wins(self):
        out = sequential_oracle([[("update", A, V10)], [("update", A, V11)]])
        maps = {m for _, m in out}
        assert maps == {((A, V10),), ((A, V11),)}

    def test_interleaving_count_three_ops(self):
        # 2+1 ops -> 3 interleavings, 2 distinct outcomes
        out = sequential_oracle([[("update", A, V10), ("update", B, V11)], [("query", A)]])
        assert len(out) == 2


class TestOptionCoding:
    def test_roundtrip(self):
        for t in (NONE, some(ttuple(A, V10))):
            assert opt_to_ghost(ghost_to_opt(t)) == t

    def test_decode_results(self):
        v = ttuple(tcon("inl", UNIT), ttuple(tcon("inr", V10), UNIT))
        assert decode_results(v) == (NONE, some(V10))

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_results(tint(3))
        with pytest.raises(ValueError):
            opt_to_ghost(tint(3))


class TestRwLockScenario:
    def test_two_writers_increment_serializes(self):
        s = build_rwlock_scenario(
            RwLockScenarioParams(writers=(("incr", 1), ("incr", 1)), readers=())
        )
        r = explore(s)
        assert r.ok and r.stuck_count == 0
        cells = {dict(t.cells)["cell"] for t in r.terminal_summaries}
        assert cells == {tint(2)}

    def test_writer_reader_values(self):
        s = build_rwlock_scenario(
            RwLockScenarioParams(writers=(("write", 7),), readers=(0,))
        )
        r = explore(s)
        assert r.ok
        observed = {t.thread_values[1] for t in r.terminal_summaries}
        assert observed <= {tint(0), tint(7)}
        assert len(observed) == 2  # both orders are reachable

    def test_modes_agree_on_safe_scenario(self):
        s = build_rwlock_scenario(
            RwLockScenarioParams(writers=(("incr", 1),), readers=(0,))
        )
        rule = explore(s, mode="rule")
        conc = explore(s, mode="concrete")
        assert rule.ok and conc.ok
        assert rule.terminal_summaries == conc.terminal_summaries
        assert rule.states == conc.states

    def test_violation_replay_reproduces(self):
        # sabotage the script: the writer deposits without the release rule
        s = build_rwlock_scenario(
            RwLockScenarioParams(writers=(("incr", 1),), readers=())
        )
        bad_script = dict(s.script)
        bad_script["t0.exc_check0"] = [
            ScriptEntry(
                "t0.exc_check0",
                "rw.exc-release",
                (("cell", "cell"), ("instance", "lock")),
                when_result=tint(0),
            )
        ]
        bad = s.replace(script=bad_script)
        r = explore(bad)
        assert not r.ok and r.violations
        v = next(v for v in r.violations if v.kind == "ghost")
        entries = replay(bad, v.schedule)
        assert entries[-1].kind == "next"  # the machine step succeeded...
        # ...and the very same schedule produced the recorded ghost violation
        assert v.schedule[-1] == entries[-1].tid

    def test_unlocked_variant_races(self):
        r = explore(build_race_scenario(readers=2, writers=1))
        assert r.ok and r.stuck_count >= 1

    @pytest.mark.parametrize("counters, rc_cells, detail", [
        (1, ("rc0", "cell"), "lock: 2 counter cells for 1 counters"),
        (2, ("rc0",), "lock: 1 counter cells for 2 counters"),
    ])
    def test_fields_match_heap_counts_the_counter_cells(self, counters, rc_cells, detail):
        s = build_rwlock_scenario(RwLockScenarioParams(counters=counters, writers=(("incr", 1),)))
        prop = next(p for p in s.properties if p.kind == "rw-fields-match-heap")
        assert check_property(s, initial_state(s), prop) == (True, "")
        wrong = prop.replace(params=tuple(
            (k, rc_cells if k == "rc_cells" else v) for k, v in prop.params
        ))
        assert check_property(s, initial_state(s), wrong) == (False, detail)

    @pytest.mark.parametrize("writers, readers, message", [
        ((("wrte", 5),), (0,), "writer kind 'wrte' is neither 'incr' nor 'write'"),
        ((("incr", 1),), (1,), "reader counter index out of range"),
    ], ids=["writer-kind", "reader-index"])
    def test_params_reject_what_the_builder_cannot_build(self, writers, readers, message):
        with pytest.raises(ValueError, match=message):
            RwLockScenarioParams(writers=writers, readers=readers)

    def test_multi_counter_smoke(self):
        s = build_rwlock_scenario(
            RwLockScenarioParams(counters=2, writers=(("incr", 1),), readers=(1,))
        )
        r = explore(s)
        assert r.ok and r.stuck_count == 0


@pytest.fixture(scope="module")
def collide():
    hs = HashFunctionSpec(3, ((A, 0), (B, 0)))
    params = HashTableScenarioParams(
        hs,
        (V10, V11),
        ((("update", A, V10), ("update", B, V11)), (("query", A),)),
    )
    s = build_hashtable_scenario(params)
    return params, s, explore(s)


class TestHashTableScenario:

    def test_no_stuck_and_properties(self, collide):
        _, _, r = collide
        assert r.ok and r.stuck_count == 0 and not r.violations

    def test_outcomes_within_oracle(self, collide):
        params, s, r = collide
        exp = explorer_outcomes(s, r)
        orc = sequential_oracle(params.thread_ops)
        assert exp <= orc
        assert len(exp) == 2  # both query outcomes actually reachable

    def test_collision_probes_to_next_slot(self, collide):
        _, _, r = collide
        finals = {dict(t.cells)["slot1"] for t in r.terminal_summaries}
        assert finals == {ghost_to_opt(some(ttuple(B, V11)))}

    def test_single_thread_insert_then_query(self):
        hs = HashFunctionSpec(2, ((A, 0),))
        params = HashTableScenarioParams(
            hs, (V10,), ((("update", A, V10), ("query", A)),)
        )
        s = build_hashtable_scenario(params)
        r = explore(s)
        assert r.ok
        assert explorer_outcomes(s, r) == {(((some(V10),),), ((A, V10),))}

    def test_table_instance_may_have_any_id(self):
        # the shipped scenario with its table's id "ht" renamed: the
        # resolvers read their instance argument and the ht-* properties
        # default to the one table, so counts and verdicts stay the same
        doc = load_demo_document("hashtable-collide.scenario.json")
        renamed = json.loads(json.dumps(doc).replace('"ht"', '"tbl"'))
        assert renamed["protocols"][0]["id"] == "tbl"
        named = json.loads(json.dumps(renamed))
        for prop in named["properties"]:
            if prop["kind"].startswith("ht-"):
                prop["params"]["instance"] = "tbl"

        def report(document, mode):
            # the terminal summaries list stored contents by instance id
            got = result_to_json(explore(scenario_from_json(document), mode=mode))
            got = json.loads(json.dumps(got).replace('"ht"', '"tbl"'))
            for summary in got["terminal_summaries"]:
                summary["stored"].sort()
            return got

        for mode in ("rule", "concrete"):
            want = report(doc, mode)
            assert want["ok"] and want["states"] > 1
            assert report(renamed, mode) == want, mode
            assert report(named, mode) == want, mode
        on_a_lock = json.loads(json.dumps(named).replace('"instance": "tbl"}', '"instance": "lock0"}'))
        r = explore(scenario_from_json(on_a_lock), mode="rule")
        assert [(v.kind, v.detail) for v in r.violations] == [
            ("property", "evaluator error: instance 'lock0' is not a hash table")
        ] * 2

    def test_slot_cells_may_have_any_name(self):
        # the shipped scenario with its slot cells slot{i} renamed s{i}:
        # ht-slots-match-heap finds slot i's cell through meta.slot_cells,
        # so counts, verdicts and outcomes stay the same
        doc = load_demo_document("hashtable-collide.scenario.json")
        renamed = json.loads(re.sub(r'"slot(\d)"', r'"s\1"', json.dumps(doc)))
        assert renamed["meta"]["slot_cells"] == {"s0": 0, "s1": 1, "s2": 2}

        def report(document, mode):
            scenario = scenario_from_json(document)
            result = explore(scenario, mode=mode)
            got = json.loads(re.sub(r'"s(\d)"', r'"slot\1"', dumps(result_to_json(result))))
            return got, explorer_outcomes(scenario, result)

        for mode in ("rule", "concrete"):
            want, outcomes = report(doc, mode)
            assert want["ok"] and want["states"] > 1 and len(outcomes) == 2
            assert report(renamed, mode) == (want, outcomes), mode
        del renamed["meta"]["slot_cells"]["s1"]
        r = explore(scenario_from_json(renamed), mode="rule")
        assert [(v.kind, v.detail) for v in r.violations] == [
            ("property", "ht: slot 1 has no cell in meta.slot_cells")
        ]

    def test_update_requires_map_ownership(self):
        # two threads updating the same key is not a valid scenario
        hs = HashFunctionSpec(2, ((A, 0),))
        with pytest.raises(ValueError):
            HashTableScenarioParams(
                hs, (V10,), ((("update", A, V10),), (("update", A, V10),))
            ).updater_of(A)

    def test_abort_scenario_reaches_abort(self):
        r = explore(build_abort_scenario())
        assert r.ok
        assert {reason for reason, _ in r.stuck_examples} == {"abort"}


class TestScriptEnforcement:
    """Sabotaged scripts are the scenario-level negative controls: the
    engine must catch protocol misuse that the physical machine cannot."""

    def test_ht_update_without_lock_script_is_caught(self):
        hs = HashFunctionSpec(2, ((A, 0),))
        params = HashTableScenarioParams(hs, (V10,), ((("update", A, V10),),))
        s = build_hashtable_scenario(params)
        # drop the take-slot transfer: the thread then updates a slot
        # fragment it does not hold
        script = {
            lbl: [e for e in entries if e.resolver != "ht.take-slot"]
            for lbl, entries in s.script.items()
        }
        bad = s.replace(script=script)
        r = explore(bad)
        assert not r.ok
        assert any("missing-slot-fragment" in v.detail for v in r.violations)

    def test_reader_without_acquire_is_caught(self):
        s = build_rwlock_scenario(
            RwLockScenarioParams(writers=(), readers=(0,))
        )
        # drop the shared-acquire entry: the window then opens from a
        # pending token, which guards nothing
        script = {
            lbl: [e for e in entries if e.resolver != "rw.shared-acquire"]
            for lbl, entries in s.script.items()
        }
        bad = s.replace(script=script)
        r = explore(bad)
        assert not r.ok
        assert any(v.kind == "ghost" for v in r.violations)

    def test_double_release_is_caught(self):
        s = build_rwlock_scenario(
            RwLockScenarioParams(writers=(("incr", 1),), readers=())
        )
        extra = s.script["t0.exc_release"] * 2  # deposit fired twice
        script = dict(s.script)
        script["t0.exc_release"] = extra
        bad = s.replace(script=script)
        r = explore(bad)
        assert not r.ok
        assert any("missing-token" in v.detail or "rejected" in v.detail for v in r.violations)


class TestModeAgreement:
    def test_terminal_sets_agree_across_modes(self):
        scenarios = [
            build_rwlock_scenario(
                RwLockScenarioParams(writers=(("write", 7),), readers=(0,))
            ),
            build_rwlock_scenario(
                RwLockScenarioParams(counters=2, writers=(("incr", 1),), readers=(1,))
            ),
        ]
        for s in scenarios:
            rule = explore(s, mode="rule")
            conc = explore(s, mode="concrete")
            assert rule.ok and conc.ok
            assert rule.terminal_summaries == conc.terminal_summaries
            assert rule.states == conc.states


class TestMemoizationWithGhostState:
    def test_memo_on_off_agree_with_ledger_in_state(self):
        s = build_rwlock_scenario(
            RwLockScenarioParams(writers=(("incr", 1),), readers=())
        )
        on = explore(s, memo=True)
        off = explore(s, memo=False)
        assert on.ok and off.ok
        assert on.terminal_summaries == off.terminal_summaries
        assert on.violations == off.violations


# ---------------------------------------------------------------------------
# Reader-writer lock resolvers, called directly on hand-built ledgers


RW, RWE = build_rwlock()
RWM, RWME = build_rwlock_multi()
X0, X1 = tsym("x0"), tsym("x1")
REGION, ME = "region:lock", "thread:0"


def _compose(sp, *parts):
    out = sp.protocol.unit
    for p in parts:
        out = sp.protocol.compose_fn(out, p)
    return out


def _update(region, mine, note, **kw):
    return ExchangeAction("lock", ((REGION, region), (ME, mine)), note=note, **kw)


def _lock_cases():
    """(id, (sp, named), resolver, args, region, mine, cell, result, expected);
    ``expected`` is the action list or the violation's describe() text."""
    e, m = RWE, RWME
    c, cm = (lambda *p: _compose(RW, *p)), (lambda *p: _compose(RWM, *p))
    u, um = RW.protocol.unit, RWM.protocol.unit
    rw, rwm = (RW, RWE), (RWM, RWME)
    cases = []
    # missing-fields: the region holds no fields part
    for pfx, lock, unit, args in (("rw", rw, u, {}), ("rwm", rwm, um, {"counter": 0})):
        for step in ("exc-begin", "exc-acquire" if pfx == "rw" else "exc-progress",
                     "exc-release", "shared-begin", "shared-acquire", "shared-retry",
                     "shared-release"):
            cases.append((f"{pfx}.{step}-missing-fields", lock, f"{pfx}.{step}", args,
                          unit, unit, X1, None, "missing-fields [lock]"))
    cases += [
        # single lock: happy paths
        ("rw.exc-begin", rw, "rw.exc-begin", {}, e.fields(False, 1, X0), e.sh_pending(),
         None, None,
         [_update(e.fields(True, 1, X0), c(e.sh_pending(), e.exc_pending()),
                  "exclusive acquisition begins", kind="update")]),
        ("rw.exc-acquire", rw, "rw.exc-acquire", {}, e.fields(True, 0, X0), e.exc_pending(),
         None, None,
         [_update(e.fields(True, 0, X0), e.exc(), "exclusive lock acquired, content withdrawn",
                  withdrawn=ex(X0), kind="withdraw")]),
        ("rw.exc-release", rw, "rw.exc-release", {"cell": "cell"}, e.fields(True, 0, X0),
         e.exc(), X1, None,
         [_update(e.fields(False, 0, X1), u, "exclusive lock released, content deposited",
                  deposited=ex(X1), kind="deposit")]),
        ("rw.exc-release-option-cell", rw, "rw.exc-release", {"raw_cell": False},
         e.fields(True, 0, NONE), e.exc(), tcon("inr", X1), None,
         [_update(e.fields(False, 0, some(X1)), u,
                  "exclusive lock released, content deposited",
                  deposited=ex(some(X1)), kind="deposit")]),
        ("rw.shared-begin", rw, "rw.shared-begin", {}, e.fields(True, 1, X0), e.sh_pending(),
         None, None,
         [_update(e.fields(True, 2, X0), c(e.sh_pending(), e.sh_pending()),
                  "reader registered", kind="update")]),
        ("rw.shared-acquire", rw, "rw.shared-acquire", {}, e.fields(False, 1, X0),
         e.sh_pending(), None, None,
         [_update(e.fields(False, 1, X0), e.sh(X0), "shared lock acquired", kind="update")]),
        ("rw.shared-retry", rw, "rw.shared-retry", {}, e.fields(True, 2, X0),
         c(e.sh_pending(), e.sh_pending()), None, None,
         [_update(e.fields(True, 1, X0), e.sh_pending(), "reader backed out", kind="update")]),
        ("rw.shared-release", rw, "rw.shared-release", {}, e.fields(False, 1, X0), e.sh(X0),
         None, None,
         [_update(e.fields(False, 0, X0), u, "shared lock released", kind="update")]),
        ("rw.shared-release-one-of-two", rw, "rw.shared-release", {}, e.fields(False, 2, X0),
         c(e.sh(X0), e.sh(X0)), None, None,
         [_update(e.fields(False, 1, X0), e.sh(X0), "shared lock released", kind="update")]),
        ("rw.shared-read", rw, "rw.shared-read", {}, e.fields(False, 1, X0), e.sh(X0),
         None, X0, [OpenGuardAction("lock", ME, ex(X0), licenses="lbl")]),
        ("rw.shared-read-option-cell", rw, "rw.shared-read", {"raw_cell": False},
         e.fields(False, 1, some(X0)), e.sh(some(X0)), None, tcon("inr", X0),
         [OpenGuardAction("lock", ME, ex(some(X0)), licenses="lbl")]),
        # single lock: failures
        ("rw.exc-acquire-no-pending", rw, "rw.exc-acquire", {}, e.fields(True, 0, X0), u,
         None, None, "missing-token [lock]: no pending-exclusive token"),
        ("rw.exc-release-freed", rw, "rw.exc-release", {}, e.fields(True, 0, X0), e.exc(),
         None, None, "protected-cell-freed [lock]"),
        ("rw.exc-release-no-exc", rw, "rw.exc-release", {}, e.fields(True, 0, X0),
         e.exc_pending(), X1, None, "missing-token [lock]: no exclusive token held"),
        ("rw.shared-acquire-no-pending", rw, "rw.shared-acquire", {}, e.fields(False, 1, X0),
         u, None, None, "missing-token [lock]: no pending-reader token"),
        ("rw.shared-retry-no-pending", rw, "rw.shared-retry", {}, e.fields(True, 1, X0),
         e.sh(X0), None, None, "missing-token [lock]: no pending-reader token"),
        ("rw.shared-release-no-reader", rw, "rw.shared-release", {}, e.fields(False, 1, X0),
         e.sh_pending(), None, None, "missing-token [lock]: no reader token held"),
        ("rw.shared-read-no-reader", rw, "rw.shared-read", {}, e.fields(False, 1, X0),
         e.sh_pending(), None, X0, "missing-token [lock]: read outside a shared lock"),
        ("rw.shared-read-mismatch", rw, "rw.shared-read", {}, e.fields(False, 1, X0),
         e.sh(X0), None, X1, "reader-value-mismatch [lock]: read x1, lock agrees on x0"),
        # two-counter lock: happy paths
        ("rwm.exc-begin", rwm, "rwm.exc-begin", {}, m.fields(False, (0, 1), X0),
         m.sh_pending(0), None, None,
         [_update(m.fields(True, (0, 1), X0), cm(m.sh_pending(0), m.exc_pending(0)),
                  "exclusive acquisition begins", kind="update")]),
        ("rwm.exc-progress-first", rwm, "rwm.exc-progress", {"counter": 0},
         m.fields(True, (0, 0), X0), m.exc_pending(0), None, None,
         [_update(m.fields(True, (0, 0), X0), m.exc_pending(1), "counter 0 observed zero",
                  kind="update")]),
        ("rwm.exc-progress-last", rwm, "rwm.exc-progress", {"counter": 1},
         m.fields(True, (0, 0), X0), m.exc_pending(1), None, None,
         [_update(m.fields(True, (0, 0), X0), m.exc_pending(2), "counter 1 observed zero",
                  kind="update"),
          _update(m.fields(True, (0, 0), X0), m.exc(),
                  "all counters checked, content withdrawn", withdrawn=ex(X0),
                  kind="withdraw")]),
        ("rwm.exc-release", rwm, "rwm.exc-release", {"cell": "cell"},
         m.fields(True, (0, 0), X0), m.exc(), X1, None,
         [_update(m.fields(False, (0, 0), X1), um,
                  "exclusive lock released, content deposited", deposited=ex(X1),
                  kind="deposit")]),
        ("rwm.shared-begin", rwm, "rwm.shared-begin", {"counter": 1},
         m.fields(False, (1, 0), X0), um, None, None,
         [_update(m.fields(False, (1, 1), X0), m.sh_pending(1),
                  "reader registered on counter 1", kind="update")]),
        ("rwm.shared-acquire", rwm, "rwm.shared-acquire", {"counter": 1},
         m.fields(False, (0, 1), X0), m.sh_pending(1), None, None,
         [_update(m.fields(False, (0, 1), X0), m.sh(1, X0), "shared lock acquired",
                  kind="update")]),
        ("rwm.shared-retry", rwm, "rwm.shared-retry", {"counter": 0},
         m.fields(True, (1, 0), X0), m.sh_pending(0), None, None,
         [_update(m.fields(True, (0, 0), X0), um, "reader backed out", kind="update")]),
        ("rwm.shared-release", rwm, "rwm.shared-release", {"counter": 1},
         m.fields(False, (0, 1), X0), m.sh(1, X0), None, None,
         [_update(m.fields(False, (0, 0), X0), um, "shared lock released", kind="update")]),
        ("rwm.shared-release-one-of-two", rwm, "rwm.shared-release", {"counter": 0},
         m.fields(False, (1, 1), X0), cm(m.sh(0, X0), m.sh(1, X0)), None, None,
         [_update(m.fields(False, (0, 1), X0), m.sh(1, X0), "shared lock released",
                  kind="update")]),
        ("rwm.shared-read", rwm, "rwm.shared-read", {"counter": 0},
         m.fields(False, (1, 0), X0), m.sh(0, X0), None, X0,
         [OpenGuardAction("lock", ME, ex(X0), licenses="lbl")]),
        # two-counter lock: failures
        ("rwm.exc-progress-no-pending", rwm, "rwm.exc-progress", {"counter": 0},
         m.fields(True, (0, 0), X0), um, None, None,
         "missing-token [lock]: no pending-exclusive token"),
        ("rwm.exc-progress-wrong-counter", rwm, "rwm.exc-progress", {"counter": 1},
         m.fields(True, (0, 0), X0), m.exc_pending(0), None, None,
         "wrong-counter [lock]: checked counter 1, expected 0"),
        ("rwm.exc-release-freed", rwm, "rwm.exc-release", {}, m.fields(True, (0, 0), X0),
         m.exc(), None, None, "protected-cell-freed [lock]"),
        ("rwm.exc-release-no-exc", rwm, "rwm.exc-release", {}, m.fields(True, (0, 0), X0),
         m.exc_pending(2), X1, None, "missing-token [lock]: no exclusive token held"),
        ("rwm.shared-acquire-no-pending", rwm, "rwm.shared-acquire", {"counter": 1},
         m.fields(False, (1, 0), X0), m.sh_pending(0), None, None,
         "missing-token [lock]: no pending-reader token"),
        ("rwm.shared-retry-no-pending", rwm, "rwm.shared-retry", {"counter": 0},
         m.fields(True, (1, 0), X0), um, None, None,
         "missing-token [lock]: no pending-reader token"),
        ("rwm.shared-release-no-reader", rwm, "rwm.shared-release", {"counter": 0},
         m.fields(False, (1, 0), X0), m.sh_pending(0), None, None,
         "missing-token [lock]: no reader token held"),
        ("rwm.shared-release-other-counter", rwm, "rwm.shared-release", {"counter": 1},
         m.fields(False, (1, 0), X0), m.sh(0, X0), None, None,
         "missing-token [lock]: no reader token held"),
        ("rwm.shared-read-no-reader", rwm, "rwm.shared-read", {"counter": 0},
         m.fields(False, (1, 0), X0), m.sh_pending(0), None, X0,
         "missing-token [lock]: read outside a shared lock"),
        ("rwm.shared-read-mismatch", rwm, "rwm.shared-read", {"counter": 0},
         m.fields(False, (1, 0), X0), m.sh(0, X0), None, X1,
         "reader-value-mismatch [lock]: read x1, lock agrees on x0"),
    ]
    return cases


LOCK_CASES = _lock_cases()


@pytest.mark.parametrize("case", LOCK_CASES, ids=[case[0] for case in LOCK_CASES])
def test_lock_resolver_table(case):
    _, (sp, named), resolver, args, region, mine, cell, result, expected = case
    fragments = tuple(sorted((o, el) for o, el in ((REGION, region), (ME, mine))
                             if el != sp.protocol.unit))
    ledger = GhostLedger((("lock", InstanceState(fragments, UNIT)),))
    scenario = SimpleNamespace(
        protocols={"lock": sp}, named={"lock": named}, protected_cells={"lock": "cell"},
        cell_loc=lambda name: 0,
    )
    heap = (None if cell is None else (cell, ("w",)),)
    ctx = ResolveCtx(scenario, ledger, heap, 0, "lbl", result, None)
    entry = ScriptEntry("lbl", resolver, tuple(sorted({"instance": "lock", **args}.items())))
    got = RESOLVERS[resolver](ctx, entry)
    if isinstance(expected, str):
        assert isinstance(got, GhostViolation) and got.describe() == expected
    else:
        assert got == expected


# ---------------------------------------------------------------------------
# Builder output pinned byte for byte, for configurations no demo covers


def _pinned_hashtable():
    k0, k1, v = tint(0), tint(1), tint(10)
    return build_hashtable_scenario(HashTableScenarioParams(
        HashFunctionSpec(2, ((k0, 1), (k1, 0))),
        (v,),
        ((("query", k1), ("update", k0, v)), (("update", k1, v), ("query", k0))),
    ))


BUILDER_SHA256 = {
    "rwlock-two-incr": (
        lambda: build_rwlock_scenario(RwLockScenarioParams(
            writers=(("incr", 1), ("incr", 1)), readers=(), initial=7)),
        "c2312662a1d68a53cc7ab8a87c171d9647665498e149af84b116dcefd07be209",
    ),
    "rwlock-three-counters": (
        lambda: build_rwlock_scenario(RwLockScenarioParams(
            counters=3, writers=(("write", 5), ("incr", 2)), readers=(0, 2, 1))),
        "089fe7fdc9fd18237480afbac10e61bd32e8cbca9912075ac7649a1c5b3c767d",
    ),
    "rwlock-unlocked": (
        lambda: build_rwlock_scenario(RwLockScenarioParams(
            writers=(("write", 7), ("incr", 1)), readers=(0,), locked=False)),
        "d62fc474cf48c5d38969e4d7566c66dc6bf153cd5d437d647ccb6f89ec56f775",
    ),
    "race-two-readers": (
        lambda: build_race_scenario(2, 1),
        "cc0814f59a85c02e6e1cd815e516718f082d686c3006717dc2cb6c7cf60e5983",
    ),
    "hashtable-two-threads": (
        _pinned_hashtable,
        "5fe49f9612cc35ff6dff99beab72dfc04b3963aff29aba0a6bd02c1f1f0ecccc",
    ),
    "abort": (
        build_abort_scenario,
        "5b31489fdad21d43db1e768be8895af86b04f81f497b24296b3f14a0eea98086",
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDER_SHA256))
def test_builder_output_pinned(name):
    build, digest = BUILDER_SHA256[name]
    text = dumps(scenario_to_json(build()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
