"""JSON schemas: combinator loading, custom protocols, queries, scenario
round-trips, and report stability."""

import json

import pytest

from guardcheck.cli import main
from guardcheck.explore import Scenario, explore
from guardcheck.formats import (
    FormatError,
    dumps,
    element_from_json,
    load_monoid,
    load_protocol,
    load_queries,
    result_to_json,
    scenario_from_json,
    scenario_to_json,
)
from guardcheck.library import HashFunctionSpec
from guardcheck.monoid import carrier, check_pcm_laws
from guardcheck.protocol import check_wellformed, guard_holds
from guardcheck.studies import (
    HashTableScenarioParams,
    RwLockScenarioParams,
    build_abort_scenario,
    build_hashtable_scenario,
    build_race_scenario,
    build_rwlock_scenario,
)
from guardcheck.terms import UNIT, tfrac, tint, tmap


class TestMonoidLoading:
    def test_excl(self):
        spec = load_monoid({"kind": "excl", "values": [["int", 0], ["int", 1]]})
        assert len(carrier(spec)) == 4

    def test_agn_and_agnvec(self):
        spec = load_monoid({"kind": "agn", "values": [["sym", "a"]], "max_count": 2})
        assert check_pcm_laws(spec).ok
        spec = load_monoid(
            {"kind": "agnvec", "values": [["sym", "a"]], "k": 2, "max_count": 1}
        )
        assert check_pcm_laws(spec).ok

    def test_numeric_kinds(self):
        assert len(carrier(load_monoid({"kind": "nat", "limit": 3}))) == 4
        assert len(carrier(load_monoid({"kind": "int", "lo": -1, "hi": 1}))) == 3
        frac = load_monoid({"kind": "frac", "den_bound": 2, "max_value": 1})
        assert tfrac(1, 2) in carrier(frac)

    def test_product_and_finmap(self):
        doc = {
            "kind": "product",
            "parts": [{"kind": "nat", "limit": 1}, {"kind": "excl", "values": [["int", 0]]}],
        }
        spec = load_monoid(doc)
        assert check_pcm_laws(spec).ok
        fm = load_monoid(
            {"kind": "finmap", "keys": [["sym", "a"]], "value": {"kind": "nat", "limit": 2}}
        )
        assert tmap(()) == fm.unit

    def test_table_monoid(self):
        u, x = ["unit"], ["sym", "x"]
        doc = {
            "kind": "table",
            "elements": [u, x],
            "unit": u,
            "compose": [[u, u, u], [u, x, x], [x, x, x]],
        }
        spec = load_monoid(doc)
        assert check_pcm_laws(spec).ok

    def test_errors(self):
        with pytest.raises(FormatError):
            load_monoid({"kind": "martian"})
        with pytest.raises(FormatError):
            load_monoid({"kind": "excl"})
        with pytest.raises(FormatError):
            load_monoid([1, 2, 3])


# the one-item forever pattern written out longhand
CUSTOM_FOREVER = {
    "name": "custom-forever",
    "protocol": {"kind": "trivial"},
    "storage": {"kind": "excl", "values": [["int", 1]]},
    "complete": {"table": [["unit"]]},
    "stored_of": {"table": [[["unit"], ["con", "ex", [["int", 1]]]]]},
}


class TestProtocolLoading:
    def test_builtins(self):
        for doc in (
            {"builtin": "fractional"},
            {"builtin": "counting"},
            {"builtin": "forever"},
            {"builtin": "rwlock", "params": {"values": [["sym", "a"], ["sym", "b"]]}},
            {
                "builtin": "hashtable",
                "params": {
                    "length": 2,
                    "hash": [[["int", 0], 0]],
                    "values": [["int", 5]],
                },
            },
        ):
            sp, _ = load_protocol(doc)
            assert check_wellformed(sp).ok, doc

    def test_fractional_memory_reads_its_bounds(self):
        keys = [["sym", "a"]]
        default, _ = load_protocol({"builtin": "fractional-memory", "params": {"keys": keys}})
        small, _ = load_protocol({"builtin": "fractional-memory", "params": {
            "keys": keys, "den_bound": 1, "max_value": 1, "nat_limit": 1}})
        assert len(carrier(small.protocol)) < len(carrier(default.protocol))
        assert len(carrier(small.storage)) < len(carrier(default.storage))

    def test_unknown_builtin(self):
        with pytest.raises(FormatError):
            load_protocol({"builtin": "alchemy"})

    def test_custom_protocol_tables(self):
        sp, _ = load_protocol(CUSTOM_FOREVER)
        assert check_wellformed(sp).ok
        assert guard_holds(sp, UNIT, ("con", "ex", (tint(1),))).ok

    def test_custom_protocol_missing_stored(self):
        doc = {
            "protocol": {"kind": "trivial"},
            "storage": {"kind": "excl", "values": [["int", 1]]},
            "complete": {"table": [["unit"]]},
            "stored_of": {"table": []},
        }
        with pytest.raises(FormatError):
            load_protocol(doc)


class TestElements:
    def test_named_and_compose(self):
        sp, named = load_protocol(
            {"builtin": "rwlock", "params": {"values": [["sym", "a"]]}}
        )
        el = element_from_json(
            ["compose", [["named", "fields", [["bool", False], ["int", 0], ["sym", "a"]]],
                         ["named", "shPending", []]]],
            named,
            sp.protocol,
        )
        assert not sp.complete(el)  # rc=0 but one pending reader

    def test_named_requires_constructors(self):
        with pytest.raises(FormatError):
            element_from_json(["named", "fields", []], None)

    def test_queries_loading(self):
        doc = {
            "queries": [
                {"kind": "guard", "p": ["frac", 1, 2], "s": ["int", 1], "expect": "holds"},
                {"kind": "valid-fragment", "p": ["frac", 1, 2]},
            ]
        }
        qs = load_queries(doc, None)
        assert qs[0]["p"] == tfrac(1, 2) and qs[1]["expect"] == "holds"
        with pytest.raises(FormatError):
            load_queries({"queries": [{"kind": "guard", "expect": "maybe", "p": ["unit"], "s": ["unit"]}]}, None)
        with pytest.raises(FormatError):
            load_queries({"queries": [{"kind": "zap"}]}, None)


def _small_hashtable():
    a, b = tint(0), tint(1)
    return build_hashtable_scenario(
        HashTableScenarioParams(
            HashFunctionSpec(2, ((a, 0), (b, 0))),
            (tint(10),),
            ((("update", a, tint(10)),), (("query", a),)),
        )
    )


# one small scenario from each case-study builder
CASE_STUDIES = {
    "rwlock-exc": lambda: build_rwlock_scenario(
        RwLockScenarioParams(writers=(("incr", 1), ("incr", 1)))
    ),
    "rwlock-shared": lambda: build_rwlock_scenario(
        RwLockScenarioParams(writers=(("incr", 1),), readers=(0,))
    ),
    "rwlock-multi": lambda: build_rwlock_scenario(
        RwLockScenarioParams(counters=2, writers=(("write", 5),), readers=(1,))
    ),
    "race": build_race_scenario,
    "hashtable": _small_hashtable,
    "abort": build_abort_scenario,
}


class TestScenarioRoundtrip:
    @pytest.mark.parametrize("name", sorted(CASE_STUDIES))
    def test_report_identical_after_roundtrip(self, name):
        s = CASE_STUDIES[name]()
        doc = json.loads(json.dumps(scenario_to_json(s)))
        s2 = scenario_from_json(doc)
        assert s2.meta.get("thread_ops", ()) == s.meta.get("thread_ops", ())
        if name == "hashtable":
            # the slot locks have one descriptor, so they share one protocol
            for built in (s, s2):
                assert built.protocols["lock0"] is built.protocols["lock1"]
        r1 = dumps(result_to_json(explore(s)))
        r2 = dumps(result_to_json(explore(s2)))
        assert r1 == r2

    @pytest.mark.parametrize("name", sorted(CASE_STUDIES))
    def test_each_case_study_keeps_the_document_it_was_read_from(self, name):
        s = CASE_STUDIES[name]()
        assert s.document is not None
        assert scenario_to_json(s) == s.document

    def test_a_scenario_not_read_from_a_document_cannot_be_written(self):
        replaced = CASE_STUDIES["rwlock-exc"]().replace(name="copy")
        hand_built = Scenario("hand-built", (), (), {}, {})
        for s in (replaced, hand_built):
            assert s.document is None
            with pytest.raises(FormatError, match="was not read from a document"):
                scenario_to_json(s)

    def test_the_written_document_is_a_copy(self):
        s = CASE_STUDIES["rwlock-exc"]()
        doc = scenario_to_json(s)
        before = dumps(doc)
        doc["name"] = "changed"
        doc["cells"][0][1] = ["int", 5]
        doc["protocols"][0]["params"]["values"].append(["int", 9])
        doc["meta"]["lock_slot"]["lock"] = 0
        assert dumps(scenario_to_json(s)) == before

    def test_each_slot_lock_of_a_written_table_is_edited_alone(self):
        doc = scenario_to_json(_small_hashtable())
        assert [p["id"] for p in doc["protocols"]] == ["ht", "lock0", "lock1"]
        doc["protocols"][1]["params"]["sp_max"] = 3
        assert doc["protocols"][2]["params"]["sp_max"] == 2

    def test_dumps_sorted_and_stable(self):
        d1 = dumps({"b": 1, "a": [2, 3]})
        d2 = dumps({"a": [2, 3], "b": 1})
        assert d1 == d2
        assert d1.index('"a"') < d1.index('"b"')


class TestHandWrittenScenario:
    """A scenario document authored by hand (no builder), driving the
    generic literal ghost resolvers."""

    DOC = {
        "name": "hand-written",
        "cells": [["c", ["int", 5]]],
        "threads": [
            ["seq", ["label", "take", ["load", "sc", ["con", "loc", [["int", 0]]]]],
             ["label", "give", ["int", 0]]]
        ],
        "protocols": [
            {
                "id": "shares",
                "builtin": "fractional",
                "params": {"den_bound": 4, "max_value": 2, "nat_limit": 4},
                "fragments": [["thread:0", ["frac", 1, 1]]],
            }
        ],
        "script": [
            {
                "label": "take",
                "resolver": "ghost.exchange",
                "args": {
                    "instance": "shares",
                    "updates": {"list": [{"list": ["self", {"term": ["frac", 0, 1]}]}]},
                    "withdrawn": {"term": ["int", 1]},
                    "kind": "withdraw",
                },
            },
            {
                "label": "give",
                "resolver": "ghost.exchange",
                "args": {
                    "instance": "shares",
                    "updates": {"list": [{"list": ["self", {"term": ["frac", 1, 1]}]}]},
                    "deposited": {"term": ["int", 1]},
                    "kind": "deposit",
                },
            },
        ],
        "properties": [{"name": "ledger", "kind": "ghost-invariant", "params": {}}],
        "expectation": "no-stuck",
    }

    def test_runs_clean(self):
        s = scenario_from_json(self.DOC)
        r = explore(s)
        assert r.ok and not r.violations
        assert [t for _, t in r.terminal_summaries[0].stored] == [tint(1)]

    def test_withdraw_twice_is_a_ghost_violation(self):
        doc = json.loads(json.dumps(self.DOC))
        doc["script"][1] = dict(doc["script"][0], label="give")
        s = scenario_from_json(doc)
        r = explore(s)
        assert not r.ok
        assert any("rejected" in v.detail for v in r.violations)

    @pytest.mark.parametrize("mode", ["rule", "concrete"])
    @pytest.mark.parametrize("entry, kind, detail", [
        (0, "update", "update fixes both storage sides to ε"),
        (1, "withdraw", "withdraw fixes s = ε"),
    ], ids=["take-as-update", "give-as-withdraw"])
    def test_kind_fixing_a_side_the_entry_sets_is_a_replay_violation(
        self, tmp_path, capsys, mode, entry, kind, detail
    ):
        # the take step withdraws and the give step deposits, so these
        # kinds contradict them; both modes name the step's label
        doc = json.loads(json.dumps(self.DOC))
        doc["script"][entry]["args"]["kind"] = kind
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["explore", str(path), "--mode", mode, "--format", "json"]) == 1
        violations = json.loads(capsys.readouterr().out)["violations"]
        label = doc["script"][entry]["label"]
        assert [(v["kind"], v["name"], v["detail"]) for v in violations] == [
            ("replay", label, detail)
        ]

    def test_custom_protocol_instance(self):
        # a protocol entry's descriptor is the entry without its id and
        # fragments, so it may be a custom protocol
        doc = {
            "name": "custom-instance",
            "cells": [["c", ["int", 1]]],
            "threads": [["label", "look", ["load", "sc", ["con", "loc", [["int", 0]]]]]],
            "protocols": [{"id": "item", **CUSTOM_FOREVER, "fragments": []}],
            "script": [{
                "label": "look",
                "resolver": "ghost.open-guard",
                "args": {"instance": "item", "owner": "self",
                         "element": {"term": ["con", "ex", [["int", 1]]]}},
            }],
            "properties": [{"name": "ledger", "kind": "ghost-invariant", "params": {}}],
        }
        r = explore(scenario_from_json(doc))
        assert r.ok and not r.violations and not r.warnings
        again = json.loads(json.dumps(scenario_to_json(scenario_from_json(doc))))
        assert again["protocols"] == doc["protocols"]
        assert dumps(result_to_json(explore(scenario_from_json(again)))) == dumps(
            result_to_json(r)
        )

    def test_transfer_and_guard_elements_default_to_unit(self):
        # a transfer's element and remainder, and a guard's element, left
        # out are the unit: the thread's whole fragment moves to the pool,
        # and the guard on ε always holds
        doc = json.loads(json.dumps(self.DOC))
        doc["script"] = [
            {"label": "take", "resolver": "ghost.transfer",
             "args": {"instance": "shares", "from": "self", "to": "pool",
                      "element": {"term": ["frac", 1, 1]}}},
            {"label": "give", "resolver": "ghost.open-guard", "args": {"instance": "shares"}},
        ]
        r = explore(scenario_from_json(doc))
        assert r.ok and not r.violations and not r.warnings
        doc["script"][0]["args"]["element"] = {"term": ["frac", 1, 2]}
        r = explore(scenario_from_json(doc))
        assert [v.detail for v in r.violations] == [
            "transfer-mismatch [shares]: 0 · 1/2 is not the sender's fragment (witness 1)"
        ]

    def test_open_guard_literal(self):
        doc = json.loads(json.dumps(self.DOC))
        doc["protocols"][0] = {
            "id": "shares",
            "builtin": "fractional",
            "params": {"den_bound": 4, "max_value": 2, "nat_limit": 4},
            "fragments": [["thread:0", ["frac", 1, 2]], ["region:other", ["frac", 1, 2]]],
        }
        doc["script"] = [
            {
                "label": "take",
                "resolver": "ghost.open-guard",
                "args": {"instance": "shares", "owner": "self", "element": {"term": ["int", 1]}},
            }
        ]
        s = scenario_from_json(doc)
        r = explore(s)
        assert r.ok, [v.describe() for v in r.violations]
