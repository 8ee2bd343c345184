"""CLI: exit codes, output determinism, and the demo registry."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import guardcheck
from guardcheck.cli import main
from guardcheck.demos import DEMOS, demo_documents, demo_path
from guardcheck.explore import Violation, explore
from guardcheck.formats import FormatError, dumps, scenario_from_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def frac_files(tmp_path):
    protocol = tmp_path / "frac.json"
    protocol.write_text(json.dumps({"builtin": "fractional"}))
    relations = tmp_path / "relations.json"
    relations.write_text(
        json.dumps(
            {
                "queries": [
                    {"kind": "guard", "p": ["frac", 1, 3], "s": ["int", 1], "expect": "holds"}
                ]
            }
        )
    )
    return str(protocol), str(relations)


def test_check_pass(frac_files, capsys):
    code, out, _ = run(capsys, "check", *frac_files)
    assert code == 0 and "PASS" in out


def test_check_wellformedness_only(frac_files, tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"queries": []}))
    code, out, _ = run(capsys, "check", frac_files[0], str(empty))
    assert code == 0


def test_check_verdict_mismatch_exits_1(frac_files, tmp_path, capsys):
    # an empty share guards nothing, so expecting holds must mismatch
    relations = tmp_path / "bad.json"
    relations.write_text(
        json.dumps(
            {"queries": [{"kind": "guard", "p": ["frac", 0, 1], "s": ["int", 1], "expect": "holds"}]}
        )
    )
    code, out, _ = run(capsys, "check", frac_files[0], str(relations))
    assert code == 1
    assert "witness" in out


def test_corrupt_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2 and "input error" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/file.json")
    assert code == 2


def test_schema_error_exits_2(tmp_path, capsys):
    doc = tmp_path / "m.json"
    doc.write_text(json.dumps({"builtin": "alchemy"}))
    code, _, err = run(capsys, "check", str(doc))
    assert code == 2


def test_explore_scenario_file(tmp_path, capsys):
    doc = demo_documents()["rwlock-exc"]["rwlock-exc.scenario.json"]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "explore", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["stuck_count"] == 0


def test_explore_bound_exceeded_exits_3(tmp_path, capsys):
    doc = demo_documents()["rwlock-exc"]["rwlock-exc.scenario.json"]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "explore", str(path), "--max-states", "5")
    assert code == 3


@pytest.mark.parametrize("option, value", [("--max-steps", "-1"), ("--max-states", "-5")])
def test_negative_bound_option_exits_2(capsys, option, value):
    # read as a scenario document reads its max_steps_per_thread and max_states
    code, out, err = run(capsys, "demo", "rwlock-exc", option, value)
    assert (code, out) == (2, "")
    assert err == f"input error: {option}: must be a non-negative integer, got {value}\n"


def test_demo_unknown_exits_2(capsys):
    code, _, err = run(capsys, "demo", "unknown-name")
    assert code == 2 and "available" in err


def test_demo_registry_complete():
    assert set(DEMOS) == {
        "rwlock-exc",
        "rwlock-shared",
        "rwlock-multi",
        "hashtable-collide",
        "race-negative",
        "protocol-frac",
        "protocol-count",
        "protocol-rwlock",
    }


def test_checked_in_demo_files_match_builders():
    # byte for byte, so that on a clean tree python -m guardcheck.demos
    # rewrites nothing
    for name, files in demo_documents().items():
        for fname, doc in files.items():
            on_disk = demo_path(fname).read_text()
            assert on_disk == dumps(doc), f"{fname} is stale; run python -m guardcheck.demos"


def test_demo_check_runs(capsys):
    code, out, _ = run(capsys, "demo", "protocol-count", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["queries"]


def test_demo_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "demo", "protocol-frac", "--format", "json")
    code2, out2, _ = run(capsys, "demo", "protocol-frac", "--format", "json")
    assert (code1, out1) == (code2, out2)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_is_check_or_explore_on_its_packaged_files(capsys, name, fmt):
    # a demo prints the bytes and exits with the code of `check` or
    # `explore` on its packaged files, in each admission mode
    if DEMOS[name]["kind"] == "check":
        command, parts, modes = "check", ("protocol", "relations"), [[]]
    else:
        command, parts = "explore", ("scenario",)
        modes = [["--mode", mode] for mode in ("rule", "concrete")]
    files = [str(demo_path(f"{name}.{part}.json")) for part in parts]
    for mode in modes:
        demo = run(capsys, "demo", name, "--format", fmt, *mode)
        assert demo == run(capsys, command, *files, "--format", fmt, *mode)


# sha256 of each check demo's report, in each output format, pinned so
# that a refactor which changes a verdict, witness or frame count fails here
CHECK_DEMO_SHA256 = {
    "protocol-count": {
        "json": "3e2a5a64aae874d342c8f3d2bb749fbb8c0a0c758f02cc0c4b20863032f06383",
        "text": "fcdf6ef33a611c4e1fc825cf0ea0d57f7d33c3ea3152b096c7dfc46aa79747b1",
    },
    "protocol-frac": {
        "json": "0cf7ef7d3fb297d8df368e1212f856ef3478134e074d3b18aae0da9ecd685434",
        "text": "354f845e37fafe6fa1b98992655644fd12553525cc3b9f4b58c7a415022cfb56",
    },
    "protocol-rwlock": {
        "json": "0235895d6b2e9045b0f4add3b5de11a0a7e8319d50f52b851da58e883a04aff3",
        "text": "20cd015f842a1a20a2a871e84580ab7408f5a48944bf2455213a9a4a27a7e3b2",
    },
}


@pytest.mark.parametrize("name", sorted(CHECK_DEMO_SHA256))
def test_check_demo_report_bytes_pinned(capsys, name):
    for fmt, pinned in CHECK_DEMO_SHA256[name].items():
        code, out, _ = run(capsys, "demo", name, "--format", fmt)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == pinned, f"demo {name} --format {fmt}: report changed"


# sha256 of each scenario demo's report, in each admission mode and
# output format, pinned so that a change to the explorer which moves a
# count, schedule or report byte fails here
SCENARIO_DEMO_SHA256 = {
    ("hashtable-collide", "concrete", "json"):
        "34695cb93ebf32726b82014dbcc45ddc768ca5521ba41b9be0d0b062b26dadc3",
    ("hashtable-collide", "concrete", "text"):
        "eded816dec2798424834df342d5db35f496acb1003e3ba193e49688d368ff4a1",
    ("hashtable-collide", "rule", "json"):
        "a3da2cece42cdc9e9544ae851feb60d3c85144cf32f66f7571cce51914559b58",
    ("hashtable-collide", "rule", "text"):
        "cbdeca01708431323cb0be54a948058d47eca20ab582831fe87494074b5adec4",
    ("race-negative", "concrete", "json"):
        "7d50d4e592d094ef0540b1538097f1aa329059dd7d232ee894fcf2a3b047e171",
    ("race-negative", "concrete", "text"):
        "79e226caa2ffc1ce0ac580f366b7217d25fbc245c007293a50b2580b762b9036",
    ("race-negative", "rule", "json"):
        "0a7e34bd17d78969441aaa85647861de76d8f45f45a05a6bfa37d2ded6959dbd",
    ("race-negative", "rule", "text"):
        "cc59d7d7d0e0adf422f2fd943e2e80bcd93ec22dac1a483b7c1c5b080308cd7b",
    ("rwlock-exc", "concrete", "json"):
        "ca340b84d0d68f3e53b6337b49db656b851905bd864653ddf0f330c894feef9b",
    ("rwlock-exc", "concrete", "text"):
        "ff48811702701f610e41194e1a208e4c70d2cef9716c9b18f90214a94827e494",
    ("rwlock-exc", "rule", "json"):
        "85aa7ebbd30648803bbddb36b13bc3d331b21ae0f5a55bf6835751b6e3f193af",
    ("rwlock-exc", "rule", "text"):
        "f97d18e9dca125944e74486ee437fa9bc9dd2c89c61218de56d915544c0d3072",
    ("rwlock-multi", "concrete", "json"):
        "7e04274e7dd08d7dcc7e118b437704151c8bc655f60631b1efea0a09039ab2c5",
    ("rwlock-multi", "concrete", "text"):
        "4043c17e4c669b938bdbcc323531b538745c295d29d0544aae43e246c8798cd9",
    ("rwlock-multi", "rule", "json"):
        "4b0a5b9ed8a3930372b9c649f76ad62f57fdbbbd86b19669c40c26e91b2112f1",
    ("rwlock-multi", "rule", "text"):
        "09a6a0988808dafd68ce465a61184c5d20328ba10ac1886014cc53e457a66cbc",
    ("rwlock-shared", "concrete", "json"):
        "9ab286d62eec4d3b1ddb23e05047ecaa85c22739d1609e77e69e7242872dcd4f",
    ("rwlock-shared", "concrete", "text"):
        "70e60f0d2b302831fbf59db8d43dec0a2db21439d05cdc4fb32ddcdca1673a00",
    ("rwlock-shared", "rule", "json"):
        "7f053d83dccd6e30a71d7117e71c350bdc696e23adea64c874ed353e10993a4b",
    ("rwlock-shared", "rule", "text"):
        "bb9a8dc473446e2ec9deefef5fd5288366b8301394ca41e0f991427a25f75bec",
}


@pytest.mark.parametrize("name, mode, fmt", sorted(SCENARIO_DEMO_SHA256))
def test_scenario_demo_report_bytes_pinned(capsys, name, mode, fmt):
    code, out, _ = run(capsys, "demo", name, "--mode", mode, "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    want = SCENARIO_DEMO_SHA256[name, mode, fmt]
    assert digest == want, f"demo {name} --mode {mode} --format {fmt}: report changed"


def test_quiet_suppresses_output(capsys):
    code, out, _ = run(capsys, "demo", "protocol-frac", "--quiet")
    assert code == 0 and out == ""


def test_report_rendering(tmp_path, capsys):
    code, out, _ = run(capsys, "demo", "protocol-frac", "--format", "json")
    path = tmp_path / "report.json"
    path.write_text(out)
    code, text, _ = run(capsys, "report", str(path))
    assert code == 0 and "PASS" in text


@pytest.mark.parametrize("doc, message", [
    ([1], "input error: report: must be an object, got list"),
    ({"scenario": "x"}, "input error: mode: missing"),
])
def test_report_of_a_file_that_is_no_report_exits_2(tmp_path, doc, message):
    assert_input_error(tmp_path, doc, [], message, command="report")


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit):
        main(["check", "--martian"])


def test_race_negative_demo(capsys):
    code, out, _ = run(capsys, "demo", "race-negative", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["stuck_count"] >= 1 and report["ok"]


# builtins with named elements
COUNTING = {"builtin": "counting", "params": {"r_range": [-1, 1], "c_max": 1}}
RWLOCK = {
    "builtin": "rwlock",
    "params": {"values": [["sym", "x0"]], "rc_range": [0, 1], "sp_max": 1, "agn_max": 1},
}
# elements outside the carrier they belong to, each with the JSON path
# that the error names: a compose part, p, and a tuple of the wrong length
NOT_IN_CARRIER = {
    "compose-part": ({
        "kind": "update", "p": ["compose", [["int", 1], ["unit"]]], "p_after": ["unit"]
    }, "queries[0].p[1][0]"),
    "guard-p": ({"kind": "guard", "p": ["int", 1], "s": ["unit"]}, "queries[0].p"),
    "short-tuple": ({"kind": "valid-fragment", "p": ["tuple", [["unit"]]]}, "queries[0].p"),
}
# named constructors given the wrong number or kind of args: each extra
# arg was once dropped, the single lock's sh would take the multi lock's
# form, and an arg's payload was read whatever its tag
BAD_NAMED_ARGS = {
    "exc-arity": (RWLOCK, ["named", "exc", [["int", 5]]]),
    "excPending-arity": (RWLOCK, ["named", "excPending", [["int", 0]]]),
    "shPending-arity": (RWLOCK, ["named", "shPending", [["int", 0]]]),
    "sh-arity": (RWLOCK, ["named", "sh", [["int", 0], ["sym", "x0"]]]),
    "ref-arity": (COUNTING, ["named", "ref", [["int", 0]]]),
    "fields-int-flag": (RWLOCK, ["named", "fields", [["int", 0], ["int", 0], ["sym", "x0"]]]),
    "fields-frac-counter": (
        RWLOCK, ["named", "fields", [["bool", False], ["frac", 1, 2], ["sym", "x0"]]]
    ),
    "counter-frac": (COUNTING, ["named", "counter", [["frac", 1, 2]]]),
}


@pytest.mark.parametrize(
    "protocol_doc, relations, at",
    [
        (COUNTING, {"queries": ["guard"]}, "queries[0]"),
        (COUNTING, {"queries": {"kind": "guard"}}, "queries"),
        (COUNTING, {"queries": [{"kind": "guard", "p": ["no-such-tag"], "s": ["unit"]}]},
         "queries[0].p"),
        (COUNTING, {"queries": [{"kind": "update", "p": ["named", "ref", []]}]},
         "queries[0].p_after"),
        (COUNTING, {"queries": [{"kind": "guard", "p": ["named"], "s": ["int", 1]}]},
         "queries[0].p"),
    ]
    + [
        (doc, {"queries": [query]}, at)
        for doc in (COUNTING, RWLOCK)
        for query, at in NOT_IN_CARRIER.values()
    ]
    + [
        (doc, {"queries": [{"kind": "valid-fragment", "p": p}]}, "queries[0].p")
        for doc, p in BAD_NAMED_ARGS.values()
    ]
    + [
        ({"builtin": "fractional"},
         {"queries": [{"kind": "guard", "p": ["map", [[["int", 1]]]], "s": ["int", 1]}]},
         "queries[0].p"),
        ({"builtin": "fractional"},
         {"queries": [{"kind": "deposit", "p": ["frac", 0, 1], "s": ["int", 1],
                       "p_after": ["frac", 1, 1], "s_after": ["int", 1]}]},
         "queries[0].s_after"),
        ({"builtin": "fractional"},
         {"queries": [{"kind": "guard", "p": ["named", "x", []], "s": ["int", 1]}]},
         "queries[0].p[1]"),
    ],
    ids=["query-not-object", "queries-not-list", "bad-term", "missing-field", "bare-named"]
    + [f"{name}-{case}" for name in ("counting", "rwlock") for case in NOT_IN_CARRIER]
    + [f"named-{name}" for name in BAD_NAMED_ARGS]
    + ["map-entry-not-a-pair", "field-not-read", "named-without-constructors"],
)
def test_malformed_relations_exit_2_without_traceback(tmp_path, protocol_doc, relations, at):
    # the error names the JSON path of the failing node
    path = tmp_path / "relations.json"
    path.write_text(json.dumps(relations))
    assert_input_error(tmp_path, protocol_doc, [str(path)], f"input error: {at}: ")


def run_process(*argv):
    """`guardcheck ARGV` in a fresh interpreter."""
    src = str(Path(guardcheck.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", "import sys; from guardcheck.cli import main; sys.exit(main())",
         *argv],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )


def assert_input_error(tmp_path, doc, args, message, command="check"):
    """`guardcheck COMMAND` on ``doc`` (by default `check` on a protocol)
    exits 2 with ``message`` and no traceback."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    proc = run_process(command, str(path), *args)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(message), proc.stderr


def _table_protocol(rows):
    """A custom protocol whose protocol monoid holds a table over ε and 1."""
    table = {"kind": "table", "elements": [["unit"], ["int", 1]], "unit": ["unit"],
             "compose": rows}
    return {
        "protocol": {"kind": "product", "total": True,
                     "parts": [{"kind": "excl", "values": [["int", 0]]}, table]},
        "storage": {"kind": "trivial"},
        "complete": {"table": [["tuple", [["unit"], ["unit"]]]]},
        "stored_of": {"table": [[["tuple", [["unit"], ["unit"]]], ["unit"]]]},
    }


U, ONE, TWO = ["unit"], ["int", 1], ["int", 2]


def _trivial_protocol(complete, stored_of):
    """A custom protocol over the trivial monoids with the given tables."""
    return {"protocol": {"kind": "trivial"}, "storage": {"kind": "trivial"},
            "complete": complete, "stored_of": stored_of}


def shipped_scenario(name):
    return json.loads(demo_path(f"{name}.scenario.json").read_text())


def edited_scenario(path, value, name="rwlock-exc"):
    """The shipped scenario ``name`` with ``value`` set at ``path``, a
    list of keys and indices."""
    doc = shipped_scenario(name)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# malformed scenario fields: (path, value, message after "input error: "),
# and the shipped scenario to edit if not rwlock-exc
MALFORMED_SCENARIO = {
    "scenario-cell-term": (["cells", 0, 1], ["nope"], "cells[0][1]: unknown term tag 'nope'"),
    "scenario-fragment-term": (["protocols", 0, "fragments", 0, 1], ["nope"],
                               "protocols[0].fragments[0][1]: unknown term tag 'nope'"),
    "scenario-when-term": (["script", 0, "when"], ["nope"],
                           "script[0].when: unknown term tag 'nope'"),
    # a resolver that declares no args reads them as any encoded values
    "scenario-arg-term": (["script", 0], {"label": "t0.exc_begin", "resolver": "custom.step",
                                          "args": {"x": {"list": [{"term": ["nope"]}]}}},
                          "script[0].args.x.list[0].term: unknown term tag 'nope'"),
    "scenario-param-term": (["terminal_properties", 1, "params", "value"], {"term": "x"},
                            "terminal_properties[1].params.value.term: bad term document: 'x'"),
    "scenario-thread-op-term": (["meta", "thread_ops"], [[["query", "x"]]],
                                "meta.thread_ops[0][0][1]: bad term document: 'x'"),
    "scenario-unknown-param": (["protocols", 0, "params", "sp_mx"], 3,
                               "protocols[0].params.sp_mx: unknown parameter"),
    "scenario-raw-list-arg": (
        ["script", 0], {"label": "t0.exc_begin", "resolver": "custom.step",
                        "args": {"x": ["int", 1]}},
        'script[0].args.x: write a list as {"list": [...]} and a term as {"term": T}',
    ),
    "scenario-unknown-field": (["expectaton"], "stuck-reachable", "expectaton: unknown field"),
    "scenario-thread-node": (["threads", 0], [["bogus"]], "threads[0]: bad program node"),
    "scenario-max-steps": (["max_steps_per_thread"], "x",
                           "max_steps_per_thread: must be a non-negative integer, got 'x'"),
    "scenario-thread-float-int": (["threads", 0], ["add", ["int", 1.5], ["int", 1]],
                                  "threads[0][1]: int term needs a plain int, got 1.5"),
    "scenario-thread-var-name": (["threads", 0], ["var", 3], "threads[0][1]: bad name 3"),
    "scenario-thread-proj-index": (["threads", 0], ["proj", "x", ["int", 1]],
                                   "threads[0][1]: bad projection index 'x'"),
    "scenario-thread-label-name": (["threads", 0], ["label", 7, ["int", 1]],
                                   "threads[0][1]: bad name 7"),
    "scenario-thread-sym": (["threads", 0], ["sym", 5],
                            "threads[0]: symbol needs a nonempty string, got 5"),
    "scenario-thread-bool-int": (["threads", 0], ["int", True],
                                 "threads[0]: int term needs a plain int, got True"),
    "scenario-thread-zero-den": (["threads", 0], ["frac", 1, 0],
                                 "threads[0]: fraction with zero denominator"),
    "scenario-thread-nested": (["threads", 0, 1], ["tuple", [["unit"], ["var", 3]]],
                               "threads[0][1][1][1][1]: bad name 3"),
    "scenario-cell-int-arity": (["cells", 0, 1], ["int", 1, 2],
                                "cells[0][1]: bad arity for int: ['int', 1, 2]"),
    "scenario-fragment-unit-arity": (["protocols", 0, "fragments", 0, 1], ["unit", 5],
                                     "protocols[0].fragments[0][1]: bad arity for unit: ['unit', 5]"),
    "scenario-when-con-arity": (["script", 0, "when"], ["con", "x", [], 1],
                                "script[0].when: bad arity for con: ['con', 'x', [], 1]"),
    "scenario-cell-bool-payload": (["cells", 0, 1], ["bool", "yes"],
                                   "cells[0][1]: bool term needs true or false, got 'yes'"),
    "scenario-expectation": (["expectation"], "bogus",
                             "expectation: must be no-stuck or stuck-reachable, got 'bogus'"),
    "scenario-duplicate-cell": (["cells", 2, 0], "exc", "cells[2][0]: duplicate cell name 'exc'"),
    "scenario-duplicate-property": (
        ["terminal_properties", 0, "name"], "ghost-invariant",
        "terminal_properties[0].name: duplicate property name 'ghost-invariant'",
    ),
    "scenario-cell-not-pair": (["cells", 0], 5, "cells[0]: a cell is [name, term], got 5"),
    "scenario-fragment-not-pair": (
        ["protocols", 0, "fragments", 0], 5,
        "protocols[0].fragments[0]: a fragment is [owner, element], got 5",
    ),
    "scenario-script-entry": (["script", 0], 5, "script[0]: must be an object, got int"),
    "scenario-property": (["properties", 0], 5, "properties[0]: must be an object, got int"),
    "scenario-terminal-property": (["terminal_properties", 0], 5,
                                   "terminal_properties[0]: must be an object, got int"),
    "scenario-thread-ops": (["meta", "thread_ops"], 5, "meta.thread_ops: must be a list, got int"),
    "scenario-thread-op-arity": (
        ["meta", "thread_ops"], [[["query"]]],
        'meta.thread_ops[0][0]: an operation is ["update", key, value] or ["query", key], '
        "got ['query']",
    ),
    "scenario-args-not-object": (["script", 0, "args"], [],
                                 "script[0].args: must be an object, got list"),
    "scenario-meta": (["meta"], 5, "meta: must be an object, got int"),
    "scenario-cell-instances": (["cell_instances"], [], "cell_instances: must be an object, got list"),
    # names are strings
    "scenario-name": (["name"], 5, "name: must be a string, got int"),
    "scenario-cell-name": (["cells", 2, 0], ["x"], "cells[2][0]: must be a string, got list"),
    "scenario-label": (["script", 0, "label"], ["x"], "script[0].label: must be a string, got list"),
    "scenario-resolver": (["script", 0, "resolver"], {},
                          "script[0].resolver: must be a string, got dict"),
    "scenario-property-name": (["properties", 0, "name"], ["x"],
                               "properties[0].name: must be a string, got list"),
    "scenario-property-kind": (["properties", 0, "kind"], 7,
                               "properties[0].kind: must be a string, got int"),
    "scenario-protocol-id": (["protocols", 0, "id"], 7, "protocols[0].id: must be a string, got int"),
    "scenario-fragment-owner": (["protocols", 0, "fragments", 0, 0], ["x"],
                                "protocols[0].fragments[0][0]: must be a string, got list"),
    # a missing field, an unknown builtin, names its path
    "scenario-script-missing-label": (["script", 0], {}, "script[0].label: missing"),
    "scenario-protocol-missing-id": (["protocols", 0], {"builtin": "rwlock"},
                                     "protocols[0].id: missing"),
    "scenario-unknown-builtin": (["protocols", 0, "builtin"], "zzz",
                                 "protocols[0].builtin: unknown builtin protocol 'zzz'"),
    # a protocol that cannot be built names its entry
    "scenario-builtin-not-built": (
        ["protocols", 1], {"id": "lock0", "builtin": "fractional-memory",
                           "params": {"keys": [ONE, ONE]}},
        "protocols[1]: bad builtin protocol fractional-memory: duplicate key 1",
        "hashtable-collide",
    ),
    "scenario-stored-of-short": (
        ["protocols", 1], {"id": "lock0", **_trivial_protocol({"table": [U]}, {"table": []})},
        "protocols[1].stored_of: table missing 1 complete elements", "hashtable-collide",
    ),
    # fields of the wrong kind
    "scenario-negate": (["script", 0, "negate"], "yes",
                        "script[0].negate: must be true or false, got 'yes'"),
    "scenario-cell-instance": (["cell_instances", "exc"], 5,
                               "cell_instances.exc: must be a string, got int"),
    "scenario-protected-cell": (["protected_cells", "lock"], ["cell"],
                                "protected_cells.lock: must be a string, got list"),
    "scenario-lock-slot": (["meta", "lock_slot"], {"lock": "zzz"},
                           "meta.lock_slot.lock: must be a non-negative integer, got 'zzz'"),
    "scenario-slot-cells": (["meta", "slot_cells"], {"cell": -1},
                            "meta.slot_cells.cell: must be a non-negative integer, got -1"),
    # meta's keys name declared cells and instances
    "scenario-slot-cells-cell": (["meta", "slot_cells"], {"nope": 0},
                                 "meta.slot_cells.nope: unknown cell 'nope'"),
    "scenario-lock-slot-instance": (["meta", "lock_slot"], {"lockX": 0},
                                    "meta.lock_slot.lockX: unknown protocol instance 'lockX'"),
    # meta's values are slots of the scenario's one hash table, each named once
    "scenario-lock-slot-range": (["meta", "lock_slot", "lock2"], 7,
                                 "meta.lock_slot.lock2: slot 7 out of range [0, 3)",
                                 "hashtable-collide"),
    "scenario-lock-slot-twice": (["meta", "lock_slot", "lock1"], 0,
                                 "meta.lock_slot.lock1: slot 0 is also named by 'lock0'",
                                 "hashtable-collide"),
    "scenario-slot-cells-twice": (["meta", "slot_cells", "slot1"], 0,
                                  "meta.slot_cells.slot1: slot 0 is also named by 'slot0'",
                                  "hashtable-collide"),
    "scenario-slot-cells-range": (["meta", "slot_cells", "slot2"], 3,
                                  "meta.slot_cells.slot2: slot 3 out of range [0, 3)",
                                  "hashtable-collide"),
    "scenario-lock-slot-no-table": (["meta", "lock_slot"], {"lock": 0},
                                    "meta.lock_slot.lock: slot 0 out of range [0, 0)"),
    # property params, by the kinds their property kind declares
    "scenario-param-value": (["terminal_properties", 1, "params", "value"], True,
                             "terminal_properties[1].params.value: must be an object, got bool"),
    "scenario-param-rc-cells": (["properties", 3, "params", "rc_cells"], 7,
                                "properties[3].params.rc_cells: must be an object, got int"),
    "scenario-param-cell": (["properties", 4, "params", "cell"], "x",
                            "properties[4].params.cell: unknown cell 'x'"),
    "scenario-param-instance": (["properties", 1, "params", "instance"], "x",
                                "properties[1].params.instance: unknown protocol instance 'x'"),
    "scenario-param-unknown": (["properties", 1, "params", "instanse"], "lock",
                               "properties[1].params.instanse: unknown parameter"),
    # the args of the generic ghost resolvers, by the kinds they declare
    "scenario-exchange-updates": (
        ["script", 0], {"label": "t0.exc_begin", "resolver": "ghost.exchange",
                        "args": {"instance": "lock", "updates": {"list": [5]}}},
        "script[0].args.updates.list[0]: must be an object, got int",
    ),
    "scenario-exchange-kind": (
        ["script", 0], {"label": "t0.exc_begin", "resolver": "ghost.exchange",
                        "args": {"kind": "swap"}},
        "script[0].args.kind: must be exchange or deposit or withdraw or update, got 'swap'",
    ),
    "scenario-guard-instance": (
        ["script", 0], {"label": "t0.exc_begin", "resolver": "ghost.open-guard",
                        "args": {"instance": "x"}},
        "script[0].args.instance: unknown protocol instance 'x'",
    ),
    "scenario-transfer-unknown-arg": (
        ["script", 0], {"label": "t0.exc_begin", "resolver": "ghost.transfer",
                        "args": {"form": "self"}},
        "script[0].args.form: unknown argument",
    ),
    # initial fragments are carrier elements whose joint state is complete
    "scenario-fragment-not-element": (
        ["protocols", 0, "fragments", 0, 1], ["int", 1],
        "protocols[0].fragments[0][1]: 1 is not in the carrier of rwlock-protocol",
    ),
    # 𝒞 of the lock reads three arguments of the fields token
    "scenario-fragment-token-without-args": (
        ["protocols", 0, "fragments", 0, 1, 1, 0, 2], [],
        "protocols[0].fragments[0][1]: (ex, ε, ε, 0, ε) is not in the carrier of "
        "rwlock-protocol",
    ),
    "scenario-fragments-incomplete": (
        ["protocols", 0, "fragments"], [],
        "protocols: scenario setup: alloc-not-complete [lock]: initial joint state must "
        "satisfy the completeness predicate",
    ),
}


@pytest.mark.parametrize(
    "command, doc, args, message",
    [("check", doc, args, message) for doc, args, message in [
        (_table_protocol([[U, U, U], [ONE, U, ONE]]), [],
         "input error: protocol.parts[1].compose: no row for 1 · 1"),
        (_table_protocol([[U, U, U], [U, ONE, ONE], [ONE, ONE, TWO]]), [],
         "input error: protocol.parts[1].compose[2]: 2 is not a listed element"),
        ({"builtin": "fractional", "params": [1]}, [],
         "input error: params: must be an object, got list"),
        ({"builtin": "fractional", "params": [1]}, ["--bound", "3"],
         "input error: params: must be an object, got list"),
        ([{"builtin": "fractional"}], ["--bound", "3"],
         "input error: protocol: must be an object, got list"),
        (_trivial_protocol({"table": ["x"]}, {"table": []}), [],
         "input error: complete.table[0]: bad term document: 'x'"),
        (_trivial_protocol({"table": []}, {"table": [5]}), [],
         "input error: stored_of.table[0]: a row is [p, s], got 5"),
        (_trivial_protocol(7, {"table": []}), [],
         "input error: complete: must be an object, got int"),
        (_trivial_protocol({"table": [U]}, {"table": [[U, ["int", 3]]]}), [],
         "input error: stored_of.table[0][1]: 3 is not in the carrier of trivial"),
        (_trivial_protocol({"table": [["int", 3]]}, {"table": []}), [],
         "input error: complete.table[0]: 3 is not in the carrier of trivial"),
        (_trivial_protocol({"table": [U]}, {"table": []}), [],
         "input error: stored_of: table missing 1 complete elements"),
        ({"builtin": "fractional-memory", "params": {"keys": [ONE, ONE]}}, [],
         "input error: protocol: bad builtin protocol fractional-memory: duplicate key 1"),
        (dict(RWLOCK, params=dict(RWLOCK["params"], sp_mx=3)), [],
         "input error: params.sp_mx: unknown parameter"),
        (_trivial_protocol({"table": []}, {"table": []}) | {"protocol": {"kind": "nat", "limt": 2}},
         [], "input error: protocol.limt: unknown field"),
        (_trivial_protocol({"table": []}, {"table": []}) | {"protocol": {"kind": "martian"}},
         [], "input error: protocol.kind: unknown monoid kind 'martian'"),
        ({"builtin": "alchemy"}, [], "input error: builtin: unknown builtin protocol 'alchemy'"),
        # a bound or range that would leave a carrier with the unit alone
        ({"builtin": "fractional", "params": {"den_bound": 0}}, [],
         "input error: params.den_bound: must be a positive integer, got 0"),
        ({"builtin": "fractional", "params": {"den_bound": -3}}, [],
         "input error: params.den_bound: must be a positive integer, got -3"),
        ({"builtin": "counting", "params": {"c_max": -2}}, [],
         "input error: params.c_max: must be a non-negative integer, got -2"),
        ({"builtin": "counting", "params": {"r_range": [3, -3]}}, [],
         "input error: params.r_range: a range is [lo, hi] with lo <= hi, got [3, -3]"),
        (dict(RWLOCK, params=dict(RWLOCK["params"], rc_range=[1, 0])), [],
         "input error: params.rc_range: a range is [lo, hi] with lo <= hi, got [1, 0]"),
        ({"builtin": "fractional"}, ["--bound", "0"],
         "input error: --bound: must be a positive integer, got 0"),
        (COUNTING, ["--bound", "-1"], "input error: --bound: must be a positive integer, got -1"),
        (_trivial_protocol({"table": []}, {"table": []})
         | {"protocol": {"kind": "frac", "max_value": 0}}, [],
         "input error: protocol.max_value: must be a positive integer, got 0"),
        (_trivial_protocol({"table": []}, {"table": []})
         | {"protocol": {"kind": "nat", "limit": -1}}, [],
         "input error: protocol.limit: must be a non-negative integer, got -1"),
        (_trivial_protocol({"table": []}, {"table": []})
         | {"protocol": {"kind": "int", "lo": 3, "hi": -3}}, [],
         "input error: protocol: bad int monoid: lo 3 > hi -3"),
    ]]
    + [("explore", edited_scenario(path, value, *name), [], f"input error: {message}")
       for path, value, message, *name in MALFORMED_SCENARIO.values()],
    ids=["table-missing-row", "table-unlisted-result", "params-not-object",
         "bound-params-not-object", "bound-protocol-not-object",
         "complete-not-a-term", "stored-of-row-not-a-pair", "complete-not-object",
         "stored-value-not-in-storage", "complete-row-not-in-protocol", "stored-of-short",
         "builtin-not-built", "unknown-param", "monoid-unknown-field",
         "unknown-monoid-kind", "unknown-builtin", "den-bound-zero", "den-bound-negative",
         "c-max-negative", "r-range-reversed", "rc-range-reversed", "bound-zero",
         "bound-negative-non-fractional", "frac-max-value-zero", "nat-limit-negative",
         "int-range-reversed"]
    + list(MALFORMED_SCENARIO),
)
def test_malformed_protocol_exit_2_without_traceback(tmp_path, command, doc, args, message):
    assert_input_error(tmp_path, doc, args, message, command)


def unbound_cell(doc):
    # a script entry that resolves its instance from a cell with no
    # cell_instances entry
    del doc["cell_instances"]["exc"]
    doc["script"][0]["args"]["instance"] = "@cell"


def lock_step_on_table(doc):
    # a lock resolver pointed at the hash-table instance
    entry = next(e for e in doc["script"] if e["resolver"] == "rw.exc-begin")
    entry["args"]["instance"] = "ht"


def no_slot_locks(doc):
    doc["meta"]["lock_slot"] = {}


def counter_out_of_range(counter):
    # a reader step on a counter the multi-counter lock does not have
    def edit(doc):
        entry = next(e for e in doc["script"] if e["resolver"] == "rwm.shared-begin")
        entry["args"]["counter"] = counter

    edit.__name__ = f"counter_{counter}"
    return edit


def cell_arg_names_no_cell(doc):
    entry = next(e for e in doc["script"] if e["resolver"] == "rw.exc-release")
    entry["args"]["cell"] = "x"


def protected_cell_names_no_cell(doc):
    # the release's cell comes from protected_cells, whose values are read
    # as cells
    for entry in doc["script"]:
        if entry["resolver"] == "rw.exc-release":
            del entry["args"]["cell"]
    doc["protected_cells"] = {"lock": "x"}


def shared_read_counter_out_of_range(doc):
    entry = next(e for e in doc["script"] if e["resolver"] == "rwm.shared-read")
    entry["args"]["counter"] = 2


def tid_names_no_thread(doc):
    doc["terminal_properties"][1]["params"]["tid"] = 7


def lock_properties_on_table(doc):
    for prop in doc["properties"]:
        if prop["kind"].startswith("rw-"):
            prop["params"]["instance"] = "ht"


def lock_instance_not_declared(doc):
    doc["script"][0]["args"]["instance"] = 7


def query_key_not_a_term(doc):
    entry = next(e for e in doc["script"] if e["resolver"] == "ht.query-check")
    entry["args"]["key"] = 5


@pytest.mark.parametrize("name, edit, message", [
    ("rwlock-exc", lock_instance_not_declared,
     "script[0].args.instance: unknown protocol instance 7"),
    ("rwlock-multi", counter_out_of_range(-1),
     "script[4].args.counter: must be a non-negative integer, got -1"),
    ("rwlock-exc", cell_arg_names_no_cell, "script[2].args.cell: unknown cell 'x'"),
    ("rwlock-exc", protected_cell_names_no_cell, "protected_cells.lock: unknown cell 'x'"),
    ("hashtable-collide", query_key_not_a_term, "script[13].args.key: must be an object, got int"),
])
def test_case_study_resolver_args_are_read_by_kind(tmp_path, name, edit, message):
    # the lock and hash-table resolvers declare their args, so an arg of
    # the wrong kind is an input error, as for the generic ghost.* ones
    doc = shipped_scenario(name)
    edit(doc)
    with pytest.raises(FormatError, match=re.escape(message)):
        scenario_from_json(doc)
    assert_input_error(tmp_path, doc, [], f"input error: {message}", "explore")


def test_resolver_replay_error_is_a_violation(tmp_path):
    # each ReplayError a resolver raises is recorded, and so is each fault
    # that a resolver or a property meets at run time; the explorer does
    # not crash
    cases = [
        ("rwlock-exc", unbound_cell, {
            "kind": "replay", "name": "t0.exc_begin",
            "detail": "label t0.exc_begin: no protocol instance for cell 'exc'",
            "schedule": [0, 0],
        }),
        ("hashtable-collide", lock_step_on_table, {
            "kind": "replay", "name": "t0.exc_begin.0",
            "detail": "instance 'ht' is not a reader-writer lock",
            "schedule": [0, 0, 0, 0, 0, 0, 0],
        }),
        ("hashtable-collide", no_slot_locks, {
            "kind": "replay", "name": "t0.exc_check0.0",
            "detail": "no slot lock for cell 'rc0'",
            "schedule": [0] * 14,
        }),
    ] + [
        ("rwlock-multi", counter_out_of_range(counter), {
            "kind": "replay", "name": "t1.sh_begin",
            "detail": f"counter {counter} out of range [0, 2)",
            "schedule": [0] * 23 + [1, 1],
        })
        for counter in (5, 2)
    ] + [
        ("rwlock-multi", shared_read_counter_out_of_range, {
            "kind": "replay", "name": "t1.sh_read",
            "detail": "counter 2 out of range [0, 2)",
            "schedule": [0] * 23 + [1] * 13,
        }),
        ("rwlock-shared", tid_names_no_thread, {
            "kind": "terminal", "name": "reader-0-sane", "detail": "no thread 7",
            "schedule": [0] * 17 + [1] * 16 + [2] * 16,
        }),
        ("hashtable-collide", lock_properties_on_table, {
            "kind": "property", "name": "mutual-exclusion-0",
            "detail": "evaluator error: instance 'ht' is not a reader-writer lock",
            "schedule": [],
        }),
    ]
    for name, edit, violation in cases:
        doc = shipped_scenario(name)
        edit(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        proc = run_process("explore", str(path), "--format", "json")
        assert proc.returncode == 1, (edit.__name__, proc.stderr)
        assert "Traceback" not in proc.stderr, edit.__name__
        assert violation in json.loads(proc.stdout)["violations"], edit.__name__


def test_unknown_protected_cell_met_at_run_time_is_a_violation():
    # a scenario built in Python is not read by formats, so an unknown
    # protected cell is met only when the release reads it
    doc = shipped_scenario("rwlock-exc")
    protected_cell_names_no_cell(doc)
    doc["protected_cells"] = {"lock": "cell"}
    scenario = scenario_from_json(doc).replace(protected_cells={"lock": "x"})
    want = Violation("replay", "t0.exc_release", "label t0.exc_release: unknown cell 'x'",
                     (0,) * 20)
    assert want in explore(scenario).violations


# the shape fuzz: each example replaces one node of a checked-in scenario,
# outside its threads, with one of these values or a list of one
FUZZ_VALUES = [None, 7, "x", [], {}, -3, True, [["int", 1]], ["map", [[["int", 1]]]]]
SCENARIO_DEMOS = sorted(name for name, spec in DEMOS.items() if spec["kind"] == "explore")


def node_paths(doc, path=()):
    """The path of every node of the scenario ``doc`` outside its threads."""
    if isinstance(doc, dict):
        items = [(k, v) for k, v in doc.items() if path or k != "threads"]
    elif isinstance(doc, list):
        items = list(enumerate(doc))
    else:
        return []
    return [p for k, v in items for p in [(*path, k), *node_paths(v, (*path, k))]]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_scenario_shape_fuzz_never_raises(data):
    doc = shipped_scenario(data.draw(st.sampled_from(SCENARIO_DEMOS)))
    path = data.draw(st.sampled_from(node_paths(doc)))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(st.sampled_from(FUZZ_VALUES + [[v] for v in FUZZ_VALUES]))
    mode = data.draw(st.sampled_from(["rule", "concrete"]))
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(doc))
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["explore", str(scenario), "--mode", mode, "--max-states", "300",
                         "--quiet"])
    assert code in (0, 1, 2, 3)


CHECK_DEMOS = sorted(name for name, spec in DEMOS.items() if spec["kind"] == "check")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_check_shape_fuzz_never_raises(data):
    # one node of a checked-in protocol or relations document replaced, as
    # in the scenario shape fuzz
    name = data.draw(st.sampled_from(CHECK_DEMOS))
    docs = {part: json.loads(demo_path(f"{name}.{part}.json").read_text())
            for part in ("protocol", "relations")}
    part = data.draw(st.sampled_from(sorted(docs)))
    path = data.draw(st.sampled_from(node_paths(docs[part])))
    node = docs[part]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(st.sampled_from(FUZZ_VALUES + [[v] for v in FUZZ_VALUES]))
    with tempfile.TemporaryDirectory() as tmp:
        for p, doc in docs.items():
            (Path(tmp) / f"{p}.json").write_text(json.dumps(doc))
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["check", str(Path(tmp) / "protocol.json"),
                         str(Path(tmp) / "relations.json"), "--quiet"])
    assert code in (0, 1, 2, 3)
