"""Built-in demo inputs.

Each demo is a checked-in JSON document under ``guardcheck/demos/``;
this module also knows how to regenerate those documents from the
library builders (``python -m guardcheck.demos`` rewrites them), and the
test suite pins the checked-in files to the builder output.

Registry: protocol-frac, protocol-count, protocol-rwlock (protocol +
relation-query checks) and rwlock-exc, rwlock-shared, rwlock-multi,
hashtable-collide, race-negative (scenario explorations).
"""

from __future__ import annotations

import json

from .formats import dumps, scenario_to_json
from .library import HashFunctionSpec
from .terms import term_to_json, tfrac, tint

__all__ = ["DEMOS", "demo_documents", "demo_path", "load_demo_document"]


def _frac_relations() -> dict:
    t = term_to_json
    one, zero = t(tfrac(1)), t(tfrac(0))
    n1, n0 = t(tint(1)), t(tint(0))
    return {
        "queries": [
            {"kind": "withdraw", "p": one, "p_after": zero, "s_after": n1, "expect": "holds",
             "note": "whole share converts to one stored item"},
            {"kind": "deposit", "p": zero, "s": n1, "p_after": one, "expect": "holds",
             "note": "one stored item converts to the whole share"},
            {"kind": "exchange", "p": one, "s": n0, "p_after": zero, "s_after": n1,
             "expect": "holds"},
            {"kind": "exchange", "p": zero, "s": n1, "p_after": one, "s_after": n0,
             "expect": "holds"},
            {"kind": "guard", "p": t(tfrac(1, 2)), "s": n1, "expect": "holds"},
            {"kind": "guard", "p": t(tfrac(1, 3)), "s": n1, "expect": "holds"},
            {"kind": "guard", "p": t(tfrac(1, 12)), "s": n1, "expect": "holds"},
            {"kind": "guard", "p": zero, "s": n1, "expect": "fails",
             "note": "the empty share guards nothing"},
            {"kind": "withdraw", "p": t(tfrac(1, 2)), "p_after": zero, "s_after": n1,
             "expect": "fails", "note": "half a share cannot withdraw the item"},
        ]
    }


def _count_relations() -> dict:
    t = term_to_json

    def pair(r, c):
        return ["tuple", [["int", r], ["int", c]]]

    n0, n1 = t(tint(0)), t(tint(1))
    return {
        "queries": [
            {"kind": "exchange", "p": pair(0, 0), "s": n1, "p_after": pair(0, 1),
             "s_after": n0, "expect": "holds", "note": "deposit into a fresh counter"},
            {"kind": "exchange", "p": pair(0, 1), "s": n0, "p_after": pair(0, 0),
             "s_after": n1, "expect": "holds", "note": "withdraw from a counter at zero refs"},
            {"kind": "guard", "p": ["named", "ref", []], "s": n1, "expect": "holds",
             "note": "a reference witnesses one stored item"},
            {"kind": "guard", "p": pair(0, 0), "s": n1, "expect": "fails"},
            {"kind": "update", "p": ["named", "counter", [["int", 0]]],
             "p_after": ["named", "counter", [["int", 1]]], "expect": "fails",
             "note": "counts cannot be conjured"},
        ]
    }


def _rwlock_relations() -> dict:

    def f(exc, rc, x):
        return ["named", "fields", [["bool", exc], ["int", rc], ["sym", x]]]

    def sh(x):
        return ["named", "sh", [["sym", x]]]

    def ex(x):
        return ["con", "ex", [["sym", x]]]

    ep = ["named", "excPending", []]
    e = ["named", "exc", []]
    shp = ["named", "shPending", []]
    queries = []
    for rc in (0, 1):
        queries.append(
            {"kind": "update", "p": f(False, rc, "x0"),
             "p_after": ["compose", [f(True, rc, "x0"), ep]], "expect": "holds",
             "note": "exclusive acquisition begins"}
        )
    queries += [
        {"kind": "update", "p": f(False, 0, "x0"),
         "p_after": ["compose", [f(False, 1, "x0"), shp]], "expect": "holds",
         "note": "reader registers"},
        {"kind": "update", "p": ["compose", [f(False, 1, "x0"), shp]],
         "p_after": ["compose", [f(False, 1, "x0"), sh("x0")]], "expect": "holds",
         "note": "reader acquires"},
        {"kind": "update", "p": ["compose", [f(False, 1, "x0"), sh("x0")]],
         "p_after": f(False, 0, "x0"), "expect": "holds", "note": "reader releases"},
        {"kind": "update", "p": ["compose", [f(True, 1, "x0"), shp]],
         "p_after": f(True, 0, "x0"), "expect": "holds", "note": "reader backs out"},
        {"kind": "withdraw", "p": ["compose", [f(True, 0, "x0"), ep]],
         "p_after": ["compose", [f(True, 0, "x0"), e]], "s_after": ex("x0"),
         "expect": "holds", "note": "content withdrawn once counters read zero"},
        {"kind": "deposit", "p": ["compose", [f(True, 0, "x1"), e]],
         "s": ex("x0"), "p_after": f(False, 0, "x0"), "expect": "holds",
         "note": "content deposited on release"},
        {"kind": "guard", "p": sh("x0"), "s": ex("x0"), "expect": "holds",
         "note": "a reader token guards the stored content"},
        # negative controls
        {"kind": "update", "p": f(False, 0, "x0"),
         "p_after": ["compose", [f(True, 1, "x0"), ep]], "expect": "fails",
         "note": "reference count off by one"},
        {"kind": "withdraw", "p": ["compose", [f(True, 1, "x0"), ep]],
         "p_after": ["compose", [f(True, 1, "x0"), e]], "s_after": ex("x0"),
         "expect": "fails", "note": "withdraw with a reader still registered"},
        {"kind": "guard", "p": shp, "s": ex("x0"), "expect": "fails",
         "note": "a pending reader guards nothing"},
        {"kind": "valid-fragment", "p": ["compose", [e, e]], "expect": "fails",
         "note": "two exclusive tokens cannot coexist"},
    ]
    return {"queries": queries}


def _scenarios() -> dict:
    from .studies import (
        HashTableScenarioParams,
        RwLockScenarioParams,
        build_hashtable_scenario,
        build_race_scenario,
        build_rwlock_scenario,
    )

    a, b = tint(0), tint(1)
    collide = HashFunctionSpec(3, ((a, 0), (b, 0)))
    ht_params = HashTableScenarioParams(
        collide,
        (tint(10), tint(11)),
        ((("update", a, tint(10)), ("update", b, tint(11))), (("query", a),)),
    )
    return {
        "rwlock-exc": build_rwlock_scenario(
            RwLockScenarioParams(writers=(("incr", 1), ("incr", 1)), readers=())
        ),
        "rwlock-shared": build_rwlock_scenario(
            RwLockScenarioParams(writers=(("write", 7),), readers=(0, 0))
        ),
        "rwlock-multi": build_rwlock_scenario(
            RwLockScenarioParams(counters=2, writers=(("write", 5),), readers=(0, 1))
        ),
        "hashtable-collide": build_hashtable_scenario(ht_params),
        "race-negative": build_race_scenario(readers=1, writers=1),
    }


DEMOS = {
    "protocol-frac": {"kind": "check", "protocol": {"builtin": "fractional"}},
    "protocol-count": {"kind": "check", "protocol": {"builtin": "counting"}},
    "protocol-rwlock": {
        "kind": "check",
        "protocol": {
            "builtin": "rwlock",
            "params": {"values": [["sym", "x0"], ["sym", "x1"]]},
        },
    },
    "rwlock-exc": {"kind": "explore"},
    "rwlock-shared": {"kind": "explore"},
    "rwlock-multi": {"kind": "explore"},
    "hashtable-collide": {"kind": "explore"},
    "race-negative": {"kind": "explore"},
}


def demo_documents() -> dict:
    """name -> {filename: document}; the canonical demo inputs."""
    docs = {}
    relations = {
        "protocol-frac": _frac_relations(),
        "protocol-count": _count_relations(),
        "protocol-rwlock": _rwlock_relations(),
    }
    for name, spec in DEMOS.items():
        if spec["kind"] == "check":
            docs[name] = {
                f"{name}.protocol.json": spec["protocol"],
                f"{name}.relations.json": relations[name],
            }
    for name, scenario in _scenarios().items():
        docs[name] = {f"{name}.scenario.json": scenario_to_json(scenario)}
    return docs


def demo_path(filename: str):
    import importlib.resources

    return importlib.resources.files("guardcheck").joinpath("demos", filename)


def load_demo_document(filename: str) -> dict:
    return json.loads(demo_path(filename).read_text())


def write_demo_files() -> None:
    import pathlib

    out_dir = pathlib.Path(__file__).parent / "demos"
    out_dir.mkdir(exist_ok=True)
    for files in demo_documents().values():
        for fname, doc in files.items():
            (out_dir / fname).write_text(dumps(doc))


if __name__ == "__main__":
    write_demo_files()
