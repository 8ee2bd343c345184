"""Built-in demo inputs.

Each demo is a checked-in JSON document under ``guardcheck/demos/``. A
check demo is its packaged protocol and relations files. A scenario
demo's file is the document its case-study builder writes; ``python -m
guardcheck.demos`` rewrites those files, and the test suite pins them to
the builders' output.

Registry: protocol-frac, protocol-count, protocol-rwlock (protocol +
relation-query checks) and rwlock-exc, rwlock-shared, rwlock-multi,
hashtable-collide, race-negative (scenario explorations).
"""

from __future__ import annotations

import json

from .formats import dumps, scenario_to_json
from .library import HashFunctionSpec
from .terms import tint

__all__ = ["DEMOS", "demo_documents", "demo_path", "load_demo_document"]


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
    "protocol-frac": {"kind": "check"},
    "protocol-count": {"kind": "check"},
    "protocol-rwlock": {"kind": "check"},
    "rwlock-exc": {"kind": "explore"},
    "rwlock-shared": {"kind": "explore"},
    "rwlock-multi": {"kind": "explore"},
    "hashtable-collide": {"kind": "explore"},
    "race-negative": {"kind": "explore"},
}


def demo_documents() -> dict:
    """name -> {filename: document} for the scenario demos, as their
    builders write them."""
    return {
        name: {f"{name}.scenario.json": scenario_to_json(scenario)}
        for name, scenario in _scenarios().items()
    }


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
