"""Workload table and seeded input generation.

Seed 0 feeds the checked-in demo documents byte for byte. Any other seed
relabels them through the public builders: written values, hash-table
keys and stored values change, and for ``check-protocols`` the query
order changes. Relabelling is order-preserving and never moves the
hash-table collision slot, so the state graph stays isomorphic and the
seed-0 counts and verdicts still apply (the gate checks that they do).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMO_DIR = SRC / "guardcheck" / "demos"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "explore" | "check"
    demos: tuple  # demo names whose documents make the input
    mode: str = "rule"  # admission mode, explore workloads only


WORKLOADS = {
    w.name: w
    for w in (
        Workload("explore-rwlock-exc-rule", "explore", ("rwlock-exc",), "rule"),
        Workload("explore-rwlock-shared-concrete", "explore", ("rwlock-shared",), "concrete"),
        Workload("explore-hashtable-rule", "explore", ("hashtable-collide",), "rule"),
        Workload(
            "check-protocols", "check", ("protocol-frac", "protocol-count", "protocol-rwlock")
        ),
        # Runnable by name but not in BENCHMARK.json: its one 20-28 s child
        # per run spreads by about a quarter between runs on a noisy machine.
        Workload("explore-rwlock-multi-rule", "explore", ("rwlock-multi",), "rule"),
    )
}

# Relabelled ints come from ranges that hold no int of the seed-0
# documents, so mapping a report back to seed-0 labels is unambiguous.
_VALUE_RANGE = (1_000, 500_000)


def _dump(doc) -> str:
    # the layout python -m guardcheck.demos writes
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _rwlock_scenario(demo: str, value: int) -> dict:
    from guardcheck.formats import scenario_to_json
    from guardcheck.studies import RwLockScenarioParams, build_rwlock_scenario

    if demo == "rwlock-exc":
        params = RwLockScenarioParams(writers=(("incr", 1), ("incr", 1)), readers=(), initial=value)
    elif demo == "rwlock-shared":
        params = RwLockScenarioParams(writers=(("write", value),), readers=(0, 0))
    else:
        params = RwLockScenarioParams(counters=2, writers=(("write", value),), readers=(0, 1))
    return scenario_to_json(build_rwlock_scenario(params))


def _hashtable_scenario(keys: tuple, values: tuple) -> dict:
    from guardcheck.formats import scenario_to_json
    from guardcheck.library import HashFunctionSpec
    from guardcheck.studies import HashTableScenarioParams, build_hashtable_scenario
    from guardcheck.terms import tint

    a, b = tint(keys[0]), tint(keys[1])
    params = HashTableScenarioParams(
        HashFunctionSpec(3, ((a, 0), (b, 0))),  # both keys collide on slot 0, as in the demo
        (tint(values[0]), tint(values[1])),
        ((("update", a, tint(values[0])), ("update", b, tint(values[1]))), (("query", a),)),
    )
    return scenario_to_json(build_hashtable_scenario(params))


# The seed-0 labels each relabelled scenario replaces, in order.
SEED0_LABELS = {
    "rwlock-exc": (0, 1, 2),  # the initial value, then after one and two increments
    "rwlock-shared": (7,),
    "rwlock-multi": (5,),
    "hashtable-collide": (0, 1, 10, 11),  # keys, then stored values
}


def _fresh_labels(demo: str, rng: random.Random) -> tuple:
    lo, hi = _VALUE_RANGE
    if demo == "rwlock-exc":
        v = rng.randrange(lo, hi - 2)
        return (v, v + 1, v + 2)
    # sorted, so relabelling keeps the term order the carriers enumerate in
    return tuple(sorted(rng.sample(range(lo, hi), len(SEED0_LABELS[demo]))))


def _scenario_doc(demo: str, labels: tuple) -> dict:
    if demo == "hashtable-collide":
        return _hashtable_scenario(labels[:2], labels[2:])
    return _rwlock_scenario(demo, labels[0])


def make_inputs(name: str, seed: int, out_dir: Path) -> dict:
    """Writes the inputs for one workload and seed; returns the plan the
    child process and the gate read.

    Explore plans carry ``relabel``: pairs (seed-n term, seed-0 term)
    that map a report back to seed-0 labels. Check plans carry, per
    protocol, ``order``: the seed-0 index of each query position.
    """
    w = WORKLOADS[name]
    rng = random.Random(seed)
    plan = {"workload": name, "kind": w.kind, "seed": seed, "mode": w.mode}
    if w.kind == "explore":
        (demo,) = w.demos
        path = DEMO_DIR / f"{demo}.scenario.json"
        relabel = []
        if seed != 0:
            old = SEED0_LABELS[demo]
            new = _fresh_labels(demo, rng)
            path = out_dir / f"{name}-s{seed}.scenario.json"
            path.write_text(_dump(_scenario_doc(demo, new)))
            relabel = [[["int", n], ["int", o]] for n, o in zip(new, old)]
        plan.update(scenario=str(path), relabel=relabel)
        return plan

    protocols = []
    for demo in w.demos:
        rel_path = DEMO_DIR / f"{demo}.relations.json"
        doc = json.loads(rel_path.read_text())
        order = list(range(len(doc["queries"])))
        if seed != 0:
            rng.shuffle(order)
            doc["queries"] = [doc["queries"][i] for i in order]
            rel_path = out_dir / f"{name}-s{seed}-{demo}.relations.json"
            rel_path.write_text(_dump(doc))
        protocols.append(
            {
                "demo": demo,
                "protocol": str(DEMO_DIR / f"{demo}.protocol.json"),
                "relations": str(rel_path),
                "order": order,
            }
        )
    plan["protocols"] = protocols
    return plan
