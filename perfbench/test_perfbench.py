"""The benchmark's own tests: gate, seeded inputs, tracing, hygiene.

    PYTHONPATH=src python3 -m pytest -q perfbench

They start child processes like a benchmark run does, so they take
about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from workloads import DEMO_DIR, SEED0_LABELS, WORKLOADS, make_inputs  # noqa: E402

EXPLORE = "explore-rwlock-shared-concrete"
PRUNE = "explore-rwlock-exc-rule"  # where relation quantification dominates
CHECK = "check-protocols"


def child(plan: dict, tmp_path: Path, *flags: str, env=None) -> dict:
    plan_path = tmp_path / f"{plan['workload']}-s{plan['seed']}.plan.json"
    plan_path.write_text(json.dumps(plan))
    cmd = [sys.executable, str(HERE / "child.py"), str(plan_path),
           f"--spawned={time.monotonic()!r}", *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Untraced and traced children of the check and two explore workloads."""
    tmp = tmp_path_factory.mktemp("runs")
    out = {}
    for name in (CHECK, EXPLORE, PRUNE):
        plan = make_inputs(name, 0, tmp)
        out[name] = (plan, child(plan, tmp), child(plan, tmp, "--trace"))
    return out


def test_gate_passes_real_reports(runs):
    reference = gate.load_reference()
    for plan, plain, traced in runs.values():
        assert gate.problems(plan, plain["reports"], reference) == []
        assert gate.problems(plan, traced["reports"], reference) == []


def test_gate_counts_tampered_reports_as_wrong(runs):
    reference = gate.load_reference()
    plan, plain, _ = runs[CHECK]
    reports = [json.loads(r) for r in plain["reports"]]
    q = reports[2]["queries"][0]
    q["verdict"] = "fails" if q["verdict"] != "fails" else "holds"
    flipped = [json.dumps(r) for r in reports]
    assert gate.problems(plan, flipped, reference)

    plan, plain, _ = runs[EXPLORE]
    report = json.loads(plain["reports"][0])
    report["states"] += 1
    assert gate.problems(plan, [json.dumps(report)], reference)


def test_traced_report_equals_untraced(runs):
    for _, plain, traced in runs.values():
        assert traced["reports"] == plain["reports"]


def test_layer_self_times_add_up_to_traced_verdict(runs):
    for _, _, traced in runs.values():
        total = sum(traced["verdict_partition"].values())
        assert total == pytest.approx(traced["verdict_s"], abs=1e-3)
        layers = traced["layers"]
        assert layers["other.self_s"] == traced["verdict_partition"]["verdict"]


def _layer_times(layers: dict) -> dict:
    """Self time per layer, with the three protocol relations as one layer."""
    times = {
        k: v for k, v in layers.items()
        if k.endswith((".s", "self_s")) and not k.startswith(("protocol.", "explore.property."))
    }
    times["explore.property.s"] = layers["explore.property.s"]
    times["protocol.*"] = sum(layers[f"protocol.{k}.s"] for k in ("exchange", "guard", "valid_fragment"))
    return times


def test_traced_split_tells_workloads_apart(runs):
    check = _layer_times(runs[CHECK][2]["layers"])
    assert max(check, key=check.get) == "monoid.laws.s"
    # frame enumeration: the relation loops plus the carrier they walk
    prune = _layer_times(runs[PRUNE][2]["layers"])
    total = sum(prune.values())
    assert prune["protocol.*"] > 0.3 * total
    assert prune["protocol.*"] + prune["monoid.carrier.s"] > 0.8 * total
    explore = runs[EXPLORE][2]
    assert _layer_times(explore["layers"])["protocol.*"] < explore["verdict_s"] / 10
    assert explore["layers"]["explore.transitions"] == 33367


def test_seed_zero_feeds_checked_in_documents(tmp_path):
    for name in WORKLOADS:
        plan = make_inputs(name, 0, tmp_path)
        assert not any(tmp_path.iterdir())
        if plan["kind"] == "explore":
            assert Path(plan["scenario"]).parent == DEMO_DIR
            assert plan["relabel"] == []
        else:
            for p in plan["protocols"]:
                assert Path(p["relations"]).parent == DEMO_DIR
                assert p["order"] == sorted(p["order"])


def test_builders_reproduce_seed_zero_documents():
    for demo, labels in SEED0_LABELS.items():
        doc = workloads._scenario_doc(demo, labels)
        assert workloads._dump(doc) == (DEMO_DIR / f"{demo}.scenario.json").read_text()


def test_other_seeds_relabel_and_reorder(tmp_path):
    for name, w in WORKLOADS.items():
        a, b = make_inputs(name, 7, tmp_path), make_inputs(name, 7, tmp_path)
        assert a == b  # same seed, same inputs
        if w.kind == "explore":
            (demo,) = w.demos
            assert [old for _, old in a["relabel"]] == [["int", v] for v in SEED0_LABELS[demo]]
            compact = json.dumps(json.loads(Path(a["scenario"]).read_text()))
            for new, _ in a["relabel"]:
                assert json.dumps(new) in compact
            assert compact != json.dumps(json.loads((DEMO_DIR / f"{demo}.scenario.json").read_text()))
        else:
            orders = [p["order"] for p in a["protocols"]]
            assert any(o != sorted(o) for o in orders)
            for p in a["protocols"]:
                queries = json.loads(Path(p["relations"]).read_text())["queries"]
                seed0 = json.loads((DEMO_DIR / f"{p['demo']}.relations.json").read_text())["queries"]
                assert queries == [seed0[i] for i in p["order"]]


def test_relabelled_exploration_maps_back_to_reference():
    ref = gate.load_reference()[EXPLORE]
    relabel = [[["int", 4242], ["int", 7]]]
    forward = {json.dumps(old): new for new, old in relabel}
    report = {
        "states": ref["states"], "transitions": ref["transitions"], "dedup_hits": ref["dedup_hits"],
        "stuck": [], "violations": [],
        "terminal_summaries": [gate._relabel(json.loads(t), forward) for t in ref["terminal_outcomes"]],
    }
    assert report["terminal_summaries"] != [json.loads(t) for t in ref["terminal_outcomes"]]
    assert gate.exploration_facts(report, relabel) == ref
    assert gate.exploration_facts(report) != ref


@pytest.mark.parametrize("name", [CHECK, EXPLORE])
def test_reports_do_not_depend_on_hash_seed(tmp_path, name):
    plan = make_inputs(name, 0, tmp_path)
    reports = [
        child(plan, tmp_path, env=dict(os.environ, PYTHONHASHSEED=hash_seed))["reports"]
        for hash_seed in ("1", "2")
    ]
    assert reports[0] == reports[1]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", CHECK, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_that_benchmark_json_names(trace):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", CHECK, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = bench["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
