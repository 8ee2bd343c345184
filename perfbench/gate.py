"""Correctness gate: a run counts only if its report passes every check.

Independent expectations: an exploration report is ``ok``, meets its
stuck-state expectation, has no bound exceeded and, where present, an
``oracle_subset`` of true; a check report is well-formed and every query
matched its ``expect``. On top of that the report must reproduce the
reference stored beside this file (``reference.json``, from seed 0):

* per query: verdict, witness and reason;
* per exploration: states, transitions, dedup hits, the set of stuck
  reasons, the set of violations as (kind, name), and the set of terminal
  outcomes, mapped back to seed-0 labels first.

Regenerate the reference with ``python3 perfbench/gate.py``; it runs
every workload at seed 0 in this process.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REFERENCE = Path(__file__).resolve().with_name("reference.json")
QUERY_FIELDS = ("kind", "note", "expect", "verdict", "witness", "reason")


def _relabel(node, mapping: dict):
    """``node`` with every JSON term found in ``mapping`` replaced."""
    if isinstance(node, list):
        got = mapping.get(json.dumps(node))
        if got is not None:
            return got
        return [_relabel(x, mapping) for x in node]
    if isinstance(node, dict):
        return {k: _relabel(v, mapping) for k, v in node.items()}
    return node


def exploration_facts(report: dict, relabel=()) -> dict:
    """What the reference pins of one exploration report; ``relabel``
    holds (seed-n term, seed-0 term) pairs."""
    back = {json.dumps(new): old for new, old in relabel}
    return {
        "states": report["states"],
        "transitions": report["transitions"],
        "dedup_hits": report["dedup_hits"],
        "stuck_reasons": sorted({s["reason"] for s in report["stuck"]}),
        "violations": sorted([v["kind"], v["name"]] for v in report["violations"]),
        "terminal_outcomes": sorted(
            {json.dumps(_relabel(t, back), sort_keys=True) for t in report["terminal_summaries"]}
        ),
    }


def query_facts(report: dict) -> list:
    return [{f: q[f] for f in QUERY_FIELDS} for q in report["queries"]]


def reference_from(plan: dict, reports: list) -> dict:
    """The reference entry of one seed-0 workload run."""
    if plan["kind"] == "explore":
        return exploration_facts(json.loads(reports[0]))
    return {
        p["demo"]: query_facts(json.loads(text))
        for p, text in zip(plan["protocols"], reports)
    }


def _expectation_problems(report: dict) -> list:
    out = []
    if not report["ok"]:
        out.append("report not ok")
    if report["bound_exceeded"]:
        out.append("bound exceeded")
    stuck = report["stuck_count"]
    if (report["expectation"] == "no-stuck") != (stuck == 0):
        out.append(f"expectation {report['expectation']} unmet ({stuck} stuck)")
    if report.get("oracle_subset") is False:
        out.append("terminal outcomes outside the sequential oracle")
    return out


def problems(plan: dict, reports: list, reference: dict) -> list:
    """Everything wrong with one run's reports; empty when it passes."""
    ref = reference[plan["workload"]]
    if plan["kind"] == "explore":
        report = json.loads(reports[0])
        out = _expectation_problems(report)
        got = exploration_facts(report, plan["relabel"])
        out += [f"{k}: {got[k]!r} != reference {ref[k]!r}" for k in ref if got[k] != ref[k]]
        return out

    out = []
    for p, text in zip(plan["protocols"], reports, strict=True):
        report = json.loads(text)
        demo = p["demo"]
        if not report["wellformed"]["ok"]:
            out.append(f"{demo}: not well-formed")
        got = query_facts(report)
        if len(got) != len(p["order"]):
            out.append(f"{demo}: {len(got)} queries, plan has {len(p['order'])}")
            continue
        for pos, (q, i) in enumerate(zip(got, p["order"])):
            if not report["queries"][pos]["matched"]:
                out.append(f"{demo} query {i}: {q['verdict']}, expected {q['expect']}")
            if q != ref[demo][i]:
                out.append(f"{demo} query {i}: {q!r} != reference {ref[demo][i]!r}")
        if not report["ok"]:
            out.append(f"{demo}: report not ok")
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def write_reference() -> None:
    from child import SRC, load_inputs, run_verdict
    from workloads import WORKLOADS, make_inputs

    sys.path.insert(0, str(SRC))
    from guardcheck import cli, formats

    ref = {}
    for name in WORKLOADS:
        plan = make_inputs(name, 0, REFERENCE.parent)  # seed 0 writes no file
        reports = run_verdict(plan, load_inputs(plan, formats), cli, formats)
        ref[name] = reference_from(plan, reports)
        print(f"{name}: done", file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_reference()
